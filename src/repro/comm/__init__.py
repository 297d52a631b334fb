"""The §6 pull primitive: socket request, then RDMA payload."""

from .pull import SOCKET_OVERHEAD_S, PullFailedError, pull, retry

__all__ = ["SOCKET_OVERHEAD_S", "PullFailedError", "pull", "retry"]
