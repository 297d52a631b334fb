"""Per-layer accounting for the traced run.

The traced run attaches :mod:`cProfile` around the workload's build and
around every timed call, then charges each function's self time to the
``repro`` subpackage (the *layer*) that defines it.  Builtins, NumPy and
other code outside ``repro`` are charged to the layer that called them,
split across callers in proportion to the time each caller spent in
them; what no ``repro`` function called is charged to ``other``.  The
self times of the layers and ``other`` sum to the profiler's total.

:class:`Spans` wraps a few calls at layer boundaries to count and time
them: ``Fabric.transfer`` (netsim), ``Controller.prepare``/``observe``
(control), and the data-centric schedulers' fetch and pull bookkeeping
hooks (one call per completed cross-machine fetch or worker pull; the
``PullTransport.pull`` API has no caller on the iteration path).  The
wrappers live only in the traced process; a target a later change
renames is skipped and listed as missing.

The profiler adds cost to every Python call but not to work inside C,
so call-heavy layers are over-weighted: layer numbers come only from the
traced run, end-to-end numbers only from untraced runs.
"""

from __future__ import annotations

import functools
import time
from typing import Dict, Optional, Tuple

LAYERS = (
    "simkit", "netsim", "cluster", "core", "comm", "control", "metrics",
    "workloads", "serving", "tensorlib", "runtime",
)
# Subpackages folded into a layer.
_ALIASES = {"trace": "metrics", "models": "runtime"}

Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The layer of a source file, or None outside the layered packages."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return None
    parts = path[at + len(marker):].split("/")
    if len(parts) < 2:
        return None
    name = _ALIASES.get(parts[0], parts[0])
    return name if name in LAYERS else None


def attribute(stats: Dict) -> Dict[str, float]:
    """Self seconds per layer (plus ``other``) from ``pstats.Stats.stats``."""
    shares: Dict[Func, Dict[str, float]] = {}

    def share_of(func: Func, active: set) -> Dict[str, float]:
        """Fractions of ``func``'s self time owed to each layer."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        callers = stats[func][4] if func in stats else {}
        weights = {
            caller: entry[2] for caller, entry in callers.items()
            if caller not in active
        }
        total = sum(weights.values())
        if total <= 0:
            weights = {
                caller: float(entry[0]) for caller, entry in callers.items()
                if caller not in active
            }
            total = sum(weights.values())
        result: Dict[str, float] = {}
        if total <= 0:
            result["other"] = 1.0
        else:
            active.add(func)
            for caller, weight in weights.items():
                for layer, part in share_of(caller, active).items():
                    result[layer] = result.get(layer, 0.0) + part * weight / total
            active.discard(func)
        shares[func] = result
        return result

    out = {layer: 0.0 for layer in LAYERS + ("other",)}
    for func, entry in stats.items():
        self_time = entry[2]
        if self_time <= 0:
            continue
        for layer, part in share_of(func, set()).items():
            out[layer] += self_time * part
    return out


class Spans:
    """Counting, timing wrappers around public calls at layer boundaries."""

    _TARGETS = (
        ("netsim.transfers", "repro.netsim.fabric", "Fabric", "transfer"),
        ("core.fetches", "repro.core.inter_scheduler", "InterNodeScheduler",
         "_account_fetch"),
        ("core.pulls", "repro.core.intra_scheduler", "IntraNodeScheduler",
         "_account_pull"),
        ("control.prepare", "repro.control.controller", "Controller", "prepare"),
        ("control.observe", "repro.control.controller", "Controller", "observe"),
    )

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.missing = []
        self._saved = []

    def install(self) -> None:
        import importlib

        for name, module_name, class_name, method in self._TARGETS:
            self.calls[name] = 0
            self.seconds[name] = 0.0
            cls = getattr(importlib.import_module(module_name), class_name, None)
            original = getattr(cls, method, None)
            if original is None:
                self.missing.append(f"{module_name}.{class_name}.{method}")
                continue
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def _wrap(self, name: str, original):
        calls, seconds = self.calls, self.seconds

        @functools.wraps(original)
        def span(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                calls[name] += 1
                seconds[name] += time.perf_counter() - start

        return span
