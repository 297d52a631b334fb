"""Autograd correctness tests, including finite-difference gradient checks."""

import gc

import numpy as np
import pytest

from repro.tensorlib import Tensor, no_grad
from repro.tensorlib.gradcheck import gradcheck

RNG = np.random.default_rng(7)


def make(shape, scale=1.0):
    return Tensor(RNG.standard_normal(shape) * scale, requires_grad=True)


class TestForward:
    def test_add_broadcasts(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3.0))
        out = a + b
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data[0], [1, 2, 3])

    def test_matmul_shapes(self):
        a = make((4, 5))
        b = make((5, 6))
        assert (a @ b).shape == (4, 6)

    def test_scalar_ops(self):
        x = Tensor([2.0], requires_grad=True)
        y = 3 * x + 1
        assert y.item() == pytest.approx(7.0)

    def test_detach_stops_gradients(self):
        x = make((3,))
        y = (x.detach() * 2).sum()
        assert not y.requires_grad

    def test_no_grad_context(self):
        x = make((3,))
        with no_grad():
            y = (x * 2).sum()
        assert not y.requires_grad

    def test_backward_requires_scalar(self):
        x = make((3,))
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_untracked_tensor_raises(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(RuntimeError):
            x.sum().backward()


class TestBackward:
    def test_backward_leaves_no_reference_cycle(self):
        """A finished graph is freed by reference counting alone: the
        cached topological order must not hold the tensor that owns it."""
        gc.collect()
        gc.disable()
        try:
            x = make((4, 4))
            loss = ((x @ x) * 2.0).sum()
            loss.backward()
            del loss
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0
        ones = np.ones((4, 4))
        np.testing.assert_allclose(
            x.grad, 2.0 * (ones @ x.data.T + x.data.T @ ones)
        )

    def test_add_grad(self):
        x = make((4,))
        y = make((4,))
        (x + y).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(4))
        np.testing.assert_allclose(y.grad, np.ones(4))

    def test_broadcast_add_grad_reduces(self):
        x = make((2, 3))
        b = make((3,))
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_mul_grad(self):
        x = Tensor([3.0], requires_grad=True)
        y = Tensor([5.0], requires_grad=True)
        (x * y).sum().backward()
        assert x.grad[0] == pytest.approx(5.0)
        assert y.grad[0] == pytest.approx(3.0)

    def test_grad_accumulates_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x  # dy/dx = 2x = 4
        y.sum().backward()
        assert x.grad[0] == pytest.approx(4.0)

    def test_matmul_gradcheck(self):
        a = make((3, 4), 0.5)
        b = make((4, 2), 0.5)
        gradcheck(lambda t: (t[0] @ t[1]).sum(), [a, b])

    def test_batched_matmul_gradcheck(self):
        a = make((2, 3, 4), 0.5)
        b = make((2, 4, 2), 0.5)
        gradcheck(lambda t: ((t[0] @ t[1]) ** 2).sum(), [a, b])

    def test_pow_gradcheck(self):
        x = Tensor(RNG.uniform(0.5, 2.0, size=(5,)), requires_grad=True)
        gradcheck(lambda t: (t[0] ** 3).sum(), [x])

    def test_div_gradcheck(self):
        x = make((4,), 1.0)
        y = Tensor(RNG.uniform(1.0, 2.0, size=(4,)), requires_grad=True)
        gradcheck(lambda t: (t[0] / t[1]).sum(), [x, y])

    def test_exp_log_gradcheck(self):
        x = Tensor(RNG.uniform(0.5, 1.5, size=(6,)), requires_grad=True)
        gradcheck(lambda t: (t[0].exp().log() * t[0]).sum(), [x])

    def test_relu_gradcheck(self):
        x = Tensor(RNG.uniform(0.1, 1.0, size=(6,)) * np.array([1, -1, 1, -1, 1, -1]),
                   requires_grad=True)
        gradcheck(lambda t: (t[0].relu() * 2).sum(), [x])

    def test_tanh_gradcheck(self):
        x = make((5,), 0.7)
        gradcheck(lambda t: t[0].tanh().sum(), [x])

    def test_gelu_gradcheck(self):
        x = make((5,), 0.7)
        gradcheck(lambda t: t[0].gelu().sum(), [x])

    def test_sum_axis_gradcheck(self):
        x = make((3, 4))
        gradcheck(lambda t: (t[0].sum(axis=1) ** 2).sum(), [x])

    def test_mean_gradcheck(self):
        x = make((3, 4))
        gradcheck(lambda t: (t[0].mean(axis=0) ** 2).sum(), [x])

    def test_max_gradcheck(self):
        # Distinct values avoid the subgradient tie case.
        x = Tensor(np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 4.0]]),
                   requires_grad=True)
        gradcheck(lambda t: t[0].max(axis=1).sum(), [x])

    def test_reshape_transpose_gradcheck(self):
        x = make((2, 6))
        gradcheck(
            lambda t: (t[0].reshape(3, 4).transpose(1, 0) ** 2).sum(), [x]
        )

    def test_getitem_gradcheck(self):
        x = make((5, 3))
        index = np.array([0, 2, 2, 4])
        gradcheck(lambda t: (t[0][index] ** 2).sum(), [x])

    def test_gather_scatter_roundtrip_grad(self):
        x = make((6, 3))
        index = np.array([1, 3, 3, 5])
        gathered = x.gather_rows(index)
        scattered = Tensor.scatter_rows(6, index, gathered)
        scattered.sum().backward()
        # Rows 1 and 5 used once, row 3 twice, rows 0/2/4 unused.
        expected = np.zeros((6, 3))
        expected[1] = 1
        expected[3] = 2
        expected[5] = 1
        np.testing.assert_allclose(x.grad, expected)

    def test_concat_gradcheck(self):
        a = make((2, 3))
        b = make((4, 3))
        gradcheck(
            lambda t: (Tensor.concat([t[0], t[1]], axis=0) ** 2).sum(), [a, b]
        )

    def test_deep_chain_does_not_recurse(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(2000):
            y = y + 0.001
        y.sum().backward()
        assert x.grad[0] == pytest.approx(1.0)
