"""Tests for the autograd Tensor core."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import _unbroadcast


class TestConstruction:
    def test_from_list(self):
        t = nn.Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype.kind == "f"

    def test_from_int_array_becomes_float(self):
        t = nn.Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind == "f"

    def test_scalar(self):
        t = nn.Tensor(2.5)
        assert t.item() == 2.5
        assert t.size == 1

    def test_requires_grad_default_false(self):
        assert not nn.Tensor([1.0]).requires_grad

    def test_numpy_returns_same_buffer(self):
        arr = np.ones(3)
        t = nn.Tensor(arr)
        assert t.numpy() is arr

    def test_detach_cuts_graph(self):
        a = nn.Tensor([1.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad
        c = b * 3
        assert not c.requires_grad

    def test_copy_is_independent(self):
        a = nn.Tensor([1.0, 2.0], requires_grad=True)
        b = a.copy()
        b.data[0] = 99.0
        assert a.data[0] == 1.0
        assert b.requires_grad

    def test_len_and_repr(self):
        t = nn.Tensor([1.0, 2.0])
        assert len(t) == 2
        assert "Tensor" in repr(t)


class TestArithmetic:
    def test_add(self):
        out = nn.Tensor([1.0, 2.0]) + nn.Tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_add_scalar_right_and_left(self):
        t = nn.Tensor([1.0])
        np.testing.assert_array_equal((t + 1).data, [2.0])
        np.testing.assert_array_equal((1 + t).data, [2.0])

    def test_sub_rsub(self):
        t = nn.Tensor([1.0])
        np.testing.assert_array_equal((t - 3).data, [-2.0])
        np.testing.assert_array_equal((3 - t).data, [2.0])

    def test_mul_div(self):
        t = nn.Tensor([2.0])
        np.testing.assert_array_equal((t * 3).data, [6.0])
        np.testing.assert_array_equal((t / 4).data, [0.5])
        np.testing.assert_array_equal((4 / t).data, [2.0])

    def test_neg_pow(self):
        t = nn.Tensor([2.0])
        np.testing.assert_array_equal((-t).data, [-2.0])
        np.testing.assert_array_equal((t ** 3).data, [8.0])

    def test_pow_tensor_exponent_rejected(self):
        with pytest.raises(TypeError):
            nn.Tensor([2.0]) ** nn.Tensor([3.0])

    def test_comparisons_return_bool_arrays(self):
        t = nn.Tensor([1.0, 3.0])
        assert (t > 2.0).tolist() == [False, True]
        assert (t < 2.0).tolist() == [True, False]
        assert (t >= 3.0).tolist() == [False, True]
        assert (t <= 1.0).tolist() == [True, False]


class TestBackwardBasics:
    def test_simple_chain(self):
        x = nn.Tensor([3.0], requires_grad=True)
        y = x * x + 2 * x  # dy/dx = 2x + 2 = 8
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_grad_accumulates_across_backward_calls(self):
        x = nn.Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        (x * 3).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_zero_grad(self):
        x = nn.Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        # x used twice: y = x*x + x*x -> dy/dx = 4x
        x = nn.Tensor([2.0], requires_grad=True)
        a = x * x
        b = x * x
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_shared_subexpression(self):
        x = nn.Tensor([2.0], requires_grad=True)
        shared = x * 3
        out = (shared + shared * 2).sum()  # 3x + 6x = 9x
        out.backward()
        np.testing.assert_allclose(x.grad, [9.0])

    def test_backward_requires_scalar_without_grad(self):
        x = nn.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="scalar"):
            (x * 2).backward()

    def test_backward_with_explicit_grad(self):
        x = nn.Tensor([1.0, 2.0], requires_grad=True)
        (x * 2).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [2.0, 20.0])

    def test_backward_wrong_grad_shape_rejected(self):
        x = nn.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="shape"):
            (x * 2).backward(np.ones(3))

    def test_backward_on_non_grad_tensor_rejected(self):
        with pytest.raises(RuntimeError):
            nn.Tensor([1.0]).backward()

    def test_no_grad_tracking_when_not_required(self):
        x = nn.Tensor([1.0])
        y = x * 2
        assert y._op is None
        assert not y.requires_grad


class TestBroadcastGradients:
    def test_unbroadcast_prepended_axes(self):
        grad = np.ones((4, 3))
        out = _unbroadcast(grad, (3,))
        np.testing.assert_array_equal(out, [4.0, 4.0, 4.0])

    def test_unbroadcast_stretched_axis(self):
        grad = np.ones((4, 3))
        out = _unbroadcast(grad, (4, 1))
        np.testing.assert_array_equal(out, np.full((4, 1), 3.0))

    def test_broadcast_add_gradients(self):
        a = nn.Tensor(np.ones((2, 3)), requires_grad=True)
        b = nn.Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])

    def test_broadcast_mul_gradients(self):
        a = nn.Tensor(np.full((2, 3), 2.0), requires_grad=True)
        b = nn.Tensor(np.full((1, 3), 3.0), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 3.0))
        np.testing.assert_array_equal(b.grad, np.full((1, 3), 4.0))

    def test_scalar_broadcast(self):
        a = nn.Tensor(np.ones((2, 2)), requires_grad=True)
        s = nn.Tensor(2.0, requires_grad=True)
        (a * s).sum().backward()
        np.testing.assert_allclose(s.grad, 4.0)


class TestElementwiseGradients:
    @pytest.mark.parametrize(
        "fn_name",
        ["exp", "log", "sqrt", "tanh", "sigmoid", "relu", "abs"],
    )
    def test_gradcheck_elementwise(self, fn_name, gradcheck, rng):
        x = rng.uniform(0.2, 2.0, size=(3, 4))  # positive for log/sqrt
        gradcheck(lambda t: getattr(t, fn_name)().sum(), x)

    def test_relu_grad_zero_below(self):
        x = nn.Tensor([-1.0, 2.0], requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_clip_grad_zero_outside(self):
        x = nn.Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_maximum_minimum_values_and_grads(self):
        a = nn.Tensor([1.0, 5.0], requires_grad=True)
        b = nn.Tensor([3.0, 2.0], requires_grad=True)
        a.maximum(b).sum().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 0.0])
        a.zero_grad(); b.zero_grad()
        a.minimum(b).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 0.0])
        np.testing.assert_array_equal(b.grad, [0.0, 1.0])


class TestReductions:
    def test_sum_axis_keepdims(self):
        x = nn.Tensor(np.arange(6.0).reshape(2, 3))
        assert x.sum().item() == 15.0
        np.testing.assert_array_equal(x.sum(axis=0).data, [3.0, 5.0, 7.0])
        assert x.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean_matches_numpy(self, rng):
        arr = rng.normal(size=(3, 4))
        x = nn.Tensor(arr)
        np.testing.assert_allclose(x.mean().item(), arr.mean())
        np.testing.assert_allclose(x.mean(axis=0).data, arr.mean(axis=0))

    def test_mean_gradient(self):
        x = nn.Tensor(np.ones((2, 4)), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 4), 1 / 8))

    def test_var_matches_numpy(self, rng):
        arr = rng.normal(size=(5, 3))
        np.testing.assert_allclose(
            nn.Tensor(arr).var(axis=1).data, arr.var(axis=1), atol=1e-12
        )

    def test_var_gradient(self, gradcheck, rng):
        gradcheck(lambda t: t.var(axis=-1).sum(), rng.normal(size=(3, 4)))

    def test_max_gradient_single(self):
        x = nn.Tensor([1.0, 5.0, 3.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_max_gradient_splits_ties(self):
        x = nn.Tensor([5.0, 5.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5])

    def test_max_axis(self, rng):
        arr = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(
            nn.Tensor(arr).max(axis=1).data, arr.max(axis=1)
        )


class TestMatmul:
    def test_2d_matches_numpy(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        np.testing.assert_allclose((nn.Tensor(a) @ nn.Tensor(b)).data, a @ b)

    def test_2d_gradcheck(self, gradcheck, rng):
        b = nn.Tensor(rng.normal(size=(4, 2)))
        gradcheck(lambda t: ((t @ b) ** 2).sum(), rng.normal(size=(3, 4)))

    def test_vector_cases(self, rng):
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert np.isclose((nn.Tensor(a) @ nn.Tensor(b)).item(), a @ b)
        m = rng.normal(size=(4, 2))
        np.testing.assert_allclose((nn.Tensor(a) @ nn.Tensor(m)).data, a @ m)
        np.testing.assert_allclose((nn.Tensor(m.T) @ nn.Tensor(a)).data, m.T @ a)

    def test_vector_gradients(self):
        a = nn.Tensor([1.0, 2.0], requires_grad=True)
        b = nn.Tensor([3.0, 4.0], requires_grad=True)
        (a @ b).backward()
        np.testing.assert_array_equal(a.grad, [3.0, 4.0])
        np.testing.assert_array_equal(b.grad, [1.0, 2.0])

    def test_batched_matmul_gradcheck(self, gradcheck, rng):
        b = nn.Tensor(rng.normal(size=(4, 5)))
        gradcheck(lambda t: ((t @ b) ** 2).sum(), rng.normal(size=(2, 3, 4)))


class TestShapeOps:
    def test_reshape_and_grad(self):
        x = nn.Tensor(np.arange(6.0), requires_grad=True)
        y = x.reshape(2, 3)
        assert y.shape == (2, 3)
        (y * 2).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full(6, 2.0))

    def test_reshape_tuple_arg(self):
        assert nn.Tensor(np.zeros(6)).reshape((3, 2)).shape == (3, 2)

    def test_flatten(self):
        assert nn.Tensor(np.zeros((2, 3))).flatten().shape == (6,)

    def test_transpose_default_and_grad(self, rng):
        arr = rng.normal(size=(2, 3))
        x = nn.Tensor(arr, requires_grad=True)
        y = x.T
        np.testing.assert_array_equal(y.data, arr.T)
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_transpose_axes(self, rng):
        arr = rng.normal(size=(2, 3, 4))
        np.testing.assert_array_equal(
            nn.Tensor(arr).transpose(2, 0, 1).data, arr.transpose(2, 0, 1)
        )

    def test_transpose_negative_axes_grad_matches_positive_spelling(self, rng):
        """``(0, -1, -2)`` is ``(0, 2, 1)``: the same gradient bytes on the
        tape, and a plan of it replays the tape's bytes."""
        arr = rng.normal(size=(2, 3, 4))
        downstream = rng.normal(size=(2, 4, 3))
        grads = []
        for axes in ((0, -1, -2), (0, 2, 1)):
            x = nn.Tensor(arr.copy(), requires_grad=True)
            (x.transpose(*axes) * nn.Tensor(downstream)).sum().backward()
            grads.append(x.grad)
        assert grads[0].tobytes() == grads[1].tobytes()

        weight = nn.Parameter(arr.copy())

        def program(inputs):
            y = weight.transpose(0, -1, -2)
            return {"loss": (y * nn.Tensor(inputs["w"])).sum(), "y": y}

        planner = nn.Planner(program, name="transpose")
        for __ in range(2):
            weight.grad = None
            out = planner.step({"w": downstream})
            assert planner.last_path == "plan", planner.last_reason
            assert out["y"].tobytes() == arr.transpose(0, 2, 1).tobytes()
            assert weight.grad.tobytes() == grads[1].tobytes()

    def test_getitem_fancy_index_grad(self):
        x = nn.Tensor(np.arange(6.0), requires_grad=True)
        picked = x[np.array([0, 0, 5])]
        picked.sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 0, 0, 0, 0, 1.0])

    def test_getitem_slice_grad(self):
        x = nn.Tensor(np.arange(6.0), requires_grad=True)
        x[2:4].sum().backward()
        np.testing.assert_array_equal(x.grad, [0, 0, 1, 1, 0, 0])

    def test_pad2d_roundtrip_grad(self, gradcheck, rng):
        gradcheck(lambda t: (t.pad2d(1) ** 2).sum(), rng.normal(size=(1, 2, 3, 3)))

    def test_pad2d_zero_is_identity(self):
        x = nn.Tensor(np.ones((1, 1, 2, 2)))
        assert x.pad2d(0) is x


class TestCombinators:
    def test_concat_values_and_grads(self):
        a = nn.Tensor([1.0, 2.0], requires_grad=True)
        b = nn.Tensor([3.0], requires_grad=True)
        out = nn.concat([a, b])
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])
        (out * nn.Tensor([1.0, 2.0, 3.0])).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 2.0])
        np.testing.assert_array_equal(b.grad, [3.0])

    def test_concat_axis1(self, rng):
        a, b = rng.normal(size=(2, 2)), rng.normal(size=(2, 3))
        out = nn.concat([nn.Tensor(a), nn.Tensor(b)], axis=1)
        np.testing.assert_array_equal(out.data, np.concatenate([a, b], axis=1))

    def test_stack_values_and_grads(self):
        a = nn.Tensor([1.0, 2.0], requires_grad=True)
        b = nn.Tensor([3.0, 4.0], requires_grad=True)
        out = nn.stack([a, b])
        assert out.shape == (2, 2)
        (out * nn.Tensor([[1.0, 1.0], [2.0, 2.0]])).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])

    def test_where_values_and_grads(self):
        a = nn.Tensor([1.0, 2.0], requires_grad=True)
        b = nn.Tensor([10.0, 20.0], requires_grad=True)
        out = nn.where(np.array([True, False]), a, b)
        np.testing.assert_array_equal(out.data, [1.0, 20.0])
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 0.0])
        np.testing.assert_array_equal(b.grad, [0.0, 1.0])

    def test_zeros_ones_helpers(self):
        assert nn.zeros((2, 2)).data.sum() == 0
        assert nn.ones((2, 2)).data.sum() == 4
        assert nn.zeros(3, requires_grad=True).requires_grad

    def test_ensure_tensor_passthrough(self):
        t = nn.Tensor([1.0])
        assert nn.ensure_tensor(t) is t
        assert isinstance(nn.ensure_tensor([1.0]), nn.Tensor)
