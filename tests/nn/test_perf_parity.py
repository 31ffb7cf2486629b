"""Parity gates for the optimized hot paths in :mod:`repro.nn.functional`.

The optimizations (cached kernel plans whose im2col is one ``np.take`` of
a precomputed flat index into contiguous ``(N, R, P)`` columns and whose
col2im is one ordered ``np.bincount``, the fused softmax family and
channel layer norm, ``no_grad`` tape elision) all promise *bitwise*
equivalence with the code they replaced.
These tests pin that promise three ways:

* against the **legacy implementation** (fancy-index im2col + ``np.add.at``
  scatter, composed softmax graphs) re-created locally, byte for byte;
* against a **naive reference** (quadruple-loop convolution) numerically;
* against **finite differences** for the analytic gradients.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.functional import _KernelPlan, _PLAN_CACHE, _plan_for
from repro.nn.tensor import Tensor


# ---------------------------------------------------------------------------
# Legacy im2col machinery (the seed implementation, kept as the oracle)
# ---------------------------------------------------------------------------
def legacy_im2col_indices(x_shape, kernel, stride):
    __, channels, height, width = x_shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    i0 = np.repeat(np.arange(kernel), kernel)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel), kernel * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel * kernel).reshape(-1, 1)
    return k, i, j


def legacy_gather(x_data, kernel, stride):
    k_idx, i_idx, j_idx = legacy_im2col_indices(x_data.shape, kernel, stride)
    return x_data[:, k_idx, i_idx, j_idx]


def legacy_scatter(grad_cols, x_data, kernel, stride):
    k_idx, i_idx, j_idx = legacy_im2col_indices(x_data.shape, kernel, stride)
    grad_x = np.zeros_like(x_data)
    np.add.at(grad_x, (slice(None), k_idx, i_idx, j_idx), grad_cols)
    return grad_x


def legacy_conv_forward(w_flat, legacy_cols):
    """The forward contraction on the legacy strided columns."""
    return np.matmul(w_flat, legacy_cols)


def legacy_conv_grad_weight(grad_flat, legacy_cols):
    """The weight-gradient contraction as it was spelled, on the legacy
    strided columns."""
    return np.tensordot(grad_flat, legacy_cols, axes=([0, 2], [0, 2]))


def strided_scatter(grad_cols, x_data, kernel, stride):
    """An earlier col2im: K² strided ``+=`` straight onto (N, C, H, W)."""
    batch, channels, height, width = x_data.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    grad_x = np.zeros_like(x_data)
    windows = grad_cols.reshape(batch, channels, kernel, kernel, out_h, out_w)
    for ki in range(kernel):
        for kj in range(kernel):
            grad_x[
                :, :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride
            ] += windows[:, :, ki, kj]
    return grad_x


def naive_conv2d(x, weight, bias=None, stride=1, padding=0):
    """Reference cross-correlation: explicit loops, no im2col."""
    batch, in_channels, height, width = x.shape
    out_channels, __, kernel, __ = weight.shape
    padded = np.zeros((batch, in_channels, height + 2 * padding, width + 2 * padding))
    padded[:, :, padding : padding + height, padding : padding + width] = x
    out_h = (padded.shape[2] - kernel) // stride + 1
    out_w = (padded.shape[3] - kernel) // stride + 1
    out = np.zeros((batch, out_channels, out_h, out_w))
    for n in range(batch):
        for o in range(out_channels):
            for oh in range(out_h):
                for ow in range(out_w):
                    patch = padded[
                        n,
                        :,
                        oh * stride : oh * stride + kernel,
                        ow * stride : ow * stride + kernel,
                    ]
                    out[n, o, oh, ow] = np.sum(patch * weight[o])
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


SWEEP = [
    (stride, padding, spatial)
    for stride in (1, 2)
    for padding in (0, 1, 2)
    for spatial in ((6, 6), (7, 9), (5, 8))
]

# (channels, padded side, stride) of the CNN trunk's three 3x3 convs on
# the smoke (8x8) and paper (16x16) grids, at every acting batch of up to
# eight rows, the smoke minibatch and twice it.
TRUNK = [(3, 10, 1), (8, 10, 2), (16, 6, 2)]
PAPER_TRUNK = [(3, 18, 1), (8, 18, 2), (16, 10, 2)]
BATCHES = (1, 2, 3, 4, 5, 6, 7, 8, 40, 80)
TRUNK_SWEEP = [
    (batch,) + shape for batch in BATCHES for shape in TRUNK + PAPER_TRUNK
]
#: Output channels of the trunk conv reading ``channels`` input channels.
TRUNK_OUT = {3: 8, 8: 16, 16: 16}


def with_specials(values, rng):
    """``values`` with about a third of its entries replaced by -0.0, +inf,
    -inf or NaN, and one whole row of -0.0."""
    values = values.copy()
    specials = np.array([-0.0, np.inf, -np.inf, np.nan])
    mask = rng.random(values.shape) < 0.3
    values[mask] = rng.choice(specials, size=int(mask.sum()))
    values[:, 0] = -0.0
    return values


class TestConv2dSweep:
    @pytest.mark.parametrize("stride,padding,spatial", SWEEP)
    def test_forward_matches_naive_loop(self, stride, padding, spatial):
        rng = np.random.default_rng(11)
        height, width = spatial
        x = rng.normal(size=(2, 3, height, width))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        expected = naive_conv2d(x, w, b, stride=stride, padding=padding)
        got = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got.data, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("stride,padding,spatial", SWEEP)
    def test_gather_bitwise_matches_legacy_index_gather(self, stride, padding, spatial):
        rng = np.random.default_rng(7)
        height, width = spatial
        height, width = height + 2 * padding, width + 2 * padding
        x = rng.normal(size=(2, 3, height, width))
        plan = _plan_for(x.shape, 3, stride)
        new = plan.gather(x)
        old = legacy_gather(x, 3, stride)
        assert new.shape == old.shape
        assert new.flags.c_contiguous
        assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("stride,padding,spatial", SWEEP)
    def test_scatter_bitwise_matches_add_at(self, stride, padding, spatial):
        rng = np.random.default_rng(13)
        height, width = spatial
        height, width = height + 2 * padding, width + 2 * padding
        x = np.zeros((2, 3, height, width))
        plan = _plan_for(x.shape, 3, stride)
        grad_cols = rng.normal(
            size=(2, 3 * 3 * 3, plan.out_h * plan.out_w)
        )
        new = plan.scatter_add(grad_cols, x)
        old = legacy_scatter(grad_cols, x, 3, stride)
        assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("batch,channels,side,stride", TRUNK_SWEEP)
    def test_trunk_gather_bitwise_with_legacy_strides(self, batch, channels, side, stride):
        """The columns are C-contiguous ``(N, R, P)`` with the legacy bytes,
        and both contractions return on them the bytes they return on the
        legacy ``(R, P, N)``-strided view, on plain and on special values."""
        rng = np.random.default_rng(17)
        plain = rng.normal(size=(batch, channels, side, side))
        out_channels = TRUNK_OUT[channels]
        w_flat = rng.normal(size=(out_channels, channels * 9))
        plan = _plan_for(plain.shape, 3, stride)
        plain_grad = rng.normal(size=(batch, out_channels, plan.out_h * plan.out_w))
        cases = [(plain, plain_grad), (with_specials(plain, rng), with_specials(plain_grad, rng))]
        for x, grad in cases:
            new = plan.gather(x)
            old = legacy_gather(x, 3, stride)
            assert new.flags.c_contiguous
            assert new.shape == old.shape
            assert new.tobytes() == old.tobytes()
            assert not old.flags.c_contiguous or batch == 1
            with np.errstate(invalid="ignore"):
                pairs = [
                    (F._conv_forward_contract(w_flat, new), legacy_conv_forward(w_flat, old)),
                    (F._conv_grad_weight(grad, new), legacy_conv_grad_weight(grad, old)),
                ]
            for got, want in pairs:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch,channels,side,stride", TRUNK_SWEEP)
    def test_trunk_scatter_bitwise_with_special_values(self, batch, channels, side, stride):
        rng = np.random.default_rng(19)
        x = np.zeros((batch, channels, side, side))
        plan = _plan_for(x.shape, 3, stride)
        grad_cols = with_specials(
            rng.normal(size=(batch, channels * 9, plan.out_h * plan.out_w)), rng
        )
        with np.errstate(invalid="ignore"):
            new = plan.scatter_add(grad_cols, x)
            previous = strided_scatter(grad_cols, x, 3, stride)
            old = legacy_scatter(grad_cols, x, 3, stride)
        assert new.flags.c_contiguous
        assert new.shape == x.shape
        assert new.tobytes() == previous.tobytes()
        # np.add.at sums the same terms in the same order; only which NaN
        # survives where two NaNs of opposite sign meet may differ from it.
        nan = np.isnan(old)
        assert np.array_equal(np.isnan(new), nan)
        assert new[~nan].tobytes() == old[~nan].tobytes()

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_gradients_match_finite_differences(self, stride, padding):
        rng = np.random.default_rng(5)
        x_data = rng.normal(size=(1, 2, 6, 6))
        w_data = rng.normal(size=(3, 2, 3, 3))
        b_data = rng.normal(size=3)

        def loss_of(x_arr, w_arr, b_arr):
            out = F.conv2d(
                Tensor(x_arr), Tensor(w_arr), Tensor(b_arr),
                stride=stride, padding=padding,
            )
            return float((out * out).sum().item())

        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        out = F.conv2d(x, w, b, stride=stride, padding=padding)
        (out * out).sum().backward()

        eps = 1e-6
        for tensor, arr in ((x, x_data), (w, w_data), (b, b_data)):
            flat = arr.reshape(-1)
            grad = tensor.grad.reshape(-1)
            for idx in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                bumped = flat.copy()
                bumped[idx] += eps
                plus = loss_of(
                    *(bumped.reshape(arr.shape) if a is arr else a
                      for a in (x_data, w_data, b_data))
                )
                bumped[idx] -= 2 * eps
                minus = loss_of(
                    *(bumped.reshape(arr.shape) if a is arr else a
                      for a in (x_data, w_data, b_data))
                )
                numeric = (plus - minus) / (2 * eps)
                assert grad[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-6)


class TestPoolingParity:
    @pytest.mark.parametrize("kernel,stride", [(2, 2), (2, 1), (3, 2)])
    def test_max_pool_forward_backward_bitwise(self, kernel, stride):
        rng = np.random.default_rng(3)
        x_data = rng.normal(size=(2, 3, 7, 8))

        # Legacy path: index gather + argmax + put_along_axis + add.at.
        x = Tensor(x_data, requires_grad=True)
        out = F.max_pool2d(x, kernel, stride)
        out.sum().backward()

        cols = legacy_gather(x_data, kernel, stride)
        batch = x_data.shape[0]
        channels = x_data.shape[1]
        out_h = (x_data.shape[2] - kernel) // stride + 1
        out_w = (x_data.shape[3] - kernel) // stride + 1
        ref_cols = cols.reshape(batch, channels, kernel * kernel, out_h * out_w)
        argmax = ref_cols.argmax(axis=2)
        expected = np.take_along_axis(
            ref_cols, argmax[:, :, None, :], axis=2
        ).squeeze(2).reshape(batch, channels, out_h, out_w)
        assert out.data.tobytes() == expected.tobytes()

        grad_cols = np.zeros((batch, channels, kernel * kernel, out_h * out_w))
        np.put_along_axis(
            grad_cols, argmax[:, :, None, :],
            np.ones((batch, channels, 1, out_h * out_w)), axis=2,
        )
        expected_grad = legacy_scatter(
            grad_cols.reshape(batch, channels * kernel * kernel, -1), x_data,
            kernel, stride,
        )
        assert x.grad.tobytes() == expected_grad.tobytes()

    def test_avg_pool_backward_bitwise(self):
        rng = np.random.default_rng(4)
        x_data = rng.normal(size=(2, 2, 6, 6))
        x = Tensor(x_data, requires_grad=True)
        F.avg_pool2d(x, 2).sum().backward()

        window = 4
        grad_cols = np.repeat(
            np.ones((2, 2, 1, 9)) / window, window, axis=2
        ).reshape(2, 2 * window, -1)
        expected = legacy_scatter(grad_cols, x_data, 2, 2)
        assert x.grad.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kernel,stride", [(2, 1), (3, 1), (3, 2)])
    def test_avg_pool_overlapping_backward_bitwise_with_specials(self, kernel, stride):
        """Overlapping windows: each cell adds grad/K² once per window in
        (ki, kj) order, as the earlier per-offset strided adds did."""
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 2, 7, 8)), requires_grad=True)
        out = F.avg_pool2d(x, kernel, stride)
        downstream = with_specials(rng.normal(size=out.shape), rng)
        with np.errstate(invalid="ignore"):
            out.backward(downstream)
            window = kernel * kernel
            grad_cols = np.repeat(
                (downstream / window).reshape(3, 2, 1, -1), window, axis=2
            ).reshape(3, 2 * window, -1)
            expected = strided_scatter(grad_cols, x.data, kernel, stride)
        assert x.grad.tobytes() == expected.tobytes()


class TestPlanCache:
    def test_plans_are_reused_per_shape_key(self):
        _PLAN_CACHE.clear()
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        F.conv2d(x, w, stride=1, padding=1)
        first = dict(_PLAN_CACHE)
        F.conv2d(x, w, stride=1, padding=1)
        assert dict(_PLAN_CACHE) == first  # same plan object, no rebuild
        key = (3, 10, 10, 3, 1)  # padded shape
        assert key in _PLAN_CACHE
        assert isinstance(_PLAN_CACHE[key], _KernelPlan)

    def test_cache_cap_clears_instead_of_growing_unbounded(self):
        _PLAN_CACHE.clear()
        try:
            for idx in range(F._PLAN_CACHE_MAX + 3):
                _plan_for((1, 1, 8 + idx, 8 + idx), 3, 1)
            assert len(_PLAN_CACHE) <= F._PLAN_CACHE_MAX
        finally:
            _PLAN_CACHE.clear()

    def test_batch_size_not_part_of_key(self):
        _PLAN_CACHE.clear()
        a = _plan_for((1, 3, 8, 8), 3, 1)
        b = _plan_for((64, 3, 8, 8), 3, 1)
        assert a is b


# ---------------------------------------------------------------------------
# Fused softmax family vs the composed autograd graphs they replaced
# ---------------------------------------------------------------------------
def composed_softmax(x, axis=-1):
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def composed_log_softmax(x, axis=-1):
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def composed_entropy(logits, axis=-1):
    logp = composed_log_softmax(logits, axis=axis)
    p = composed_softmax(logits, axis=axis)
    return -(p * logp).sum(axis=axis)


class TestFusedSoftmaxFamily:
    @pytest.mark.parametrize("shape,axis", [((5, 9), -1), ((2, 4, 9), -1), ((6, 3), 0)])
    def test_softmax_forward_and_grad_bitwise(self, shape, axis):
        rng = np.random.default_rng(21)
        data = rng.normal(size=shape) * 3.0
        grad_seed = rng.normal(size=shape)

        x_new = Tensor(data, requires_grad=True)
        out_new = F.softmax(x_new, axis=axis)
        (out_new * Tensor(grad_seed)).sum().backward()

        x_old = Tensor(data, requires_grad=True)
        out_old = composed_softmax(x_old, axis=axis)
        (out_old * Tensor(grad_seed)).sum().backward()

        assert out_new.data.tobytes() == out_old.data.tobytes()
        assert x_new.grad.tobytes() == x_old.grad.tobytes()

    @pytest.mark.parametrize("shape,axis", [((5, 9), -1), ((2, 4, 9), -1), ((6, 3), 0)])
    def test_log_softmax_forward_and_grad_bitwise(self, shape, axis):
        rng = np.random.default_rng(22)
        data = rng.normal(size=shape) * 3.0
        grad_seed = rng.normal(size=shape)

        x_new = Tensor(data, requires_grad=True)
        (F.log_softmax(x_new, axis=axis) * Tensor(grad_seed)).sum().backward()

        x_old = Tensor(data, requires_grad=True)
        (composed_log_softmax(x_old, axis=axis) * Tensor(grad_seed)).sum().backward()

        assert x_new.grad.tobytes() == x_old.grad.tobytes()

    @pytest.mark.parametrize("shape,axis", [((5, 9), -1), ((2, 4, 9), -1)])
    def test_entropy_forward_and_grad_bitwise(self, shape, axis):
        rng = np.random.default_rng(23)
        data = rng.normal(size=shape) * 2.0

        x_new = Tensor(data, requires_grad=True)
        out_new = F.entropy_from_logits(x_new, axis=axis)
        out_new.sum().backward()

        x_old = Tensor(data, requires_grad=True)
        out_old = composed_entropy(x_old, axis=axis)
        out_old.sum().backward()

        assert out_new.data.tobytes() == out_old.data.tobytes()
        assert x_new.grad.tobytes() == x_old.grad.tobytes()

    def test_shared_consumer_grads_bitwise(self):
        """The PPO pattern: log-prob pick AND entropy from the same logits.

        The composed entropy staged its softmax-branch and log-softmax-
        branch contributions as *separate* floating-point additions into
        the shared logits' gradient, interleaved with the log-prob
        contribution.  The fused op must register its parent twice to
        replay that exact accumulation order — this test locks it in.
        """
        rng = np.random.default_rng(24)
        data = rng.normal(size=(10, 9)) * 2.0
        picks = rng.integers(0, 9, size=10)
        rows = np.arange(10)

        def loss_new(x):
            logp = F.log_softmax(x, axis=-1)
            picked = logp[rows, picks]
            entropy = F.entropy_from_logits(x, axis=-1)
            return picked.mean() - 0.01 * entropy.mean()

        def loss_old(x):
            logp = composed_log_softmax(x, axis=-1)
            picked = logp[rows, picks]
            entropy = composed_entropy(x, axis=-1)
            return picked.mean() - 0.01 * entropy.mean()

        x_new = Tensor(data, requires_grad=True)
        loss_new(x_new).backward()
        x_old = Tensor(data, requires_grad=True)
        loss_old(x_old).backward()

        assert x_new.grad.tobytes() == x_old.grad.tobytes()


# ---------------------------------------------------------------------------
# no_grad semantics
# ---------------------------------------------------------------------------
class TestNoGrad:
    def test_values_identical_tape_elided(self):
        rng = np.random.default_rng(31)
        data = rng.normal(size=(4, 9))
        x = Tensor(data, requires_grad=True)

        taped = F.softmax(x) @ Tensor(rng.normal(size=(9, 3)))
        with nn.no_grad():
            untaped = F.softmax(x) @ Tensor(rng.normal(size=(9, 3)))
        # Re-seed to reproduce the same weight draw.
        rng = np.random.default_rng(31)
        rng.normal(size=(4, 9))
        w = Tensor(rng.normal(size=(9, 3)))
        with nn.no_grad():
            again = F.softmax(x) @ w

        assert taped.requires_grad
        assert not untaped.requires_grad
        assert untaped._parents == ()
        assert untaped._op is None
        assert again.data.tobytes() == taped.data.tobytes()

    def test_nesting_and_restore(self):
        assert nn.is_grad_enabled()
        with nn.no_grad():
            assert not nn.is_grad_enabled()
            with nn.no_grad():
                assert not nn.is_grad_enabled()
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with nn.no_grad():
                raise RuntimeError("boom")
        assert nn.is_grad_enabled()

    def test_thread_local(self):
        import threading

        seen = {}

        def worker():
            seen["worker"] = nn.is_grad_enabled()

        with nn.no_grad():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["worker"] is True  # other threads unaffected

    def test_backward_through_no_grad_output_raises(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with nn.no_grad():
            out = (x * 2.0).sum()
        # The output is detached from the tape: backward() refuses, the
        # same error a plain non-grad tensor raises.
        with pytest.raises(RuntimeError, match="does not require grad"):
            out.backward()
        assert x.grad is None

    def test_leaf_requires_grad_survives(self):
        with nn.no_grad():
            x = Tensor(np.ones(3), requires_grad=True)
        assert x.requires_grad  # explicit leaves are unaffected
        (x * 2.0).sum().backward()
        assert x.grad is not None


# ---------------------------------------------------------------------------
# Fused channel layer norm
# ---------------------------------------------------------------------------
def composed_channel_layer_norm(x, weight, bias, eps=1e-5):
    """The historical ChannelLayerNorm.forward composition, node for node."""
    batch = x.shape[0]
    channels = weight.shape[0]
    flat = x.reshape(batch, -1)
    mu = flat.mean(axis=-1, keepdims=True)
    var = flat.var(axis=-1, keepdims=True)
    normalized = (flat - mu) / (var + eps).sqrt()
    normalized = normalized.reshape(*x.shape)
    scale = weight.reshape(1, channels, 1, 1)
    shift = bias.reshape(1, channels, 1, 1)
    return normalized * scale + shift


class TestFusedChannelLayerNorm:
    """The fused (C, H, W) layer norm is bitwise-identical to the
    twelve-node composition it replaced — forward and gradients, with the
    input both as a leaf and as an interior (conv-output-like) node."""

    SHAPES = [(8, 8, 8, 8), (16, 16, 4, 4), (3, 16, 5, 7), (1, 8, 2, 2)] + [
        (batch,) + trunk
        for batch in (40, 1)
        for trunk in ((8, 8, 8), (16, 4, 4), (16, 2, 2))
    ]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_bitwise(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        channels = shape[1]
        x_data = rng.normal(size=shape)
        w_data = rng.normal(size=channels) + 1.0
        b_data = rng.normal(size=channels)
        fused = F.channel_layer_norm(
            Tensor(x_data.copy()), Tensor(w_data.copy()), Tensor(b_data.copy())
        )
        composed = composed_channel_layer_norm(
            Tensor(x_data.copy()), Tensor(w_data.copy()), Tensor(b_data.copy())
        )
        assert fused.data.tobytes() == composed.data.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_backward_bitwise_interior_input(self, shape):
        # The CNN applies the norm to conv outputs (interior tape nodes);
        # the grouping of the four input-gradient contributions only
        # matters there, so that is what the parity drives.
        rng = np.random.default_rng(1 + hash(shape) % 2**32)
        channels = shape[1]
        y_data = rng.normal(size=shape)
        w_data = rng.normal(size=channels) + 1.0
        b_data = rng.normal(size=channels)
        downstream = rng.normal(size=shape)

        results = []
        for fn in (
            lambda x, w, b: F.channel_layer_norm(x, w, b),
            composed_channel_layer_norm,
        ):
            y = Tensor(y_data.copy(), requires_grad=True)
            w = Tensor(w_data.copy(), requires_grad=True)
            b = Tensor(b_data.copy(), requires_grad=True)
            x = y * 1.0  # interior node, like a conv output
            out = fn(x, w, b)
            (out * downstream).sum().backward()
            results.append((y.grad.copy(), w.grad.copy(), b.grad.copy()))
        for got, want in zip(results[0], results[1]):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(40, 16, 4, 4), (1, 8, 8, 8)])
    def test_backward_bitwise_with_negative_zero_downstream(self, shape):
        rng = np.random.default_rng(23)
        channels = shape[1]
        y_data = rng.normal(size=shape)
        w_data = rng.normal(size=channels) + 1.0
        b_data = rng.normal(size=channels)
        downstream = rng.normal(size=shape)
        downstream[rng.random(shape) < 0.5] = -0.0
        downstream[0, 0] = -0.0

        results = []
        for fn in (
            lambda x, w, b: F.channel_layer_norm(x, w, b),
            composed_channel_layer_norm,
        ):
            y = Tensor(y_data.copy(), requires_grad=True)
            w = Tensor(w_data.copy(), requires_grad=True)
            b = Tensor(b_data.copy(), requires_grad=True)
            out = fn(y * 1.0, w, b)
            out.backward(downstream)
            results.append((y.grad.copy(), w.grad.copy(), b.grad.copy()))
        for got, want in zip(results[0], results[1]):
            assert got.tobytes() == want.tobytes()

    def test_plan_kernel_and_tape_op_share_one_grad(self, monkeypatch):
        """The tape op's backward and the execution plan's layer-norm
        record both run ``functional._channel_layer_norm_grad``."""
        calls = []
        original = F._channel_layer_norm_grad

        def counting(*args):
            calls.append(len(args))
            return original(*args)

        monkeypatch.setattr(F, "_channel_layer_norm_grad", counting)
        rng = np.random.default_rng(29)
        scale = nn.Parameter(rng.normal(size=(1, 8, 1, 1)))
        weight = nn.Parameter(rng.normal(size=8) + 1.0)
        bias = nn.Parameter(rng.normal(size=8))
        downstream = rng.normal(size=(4, 8, 3, 3))

        def program(inputs):
            out = F.channel_layer_norm(Tensor(inputs["x"]) * scale, weight, bias)
            return {"loss": (out * Tensor(inputs["downstream"])).sum()}

        planner = nn.Planner(program, name="layer-norm")
        inputs = {"x": rng.normal(size=(4, 8, 3, 3)), "downstream": downstream}
        for __ in range(2):
            for p in (scale, weight, bias):
                p.grad = None
            planner.step(inputs)
            assert planner.last_path == "plan", planner.last_reason
        # Build: one tape backward, one validating replay; then one replay.
        assert len(calls) == 3

    def test_module_uses_fused_op(self):
        norm = nn.ChannelLayerNorm(8)
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 8, 6, 6)), requires_grad=True)
        out = norm.forward(x)
        reference = composed_channel_layer_norm(
            Tensor(x.data.copy()), Tensor(norm.weight.data.copy()),
            Tensor(norm.bias.data.copy()),
        )
        assert out.data.tobytes() == reference.data.tobytes()
        # Fused: one tape node between input and output.
        assert out._parents[0] is x

    def test_rejects_non_4d(self):
        with pytest.raises(ValueError, match="4-D"):
            F.channel_layer_norm(Tensor(np.ones((3, 4))), Tensor(np.ones(4)), Tensor(np.ones(4)))
