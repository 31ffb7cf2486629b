"""Differentiable neural-network operations built on :class:`repro.nn.Tensor`.

These are the functional counterparts of the layers in
:mod:`repro.nn.modules`: convolution, pooling, normalization, activations
and the standard losses used by the paper's PPO and curiosity models.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Op, Tensor, _unbroadcast, ensure_tensor, where

__all__ = [
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "linear",
    "linear_rows",
    "softplus",
    "layer_norm",
    "channel_layer_norm",
    "relu",
    "tanh",
    "sigmoid",
    "softmax",
    "log_softmax",
    "mse_loss",
    "smooth_l1_loss",
    "cross_entropy",
    "entropy_from_logits",
    "one_hot",
    "dropout",
]


# ---------------------------------------------------------------------------
# im2col machinery for convolution: cached kernel plans
# ---------------------------------------------------------------------------
class _KernelPlan:
    """Everything shape-dependent about one (C, H, W, K, stride) im2col.

    Historically every ``conv2d``/``max_pool2d``/``avg_pool2d`` call built
    fancy-index arrays (``np.repeat``/``np.tile``/``np.arange``) and
    scattered gradients back with ``np.add.at``.  A plan, cached per shape
    key (the batch size is not part of it), replaces both:

    * :meth:`gather` — one ``np.take`` of a precomputed flat ``(C, H, W)``
      index (row ``c*K² + ki*K + kj``, column ``oh*out_w + ow``) along the
      rows of the ``(N, C*H*W)`` input, straight into C-contiguous
      ``(N, R, P)`` columns: a pure copy, so every value is the legacy
      one.  The legacy columns were an ``(R, P, N)`` buffer viewed as
      ``(N, R, P)``; the conv contractions return the same bytes on
      either layout (see :meth:`gather` for the evidence), and the
      contiguous one skips the ``moveaxis`` and runs them faster;
    * :meth:`scatter_add` — col2im as one ``np.bincount`` of the columns
      onto their flat input cells.  ``bincount`` adds each weight into its
      cell in array order, starting from +0.0; in the columns' C order
      ``(n, c, ki, kj, oh, ow)`` each cell's contributions arrive in
      ``(ki, kj)`` row-major order, the order in which ``np.add.at`` (and
      the ``K²`` strided adds that followed it) accumulated them.  Every
      cell sums the same terms in the same order from the same +0.0, so
      every gradient bit, signed zeros, NaNs and infinities included, is
      kept.  The flat targets depend on the batch size, so they are
      cached per batch size (:meth:`_plan_targets`).
    """

    __slots__ = ("kernel", "stride", "out_h", "out_w", "index", "_targets")

    def __init__(self, channels: int, height: int, width: int, kernel: int, stride: int):
        self.kernel = kernel
        self.stride = stride
        self.out_h = (height - kernel) // stride + 1
        self.out_w = (width - kernel) // stride + 1
        taps = np.arange(kernel)
        rows = (np.arange(channels)[:, None, None] * height + taps[:, None]) * width + taps
        cols = np.arange(self.out_h)[:, None] * (stride * width) + np.arange(self.out_w) * stride
        self.index = rows.reshape(-1, 1) + cols.reshape(1, -1)
        self._targets: dict = {}

    def gather(self, x_data: np.ndarray) -> np.ndarray:
        """im2col: (N, C, H, W) -> C-contiguous (N, C*K*K, out_h*out_w) columns.

        On these columns :func:`_conv_forward_contract` and
        :func:`_conv_grad_weight` return the bytes they returned on the
        legacy ``(R, P, N)``-strided view.  Measured with numpy 2.4 and
        OpenBLAS 0.3.31 on x86-64 (default core type,
        ``OPENBLAS_CORETYPE=Haswell`` and ``Prescott``): 0 differences
        over B in {1..8, 16, 40, 41, 80}, the smoke and paper trunk
        shapes and 3 seeds; ``tests/nn/test_perf_parity.py`` pins it.
        """
        return np.take(x_data.reshape(x_data.shape[0], -1), self.index, axis=1)

    def _plan_targets(self, batch: int, cells: int) -> np.ndarray:
        """Flat ``(N, C, H, W)`` cell of every column element, C order."""
        targets = self._targets.get(batch)
        if targets is None:
            # A run sees a few batch sizes; the cap only guards sweeps.
            if len(self._targets) >= 8:
                self._targets.clear()
            targets = (np.arange(batch)[:, None, None] * cells + self.index).ravel()
            self._targets[batch] = targets
        return targets

    def scatter_add(self, grad_cols: np.ndarray, x_data: np.ndarray) -> np.ndarray:
        """col2im: (N, C*K*K, P) columns onto a fresh C-contiguous (N, C, H, W)."""
        batch = x_data.shape[0]
        cells = x_data[0].size
        targets = self._plan_targets(batch, cells)
        return np.bincount(
            targets, weights=grad_cols.ravel(), minlength=batch * cells
        ).reshape(x_data.shape)


_PLAN_CACHE: dict = {}
_PLAN_CACHE_MAX = 256  # plans are tiny; the cap only guards pathological sweeps


def _plan_for(
    x_shape: Tuple[int, int, int, int], kernel: int, stride: int
) -> _KernelPlan:
    """Memoized :class:`_KernelPlan` for a padded-input shape.

    Keyed on everything the plan depends on (the batch size is not part
    of the plan).  Reads/writes on the dict are atomic under the GIL, so
    concurrent threads at worst build a duplicate plan.
    """
    __, channels, height, width = x_shape
    key = (channels, height, width, kernel, stride)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
            _PLAN_CACHE.clear()
        plan = _KernelPlan(channels, height, width, kernel, stride)
        _PLAN_CACHE[key] = plan
    return plan


def _conv_forward_contract(w_flat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Forward contraction ``(O, R) x (N, R, P) -> (N, O, P)``.

    These three contraction kernels are the frozen floating-point
    identity of ``conv2d``: its registry entry calls them, and the tape
    and the execution plan (:mod:`repro.nn.executor`) both run that
    entry.  ``matmul``/``tensordot`` route through BLAS; the legacy
    ``einsum`` spellings ran the contractions in numpy's own inner loop
    at roughly half the throughput (this re-freeze changed the low-order
    bits once, version-to-version — run-vs-run equivalence across
    backends, instruments and fast/slow paths is unaffected because
    every path shares these kernels).
    """
    return np.matmul(w_flat, cols)


def _conv_grad_weight(grad_flat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Weight-gradient contraction ``(N, O, P) x (N, R, P) -> (O, R)``.

    The transposes, reshapes and ``np.dot`` that
    ``np.tensordot(grad_flat, cols, axes=([0, 2], [0, 2]))`` runs, without
    the wrapper: the same BLAS call on the same operand layouts.
    """
    batch, out_channels, positions = grad_flat.shape
    return np.dot(
        grad_flat.transpose(1, 0, 2).reshape(out_channels, batch * positions),
        cols.transpose(0, 2, 1).reshape(batch * positions, cols.shape[1]),
    )


def _conv_grad_cols(w_flat: np.ndarray, grad_flat: np.ndarray) -> np.ndarray:
    """Column-gradient contraction ``(R, O) x (N, O, P) -> (N, R, P)``."""
    return np.matmul(w_flat.T, grad_flat)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation over a (N, C, H, W) input.

    ``weight`` has shape (out_channels, in_channels, K, K).  Implemented with
    im2col so the heavy lifting is a single matmul in both directions.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d expects a 4-D (N, C, H, W) input, got {x.shape}")
    out_channels, in_channels, kernel, kernel_w = weight.shape
    if kernel != kernel_w:
        raise ValueError("only square kernels are supported")
    if x.shape[1] != in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels but weight expects {in_channels}"
        )

    x_padded = x.pad2d(padding)
    __, __, height, width = x_padded.shape
    if height < kernel or width < kernel:
        raise ValueError(
            f"spatial size {(height, width)} smaller than kernel {kernel}"
        )
    plan = _plan_for(x_padded.shape, kernel, stride)
    parents = (x_padded, weight) if bias is None else (x_padded, weight, bias)
    return Tensor._make(CONV2D, parents, plan=plan)


def _conv2d(x, w, *bias, plan):
    # cols: (N, C*K*K, out_h*out_w), gathered via the cached plan.
    cols = plan.gather(x)
    w_flat = w.reshape(w.shape[0], -1)
    out = _conv_forward_contract(w_flat, cols)
    out = out.reshape(x.shape[0], w.shape[0], plan.out_h, plan.out_w)
    if bias:
        out = out + bias[0].reshape(1, -1, 1, 1)
    return out, (x, w.shape, cols, w_flat, plan)


def _conv2d_grad(grad, saved, needed):
    x, w_shape, cols, w_flat, plan = saved
    # grad: (N, O, out_h, out_w) -> (N, O, P)
    grad_flat = grad.reshape(x.shape[0], w_shape[0], -1)
    return (
        # col2im via one order-preserving bincount (see _KernelPlan);
        # elided entirely when the input does not require grad (conv1).
        plan.scatter_add(_conv_grad_cols(w_flat, grad_flat), x) if 0 in needed else None,
        _conv_grad_weight(grad_flat, cols).reshape(w_shape) if 1 in needed else None,
        grad.sum(axis=(0, 2, 3)) if 2 in needed else None,
    )


CONV2D = Op("conv2d", _conv2d, _conv2d_grad)


def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows of a 4-D input."""
    return Tensor._make(MAX_POOL2D, (x,), plan=_plan_for(x.shape, kernel, stride or kernel))


def _max_pool2d(x, plan):
    batch, channels = x.shape[:2]
    cols = plan.gather(x)  # (N, C*K*K, P)
    cols = cols.reshape(batch, channels, plan.kernel * plan.kernel, plan.out_h * plan.out_w)
    argmax = cols.argmax(axis=2)
    out = np.take_along_axis(cols, argmax[:, :, None, :], axis=2).squeeze(2)
    return out.reshape(batch, channels, plan.out_h, plan.out_w), (x, argmax, plan)


def _max_pool2d_grad(grad, saved, needed):
    x, argmax, plan = saved
    batch, channels = x.shape[:2]
    window = plan.kernel * plan.kernel
    grad_cols = np.zeros((batch, channels, window, plan.out_h * plan.out_w), dtype=grad.dtype)
    np.put_along_axis(
        grad_cols, argmax[:, :, None, :], grad.reshape(batch, channels, 1, -1), axis=2
    )
    grad_cols = grad_cols.reshape(batch, channels * window, -1)
    return (plan.scatter_add(grad_cols, x),)


MAX_POOL2D = Op("max_pool2d", _max_pool2d, _max_pool2d_grad)


def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling over windows of a 4-D input."""
    return Tensor._make(AVG_POOL2D, (x,), plan=_plan_for(x.shape, kernel, stride or kernel))


def _avg_pool2d(x, plan):
    batch, channels = x.shape[:2]
    cols = plan.gather(x)
    cols = cols.reshape(batch, channels, plan.kernel * plan.kernel, plan.out_h * plan.out_w)
    return cols.mean(axis=2).reshape(batch, channels, plan.out_h, plan.out_w), (x, plan)


def _avg_pool2d_grad(grad, saved, needed):
    x, plan = saved
    # Every window slot receives grad/K², added in (ki, kj) order per cell
    # by the plan's scatter.
    batch, channels = x.shape[:2]
    window = plan.kernel * plan.kernel
    scaled = (grad / window).reshape(batch, channels, 1, -1)
    grad_cols = np.broadcast_to(scaled, (batch, channels, window, scaled.shape[3]))
    return (plan.scatter_add(np.ascontiguousarray(grad_cols), x),)


AVG_POOL2D = Op("avg_pool2d", _avg_pool2d, _avg_pool2d_grad)


# ---------------------------------------------------------------------------
# Dense / normalization / activations
# ---------------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (PyTorch weight layout)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def linear_rows(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """:func:`linear` over ``(B, in)`` rows with bitwise row parity.

    OpenBLAS dgemm output depends on the row count M for small M, so a
    plain ``(B, in)`` matmul differs from its ``(1, in)`` rows in the
    last bits.  Stacked as ``(B, 1, in)`` the product is one matmul call
    that numpy runs as B independent ``M = 1`` products — the very
    kernel, on the very operands, a batch of one gets — so row ``i`` of
    the result does not depend on how many rows were stacked around it.
    """
    batch = x.shape[0]
    out = linear(x.reshape(batch, 1, x.shape[1]), weight, bias)
    return out.reshape(batch, weight.shape[0])


def layer_norm(
    x: Tensor,
    weight: Optional[Tensor] = None,
    bias: Optional[Tensor] = None,
    eps: float = 1e-5,
) -> Tensor:
    """Layer normalization over the last dimension."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normalized = (x - mu) / (var + eps).sqrt()
    if weight is not None:
        normalized = normalized * weight
    if bias is not None:
        normalized = normalized + bias
    return normalized


def _channel_layer_norm_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float):
    """:func:`channel_layer_norm`'s forward: ``(out, saved)``, where
    ``saved`` is what :func:`_channel_layer_norm_grad` reads after the
    gradient: the centred flat input, the per-sample deviation, the
    normalized map, the weight and the bias shape."""
    batch, channels = x.shape[0], x.shape[1]
    flat = x.reshape(batch, -1)
    inv = 1.0 / flat.shape[1]
    mu = flat.sum(axis=-1, keepdims=True) * inv
    c = flat - mu
    var = (c * c).sum(axis=-1, keepdims=True) * inv
    sd = np.sqrt(var + eps)
    nr = (c / sd).reshape(x.shape)
    out = nr * weight.reshape(1, channels, 1, 1)
    out += bias.reshape(1, channels, 1, 1)
    return out, (c, sd, nr, weight, bias.shape)


def _channel_layer_norm_grad(
    grad: np.ndarray, c: np.ndarray, sd: np.ndarray, nr: np.ndarray,
    weight: np.ndarray, bias_shape: Tuple[int, ...],
):
    """``(g_x, g_weight, g_bias)`` of :func:`channel_layer_norm`.

    Each step is the gradient of one node of the historical composition,
    with the same per-element operations and the same reductions (axes,
    layout, grouping).  A ``(B, 1)`` term is broadcast inside the
    elementwise op that consumes it instead of being materialized at
    ``(B, n)`` first (each element sees the same operands), and the two
    identical ``sq = c * c`` contributions are one array added to itself.
    """
    channels = grad.shape[1]
    inv = 1.0 / c.shape[1]
    w_r = weight.reshape(1, channels, 1, 1)
    # out = nr * w_r + b_r
    g_bias = _unbroadcast(grad, (1, channels, 1, 1)).reshape(bias_shape)
    g_weight = _unbroadcast(grad * nr, (1, channels, 1, 1)).reshape(weight.shape)
    g_nrm = (grad * w_r).reshape(c.shape)
    # nrm = c / sd; sd = sqrt(var + eps)
    g_fm = g_nrm / sd
    g_sd = np.negative(g_nrm)
    g_sd *= c
    g_sd /= sd ** 2
    g_var = _unbroadcast(g_sd, sd.shape) * 0.5 / sd
    # var = sq.sum() * inv; sq = c * c stages two identical contributions,
    # added pairwise (not 2 * t: the grouping is part of the contract).
    g_c = (g_var * inv) * c
    g_c += g_c
    # c = flat - mu2 and fm = flat - mu; mu = flat.sum() * inv each.
    s2 = _unbroadcast(-g_c, sd.shape) * inv
    s1 = _unbroadcast(-g_fm, sd.shape) * inv
    # The tape's staging order for the flat input's four children.
    g_flat = g_fm + s1
    g_flat += g_c
    g_flat += s2
    return g_flat.reshape(grad.shape), g_weight, g_bias


def channel_layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Fused layer norm over (C, H, W) of an (N, C, H, W) map.

    Fuses the twelve-node composition ``ChannelLayerNorm.forward``
    historically built on the tape — flatten, mean, var (which recomputes
    the mean), center, divide, un-flatten, per-channel affine — into one
    tape node with raw numpy inside.  The contract is *bitwise*
    equivalence with that composition, forward and backward; both
    directions are array kernels (:func:`_channel_layer_norm_forward`,
    :func:`_channel_layer_norm_grad`) behind the op's registry entry, which
    the tape and the execution plan both run.  Forward replays the composed
    graph's numpy op sequence (the variance path's duplicate mean and the
    ``flat - mu`` recomputation share bits with the primary ones, so each
    is computed once).  Backward replays every composed op's gradient and
    folds the four contributions to the flattened input in the tape's
    reverse-topological staging order ``((g_fm + g_s1) + g_c) + g_s2``.
    FP addition commutes (only associativity fails), so the order within
    each pairwise add is immaterial; the *grouping* is not.
    """
    if x.ndim != 4:
        raise ValueError(f"channel_layer_norm expects 4-D input, got {x.shape}")
    return Tensor._make(CHANNEL_LAYER_NORM, (x, weight, bias), eps=eps)


# The grad is looked up at call time, so a wrapper around the module-level
# ``_channel_layer_norm_grad`` sees every call, taped or planned.
CHANNEL_LAYER_NORM = Op(
    "channel_layer_norm",
    _channel_layer_norm_forward,
    lambda grad, saved, needed: _channel_layer_norm_grad(grad, *saved),
)


def softplus(x: Tensor) -> Tensor:
    """``log(1 + exp(x))`` with the exact gradient ``sigmoid(x)``.

    Computed via ``logaddexp`` for stability; a primitive op (rather than a
    ``maximum``-based composition) so the gradient is smooth at 0, where
    freshly initialized policy logits live.
    """
    return Tensor._make(SOFTPLUS, (x,))


def _softplus_grad(grad, x, needed):
    # exp may overflow to inf for very negative inputs; 1/(1+inf) = 0 is
    # exactly the right limit, so only the warning needs suppressing.
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-x))
    return (grad * sig,)


SOFTPLUS = Op("softplus", lambda x: (np.logaddexp(0.0, x), x), _softplus_grad)


def relu(x: Tensor) -> Tensor:
    return x.relu()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def _shifted_exp(
    x_data: np.ndarray, axis: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One max-shifted exponential pass shared by the softmax family.

    Returns ``(shifted, e, s)`` with ``shifted = x - max(x)``,
    ``e = exp(shifted)`` and ``s = Σe`` — computed exactly as the
    historical tensor-op compositions did — so ``softmax``,
    ``log_softmax`` and ``entropy_from_logits`` each run a single pass
    over the logits instead of re-deriving the shift per call.
    """
    shifted = x_data - x_data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=axis, keepdims=True)


def _softmax_grad(grad: np.ndarray, e: np.ndarray, s: np.ndarray, axis: int) -> np.ndarray:
    """Softmax backward, replaying the ``e / Σe`` composition's gradient.

    Div pushes ``grad / s`` into ``e`` and the quotient term into ``s``;
    ``s``'s sum-backward broadcasts back over ``e``; exp scales by ``e``.
    Staged additions happen in exactly this order.  The softmax and
    entropy entries call it (as they do :func:`_log_softmax_grad`).
    """
    a = grad / s
    v = (-grad * e) / (s ** 2)
    c = np.broadcast_to(v.sum(axis=axis, keepdims=True), e.shape).copy()
    return (a + c) * e


def _log_softmax_grad(grad: np.ndarray, e: np.ndarray, s: np.ndarray, axis: int) -> np.ndarray:
    """Log-softmax backward: ``grad + softmax(x) * Σ(-grad)``, sequenced
    like the ``shifted - log(Σ exp)`` composition."""
    gl = (-grad).sum(axis=axis, keepdims=True)
    t = np.broadcast_to(gl / s, e.shape).copy()
    return grad + t * e


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (fused primitive).

    The backward replays, operation for operation, the gradient the old
    ``exp / exp.sum()`` tensor composition produced — same intermediate
    arrays, same accumulation order — so fusing is bitwise invisible to
    training.
    """
    return Tensor._make(SOFTMAX, (x,), axis=axis)


def _softmax(x, axis):
    __, e, s = _shifted_exp(x, axis)
    return e / s, (e, s, axis)


def _log_softmax(x, axis):
    shifted, e, s = _shifted_exp(x, axis)
    return shifted - np.log(s), (e, s, axis)


SOFTMAX = Op("softmax", _softmax, lambda grad, saved, needed: (_softmax_grad(grad, *saved),))
LOG_SOFTMAX = Op(
    "log_softmax", _log_softmax, lambda grad, saved, needed: (_log_softmax_grad(grad, *saved),)
)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis`` (fused primitive).

    Shares the shifted-exp pass with :func:`softmax` and uses the
    closed-form backward ``grad + softmax(x) * Σ(-grad)`` sequenced to
    match the historical ``shifted - log(Σ exp)`` composition bitwise.
    """
    return Tensor._make(LOG_SOFTMAX, (x,), axis=axis)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------
def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error; the target is detached from the graph."""
    target = ensure_tensor(target).detach()
    diff = prediction - target
    return (diff * diff).mean()


def smooth_l1_loss(prediction: Tensor, target: Tensor, beta: float = 1.0) -> Tensor:
    """Huber loss: quadratic within ``beta``, linear outside."""
    target = ensure_tensor(target).detach()
    diff = prediction - target
    abs_diff = diff.abs()
    quadratic = (diff * diff) * (0.5 / beta)
    linear_part = abs_diff - 0.5 * beta
    return where(abs_diff.data < beta, quadratic, linear_part).mean()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy from raw logits against integer class targets."""
    targets = np.asarray(targets, dtype=np.int64)
    logp = log_softmax(logits, axis=-1)
    # Not a planned hot op: cross_entropy only backs the ICM baseline's
    # inverse-model loss (one small (B, 9) batch per update), never the
    # conv/pool paths, so a per-call row index is fine here.
    rows = np.arange(logp.shape[0])  # reprolint: disable=RPL010
    picked = logp[rows, targets]
    return -picked.mean()


def entropy_from_logits(logits: Tensor, axis: int = -1) -> Tensor:
    """Shannon entropy of the categorical distribution given by ``logits``.

    Fused: the historical ``-(softmax * log_softmax).sum()`` composition
    ran the max/exp/sum reduction four times per call; this primitive
    runs it once and shares ``e``/``s`` between both factors.  The
    backward replays the composed graph's gradient bit for bit.  The
    old tape attached *two* children to ``logits`` (the softmax shift
    and the log-softmax shift) whose contributions were staged as
    separate floating-point additions — and when the PPO loss also
    consumes the same logits through ``log_prob``, that grouping is
    visible in the final bits: ``(c_lp + c_soft) + c_logsoft`` is not
    ``c_lp + (c_soft + c_logsoft)``.  Registering ``logits`` as a parent
    twice and returning the branch gradients separately reproduces the
    exact staging order of the composition.
    """
    return Tensor._make(ENTROPY_FROM_LOGITS, (logits, logits), axis=axis)


def _entropy_from_logits(x, __, axis):
    shifted, e, s = _shifted_exp(x, axis)
    logp = shifted - np.log(s)
    p = e / s
    return -(p * logp).sum(axis=axis), (e, s, logp, p, axis)


def _entropy_from_logits_grad(grad, saved, needed):
    e, s, logp, p, axis = saved
    gmul = np.broadcast_to(np.expand_dims(-grad, axis=axis), p.shape).copy()
    # The softmax branch is staged first by the composed tape, then
    # the log-softmax branch.
    return (
        _softmax_grad(gmul * logp, e, s, axis) if 0 in needed else None,
        _log_softmax_grad(gmul * p, e, s, axis) if 1 in needed else None,
    )


ENTROPY_FROM_LOGITS = Op(
    "entropy_from_logits", _entropy_from_logits, _entropy_from_logits_grad
)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer array along a new trailing axis."""
    indices = np.asarray(indices, dtype=np.int64)
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    if np.any(indices < 0) or np.any(indices >= num_classes):
        raise IndexError(
            f"indices out of range [0, {num_classes}): "
            f"min={indices.min()}, max={indices.max()}"
        )
    out = np.zeros(indices.shape + (num_classes,))
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def dropout(
    x: Tensor, p: float, rng: np.random.Generator, training: bool = True
) -> Tensor:
    """Inverted dropout: zero each element with probability ``p``.

    Surviving elements are scaled by ``1/(1-p)`` so the expectation is
    unchanged; a no-op when ``training`` is False or ``p == 0``.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    return Tensor._make(DROPOUT, (x,), keep=keep)


DROPOUT = Op(
    "dropout", lambda x, keep: (x * keep, keep), lambda grad, keep, needed: (grad * keep,)
)
