"""Reverse-mode automatic differentiation on top of numpy arrays.

This module is the foundation of :mod:`repro.nn`.  It provides a
:class:`Tensor` wrapper around ``numpy.ndarray`` that records the operations
applied to it and can compute gradients of a scalar loss with respect to any
participating tensor via :meth:`Tensor.backward`.

The design follows the classic define-by-run tape:

* every differentiable op is one :class:`Op` registry entry — a name, an
  array-level ``forward`` and an array-level ``backward`` — and every op
  output is a new :class:`Tensor` whose ``_parents`` point at its inputs
  and whose ``_op``/``_saved`` know how to push the output gradient back
  to those inputs;
* :meth:`Tensor.backward` topologically sorts the graph reachable from the
  loss and runs the entries' backwards in reverse order, accumulating into
  ``tensor.grad``.

The execution planner (:mod:`repro.nn.executor`) replays the same entries
on frame slots, so each op's numpy math is written once.

Gradients are plain ``numpy.ndarray`` objects (not tensors); higher-order
differentiation is intentionally out of scope — the paper's algorithms only
need first-order gradients.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_DEFAULT_DTYPE = np.float64


class _GradMode(threading.local):
    """Per-thread tape state (serve dispatch runs on executor threads):
    the autograd switch, and the op list of a plan capture in progress."""

    def __init__(self):
        self.enabled = True
        self.capture: Optional[list] = None


_GRAD_MODE = _GradMode()


def is_grad_enabled() -> bool:
    """Whether ops record the tape on the current thread."""
    return _GRAD_MODE.enabled


class no_grad:
    """Context manager that disables tape construction on this thread.

    Inside the block :meth:`Tensor._make` still runs the op's forward but
    attaches nothing: op outputs are created with ``requires_grad=False``
    and no ``_parents`` tuple, op entry or saved values, so inference-only
    forwards (rollout ``act()``, evaluation, detached curiosity rewards)
    keep no graph at all.  Forward *values* are unchanged — only the tape
    is elided.

    The switch is consulted *inside* the pristine ``_make`` body (as is the
    thread's plan-capture list), so the sanitizer's wrapper around
    ``Tensor._make``, which calls through to the saved original, composes
    unchanged: it still sees every op output, and a ``no_grad`` forward
    stays bitwise-identical whether or not it is installed.

    Re-entrant and usable as a decorator-free plain context manager::

        with nn.no_grad():
            action = agent.act(env, rng)
    """

    __slots__ = ("_previous",)

    def __enter__(self) -> "no_grad":
        self._previous = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_MODE.enabled = self._previous


def _as_array(value: ArrayLike) -> np.ndarray:
    """Coerce ``value`` to a float numpy array without copying tensors."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "fc":
            return value
        return value.astype(_DEFAULT_DTYPE)
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=_DEFAULT_DTYPE)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting can (a) prepend dimensions and (b) stretch size-1 axes; the
    adjoint of both is a sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Remove prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched axes.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Op registry: one definition per differentiable op
# ---------------------------------------------------------------------------
OPS: Dict[str, "Op"] = {}


class Op:
    """One differentiable op, defined once for the tape and the planner.

    ``forward(*arrays, **attrs) -> (out, saved)`` computes the op on its
    parents' arrays; ``saved`` is whatever ``backward`` reads (inputs,
    masks, im2col columns, attrs).  ``backward(grad, saved, needed)``
    returns one entry per parent: the gradient for each position in
    ``needed`` and ``None`` elsewhere, so an edge nobody consumes is never
    computed.  ``forward``'s result is boxed by the caller through
    :func:`_as_array`.

    :meth:`Tensor._make` calls ``forward`` and keeps the entry and
    ``saved`` on the output for :meth:`Tensor._push`; an execution plan
    (:mod:`repro.nn.executor`) emits one record per call of either, on
    frame slots.  Constructing an entry registers it in :data:`OPS` under
    its name, which is also the name the sanitizer reports.
    """

    __slots__ = ("name", "forward", "backward")

    def __init__(self, name: str, forward: Callable, backward: Callable) -> None:
        self.name = name
        self.forward = forward
        self.backward = backward
        OPS[name] = self


def _add_grad(grad, saved, needed):
    a, b = saved
    return (
        _unbroadcast(grad, a.shape) if 0 in needed else None,
        _unbroadcast(grad, b.shape) if 1 in needed else None,
    )


def _sub_grad(grad, saved, needed):
    a, b = saved
    return (
        _unbroadcast(grad, a.shape) if 0 in needed else None,
        _unbroadcast(-grad, b.shape) if 1 in needed else None,
    )


def _mul_grad(grad, saved, needed):
    a, b = saved
    return (
        _unbroadcast(grad * b, a.shape) if 0 in needed else None,
        _unbroadcast(grad * a, b.shape) if 1 in needed else None,
    )


def _div_grad(grad, saved, needed):
    a, b = saved
    return (
        _unbroadcast(grad / b, a.shape) if 0 in needed else None,
        _unbroadcast(-grad * a / (b ** 2), b.shape) if 1 in needed else None,
    )


def _matmul_grad(grad, saved, needed):
    a, b = saved
    want_a, want_b = 0 in needed, 1 in needed
    if a.ndim >= 2 and b.ndim >= 2:
        grad_a = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape) if want_a else None
        grad_b = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape) if want_b else None
    elif a.ndim == 1 and b.ndim == 1:
        grad_a = grad * b if want_a else None
        grad_b = grad * a if want_b else None
    elif a.ndim == 1 and b.ndim == 2:
        # (k,) @ (k, n) -> (n,)
        grad_a = b @ grad if want_a else None
        grad_b = np.outer(a, grad) if want_b else None
    elif a.ndim == 2 and b.ndim == 1:
        # (m, k) @ (k,) -> (m,)
        grad_a = np.outer(grad, b) if want_a else None
        grad_b = a.T @ grad if want_b else None
    else:
        raise NotImplementedError(f"matmul backward for shapes {a.shape} @ {b.shape}")
    return grad_a, grad_b


def _select_grad(grad, saved, needed):
    """maximum/minimum: ``take`` routes each element (ties to the left)."""
    take, a, b = saved
    return (
        _unbroadcast(grad * take, a.shape) if 0 in needed else None,
        _unbroadcast(grad * ~take, b.shape) if 1 in needed else None,
    )


def _where_grad(grad, saved, needed):
    condition, a, b = saved
    return (
        _unbroadcast(np.where(condition, grad, 0.0), a.shape) if 0 in needed else None,
        _unbroadcast(np.where(condition, 0.0, grad), b.shape) if 1 in needed else None,
    )


def _output_saved(fn):
    """Forward for an op whose backward reads only its own output."""

    def forward(x):
        out = fn(x)
        return out, out

    return forward


def _relu(x):
    mask = x > 0
    return np.where(mask, x, 0.0), mask


def _clip(x, low, high):
    return np.clip(x, low, high), (x >= low) & (x <= high)


def _sum_grad(grad, saved, needed):
    shape, axis, keepdims = saved
    if axis is not None and not keepdims:
        grad = np.expand_dims(grad, axis=axis)
    return (np.broadcast_to(grad, shape).copy(),)


def _max(x, axis=None, keepdims=False):
    out = x.max(axis=axis, keepdims=keepdims)
    return out, (x, out, axis, keepdims)


def _max_grad(grad, saved, needed):
    x, out, axis, keepdims = saved
    if axis is not None and not keepdims:
        grad = np.expand_dims(grad, axis=axis)
        out = np.expand_dims(out, axis=axis)
    mask = x == out
    # Split gradient equally across ties, matching numpy semantics
    # closely enough for optimization purposes.
    counts = mask.sum(axis=axis, keepdims=True)
    return (np.where(mask, grad / counts, 0.0),)


@functools.lru_cache(maxsize=256)
def _inverse_axes(axes: Tuple[int, ...], ndim: int) -> Tuple[int, ...]:
    # The forward already let numpy validate ``axes``; normalising them
    # modulo ``ndim`` makes negative axes invert correctly.
    return tuple(int(i) for i in np.argsort([axis % ndim for axis in axes]))


def _getitem_grad(grad, saved, needed):
    x, index = saved
    full = np.zeros_like(x)
    # Generic gather backward: `index` may repeat elements, and
    # np.add.at is the only scatter that accumulates duplicates.
    # This is correctness machinery for arbitrary __getitem__,
    # not a planned conv/pool hot path (those use _KernelPlan).
    np.add.at(full, index, grad)  # reprolint: disable=RPL010
    return (full,)


def _pad2d(x, padding):
    # Zero-fill + interior slice assignment instead of np.pad: same
    # bytes, a fraction of the overhead (np.pad builds per-axis pad
    # tuples and round-trips through a generic n-d path every call).
    shape = x.shape[:-2] + (x.shape[-2] + 2 * padding, x.shape[-1] + 2 * padding)
    out = np.zeros(shape, dtype=x.dtype)
    out[..., padding:-padding, padding:-padding] = x
    return out, padding


def _concat_grad(grad, saved, needed):
    sizes, axis = saved
    pieces = [None] * len(sizes)
    for pos in needed:
        start = sum(sizes[:pos])
        index = [slice(None)] * grad.ndim
        index[axis] = slice(start, start + sizes[pos])
        pieces[pos] = grad[tuple(index)]
    return pieces


def _stack_grad(grad, saved, needed):
    axis, count = saved
    moved = np.moveaxis(grad, axis, 0)
    return [moved[pos] if pos in needed else None for pos in range(count)]


ADD = Op("__add__", lambda a, b: (a + b, (a, b)), _add_grad)
SUB = Op("__sub__", lambda a, b: (a - b, (a, b)), _sub_grad)
MUL = Op("__mul__", lambda a, b: (a * b, (a, b)), _mul_grad)
DIV = Op("__truediv__", lambda a, b: (a / b, (a, b)), _div_grad)
NEG = Op("__neg__", lambda x: (-x, None), lambda grad, saved, needed: (-grad,))
POW = Op(
    "__pow__",
    lambda x, exponent: (x ** exponent, (x, exponent)),
    lambda grad, saved, needed: (grad * saved[1] * saved[0] ** (saved[1] - 1),),
)
MATMUL = Op("__matmul__", lambda a, b: (a @ b, (a, b)), _matmul_grad)
EXP = Op("exp", _output_saved(np.exp), lambda grad, out, needed: (grad * out,))
LOG = Op("log", lambda x: (np.log(x), x), lambda grad, x, needed: (grad / x,))
SQRT = Op("sqrt", _output_saved(np.sqrt), lambda grad, out, needed: (grad * 0.5 / out,))
ABS = Op("abs", lambda x: (np.abs(x), x), lambda grad, x, needed: (grad * np.sign(x),))
TANH = Op(
    "tanh", _output_saved(np.tanh), lambda grad, out, needed: (grad * (1.0 - out ** 2),)
)
SIGMOID = Op(
    "sigmoid",
    _output_saved(lambda x: 1.0 / (1.0 + np.exp(-x))),
    lambda grad, out, needed: (grad * out * (1.0 - out),),
)
RELU = Op("relu", _relu, lambda grad, mask, needed: (grad * mask,))
CLIP = Op("clip", _clip, lambda grad, mask, needed: (grad * mask,))
MAXIMUM = Op("maximum", lambda a, b: (np.maximum(a, b), (a >= b, a, b)), _select_grad)
MINIMUM = Op("minimum", lambda a, b: (np.minimum(a, b), (a <= b, a, b)), _select_grad)
SUM = Op(
    "sum",
    lambda x, axis=None, keepdims=False: (
        x.sum(axis=axis, keepdims=keepdims), (x.shape, axis, keepdims)
    ),
    _sum_grad,
)
MAX = Op("max", _max, _max_grad)
RESHAPE = Op(
    "reshape",
    lambda x, shape: (x.reshape(shape), x.shape),
    lambda grad, shape, needed: (grad.reshape(shape),),
)
TRANSPOSE = Op(
    "transpose",
    lambda x, axes: (x.transpose(axes), (axes, x.ndim)),
    lambda grad, saved, needed: (grad.transpose(_inverse_axes(*saved)),),
)
GETITEM = Op("__getitem__", lambda x, index: (x[index], (x, index)), _getitem_grad)
PAD2D = Op(
    "pad2d",
    _pad2d,
    lambda grad, padding, needed: (grad[..., padding:-padding, padding:-padding],),
)
CONCAT = Op(
    "concat",
    lambda *arrays, axis: (
        np.concatenate(arrays, axis=axis), ([a.shape[axis] for a in arrays], axis)
    ),
    _concat_grad,
)
STACK = Op(
    "stack", lambda *arrays, axis: (np.stack(arrays, axis=axis), (axis, len(arrays))), _stack_grad
)
WHERE = Op(
    "where",
    lambda a, b, condition: (np.where(condition, a, b), (condition, a, b)),
    _where_grad,
)


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Anything convertible to a float numpy array.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    # __weakref__ lets the analysis sanitizer's leak detector observe graph
    # nodes without keeping them alive (repro.analysis.sanitizer).
    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_op",
        "_saved",
        "_parents",
        "name",
        "__weakref__",
    )

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._op: Optional[Op] = None
        self._saved = None
        self._parents: Tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def item(self) -> float:
        """The single value of a size-1 tensor as a float."""
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Deep copy (new buffer, same requires_grad, no graph)."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        """Discard any accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(op: Op, parents: Tuple["Tensor", ...], **attrs) -> "Tensor":
        """Run ``op`` on the parents' data; wire the tape if any needs grad.

        Under :class:`no_grad` the tape is elided entirely — no parents
        tuple, no entry, no saved values, ``requires_grad=False``.  While
        a plan capture is running on this thread (``_GRAD_MODE.capture``,
        set by :mod:`repro.nn.executor`), every op is also appended to it
        as ``(out, parents, op, attrs, reboxed)``, grad mode or not;
        ``reboxed`` says whether boxing replaced the forward's result (a
        numpy scalar, say) rather than keeping its array.  Both checks
        live *here* so a wrapper around ``_make`` that calls through to
        this one (the sanitizer's) inherits them.
        """
        data, saved = op.forward(*[p.data for p in parents], **attrs)
        out = Tensor(data)
        state = _GRAD_MODE
        if state.capture is not None:
            state.capture.append((out, parents, op, attrs, out.data is not data))
        if state.enabled:
            # Plain loop instead of any(generator): this is the hottest
            # call in the framework and the generator allocation shows up.
            for p in parents:
                if p.requires_grad:
                    out.requires_grad = True
                    out._parents = parents
                    out._op = op
                    out._saved = saved
                    break
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first use)."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        If ``grad`` is omitted the tensor must be scalar (the usual loss
        case) and a gradient of 1 is used.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar tensor, "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
                )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        # Seed and run the tape in reverse topological order.  Output grads
        # are staged in a side table so leaf .grad accumulation semantics
        # (+=) stay intact across repeated backward() calls.
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._op is None:
                node._accumulate(node_grad)
                continue
            # Interior node: push to parents via the op's backward.
            node._push(node_grad, grads)

        # Any remaining staged grads belong to leaves reached but not popped
        # (cannot happen given the loop above, kept for safety).
        for node in topo:
            leftover = grads.pop(id(node), None)
            if leftover is not None:
                node._accumulate(leftover)

    def _push(self, out_grad: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        """Run this op's backward entry, staging parent grads in ``grads``."""
        parents = self._parents
        needed = tuple(pos for pos, parent in enumerate(parents) if parent.requires_grad)
        contributions = self._op.backward(out_grad, self._saved, needed)
        for parent, contribution in zip(parents, contributions):
            if contribution is None:
                continue
            key = id(parent)
            if parent._op is None:
                # Leaf: accumulate directly into .grad.
                parent._accumulate(contribution)
            elif key in grads:
                grads[key] = grads[key] + contribution
            else:
                grads[key] = contribution

    # ------------------------------------------------------------------
    # Arithmetic ops
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        return Tensor._make(ADD, (self, ensure_tensor(other)))

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return Tensor._make(SUB, (self, ensure_tensor(other)))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return Tensor._make(MUL, (self, ensure_tensor(other)))

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor._make(DIV, (self, ensure_tensor(other)))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return Tensor._make(NEG, (self,))

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        return Tensor._make(POW, (self,), exponent=exponent)

    # Comparisons yield plain boolean arrays (non-differentiable).
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------
    # Matrix ops
    # ------------------------------------------------------------------
    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return Tensor._make(MATMUL, (self, ensure_tensor(other)))

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise ``e**x``."""
        return Tensor._make(EXP, (self,))

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        return Tensor._make(LOG, (self,))

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return Tensor._make(SQRT, (self,))

    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient sign(x))."""
        return Tensor._make(ABS, (self,))

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        return Tensor._make(TANH, (self,))

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid."""
        return Tensor._make(SIGMOID, (self,))

    def relu(self) -> "Tensor":
        """Elementwise ``max(x, 0)``."""
        return Tensor._make(RELU, (self,))

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is zero outside [low, high] (hard clip)."""
        return Tensor._make(CLIP, (self,), low=low, high=high)

    def maximum(self, other: ArrayLike) -> "Tensor":
        """Elementwise maximum; ties route gradient to ``self``."""
        return Tensor._make(MAXIMUM, (self, ensure_tensor(other)))

    def minimum(self, other: ArrayLike) -> "Tensor":
        """Elementwise minimum; ties route gradient to ``self``."""
        return Tensor._make(MINIMUM, (self, ensure_tensor(other)))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when None)."""
        return Tensor._make(SUM, (self,), axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``."""
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; gradient splits equally across ties."""
        return Tensor._make(MAX, (self,), axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """View with a new shape (same number of elements)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor._make(RESHAPE, (self,), shape=shape)

    def flatten(self) -> "Tensor":
        """Reshape to one dimension."""
        return self.reshape(-1)

    def transpose(self, *axes) -> "Tensor":
        """Permute axes (reverses them when none are given)."""
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        return Tensor._make(TRANSPOSE, (self,), axes=axes)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        return Tensor._make(GETITEM, (self,), index=index)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the trailing two (spatial) dimensions symmetrically."""
        if padding == 0:
            return self
        return Tensor._make(PAD2D, (self,), padding=padding)


def ensure_tensor(value: ArrayLike) -> Tensor:
    """Return ``value`` as a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    return Tensor._make(CONCAT, tuple(ensure_tensor(t) for t in tensors), axis=axis)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    return Tensor._make(STACK, tuple(ensure_tensor(t) for t in tensors), axis=axis)


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Differentiable select; ``condition`` is a plain boolean array."""
    return Tensor._make(
        WHERE,
        (ensure_tensor(a), ensure_tensor(b)),
        condition=np.asarray(condition, dtype=bool),
    )


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)
