"""Reverse-mode automatic differentiation on top of numpy arrays.

This module is the foundation of :mod:`repro.nn`.  It provides a
:class:`Tensor` wrapper around ``numpy.ndarray`` that records the operations
applied to it and can compute gradients of a scalar loss with respect to any
participating tensor via :meth:`Tensor.backward`.

The design follows the classic define-by-run tape:

* every operation produces a new :class:`Tensor` whose ``_parents`` point at
  its inputs and whose ``_backward`` closure knows how to push the output
  gradient back to those inputs;
* :meth:`Tensor.backward` topologically sorts the graph reachable from the
  loss and runs the closures in reverse order, accumulating into
  ``tensor.grad``.

Gradients are plain ``numpy.ndarray`` objects (not tensors); higher-order
differentiation is intentionally out of scope — the paper's algorithms only
need first-order gradients.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_DEFAULT_DTYPE = np.float64


class _GradMode(threading.local):
    """Per-thread autograd switch (serve dispatch runs on executor threads)."""

    def __init__(self):
        self.enabled = True


_GRAD_MODE = _GradMode()


def is_grad_enabled() -> bool:
    """Whether ops record the tape on the current thread."""
    return _GRAD_MODE.enabled


class no_grad:
    """Context manager that disables tape construction on this thread.

    Inside the block :meth:`Tensor._make` short-circuits: op outputs are
    created with ``requires_grad=False`` and no ``_parents`` tuple or
    backward closure is attached, so inference-only forwards (rollout
    ``act()``, evaluation, detached curiosity rewards) allocate no graph
    at all.  Forward *values* are unchanged — only the tape is elided.

    The switch is consulted *inside* the original ``_make`` body, so the
    sanitizer / tracer / profiler monkey-patch contract (wrappers around
    ``Tensor._make`` that call through to the saved original) composes
    unchanged: instrumented wrappers still see every op output, and a
    ``no_grad`` forward stays bitwise-identical whether or not they are
    installed.

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
    if isinstance(value, Tensor):
        return value.data
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "fc":
            return value
        return value.astype(_DEFAULT_DTYPE)
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
        "_backward",
        "_parents",
        "name",
        "__weakref__",
    )

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
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
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op output tensor, wiring the tape if any parent needs grad.

        Under :class:`no_grad` the tape is elided entirely — no parents
        tuple, no backward closure, ``requires_grad=False`` — which is
        what makes inference-mode forwards allocation-free on the graph
        side.  The check lives *here* (not in the ops) so every wrapped
        ``_make`` installed by the sanitizer/tracer/profiler inherits it.
        """
        out = Tensor(data)
        if _GRAD_MODE.enabled:
            # Plain loop instead of any(generator): this is the hottest
            # call in the framework and the generator allocation shows up.
            for p in parents:
                if p.requires_grad:
                    out.requires_grad = True
                    out._parents = tuple(parents)
                    out._backward = backward
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
            if node._backward is None:
                node._accumulate(node_grad)
                continue
            # Interior node: push to parents via the op's closure.  The
            # closure accumulates into a temp dict through _receive.
            node._push(node_grad, grads)

        # Any remaining staged grads belong to leaves reached but not popped
        # (cannot happen given the loop above, kept for safety).
        for node in topo:
            leftover = grads.pop(id(node), None)
            if leftover is not None:
                node._accumulate(leftover)

    def _push(self, out_grad: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        """Run this op's backward closure, staging parent grads in ``grads``."""
        contributions = self._backward(out_grad)
        for parent, contribution in zip(self._parents, contributions):
            if contribution is None or not parent.requires_grad:
                continue
            key = id(parent)
            if parent._backward is None:
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
        other_t = ensure_tensor(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad, self.shape),
                _unbroadcast(grad, other_t.shape),
            )

        return Tensor._make(data, (self, other_t), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = ensure_tensor(other)
        data = self.data - other_t.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad, self.shape),
                _unbroadcast(-grad, other_t.shape),
            )

        return Tensor._make(data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = ensure_tensor(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad * other_t.data, self.shape),
                _unbroadcast(grad * self.data, other_t.shape),
            )

        return Tensor._make(data, (self, other_t), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = ensure_tensor(other)
        data = self.data / other_t.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad / other_t.data, self.shape),
                _unbroadcast(-grad * self.data / (other_t.data ** 2), other_t.shape),
            )

        return Tensor._make(data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        data = self.data ** exponent

        def backward(grad: np.ndarray):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._make(data, (self,), backward)

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
        other_t = ensure_tensor(other)
        data = self.data @ other_t.data

        def backward(grad: np.ndarray):
            a, b = self.data, other_t.data
            if a.ndim == 1 and b.ndim == 1:
                grad_a = grad * b
                grad_b = grad * a
            elif a.ndim == 1 and b.ndim == 2:
                # (k,) @ (k, n) -> (n,)
                grad_a = b @ grad
                grad_b = np.outer(a, grad)
            elif a.ndim == 2 and b.ndim == 1:
                # (m, k) @ (k,) -> (m,)
                grad_a = np.outer(grad, b)
                grad_b = a.T @ grad
            elif a.ndim >= 2 and b.ndim >= 2:
                grad_a = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
                grad_b = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
            else:
                raise NotImplementedError(
                    f"matmul backward for shapes {a.shape} @ {b.shape}"
                )
            return grad_a, grad_b

        return Tensor._make(data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise ``e**x``."""
        data = np.exp(self.data)

        def backward(grad: np.ndarray):
            return (grad * data,)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        data = np.log(self.data)

        def backward(grad: np.ndarray):
            return (grad / self.data,)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray):
            return (grad * 0.5 / data,)

        return Tensor._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient sign(x))."""
        data = np.abs(self.data)

        def backward(grad: np.ndarray):
            return (grad * np.sign(self.data),)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        data = np.tanh(self.data)

        def backward(grad: np.ndarray):
            return (grad * (1.0 - data ** 2),)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid."""
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray):
            return (grad * data * (1.0 - data),)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        """Elementwise ``max(x, 0)``."""
        mask = self.data > 0
        data = np.where(mask, self.data, 0.0)

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is zero outside [low, high] (hard clip)."""
        data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray):
            return (grad * mask,)

        # The bounds are not closure freevars of ``backward``; the
        # execution plan needs them to rebuild the forward kernel.
        backward._plan_consts = (low, high)
        return Tensor._make(data, (self,), backward)

    def maximum(self, other: ArrayLike) -> "Tensor":
        """Elementwise maximum; ties route gradient to ``self``."""
        other_t = ensure_tensor(other)
        data = np.maximum(self.data, other_t.data)
        take_self = self.data >= other_t.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad * take_self, self.shape),
                _unbroadcast(grad * ~take_self, other_t.shape),
            )

        return Tensor._make(data, (self, other_t), backward)

    def minimum(self, other: ArrayLike) -> "Tensor":
        """Elementwise minimum; ties route gradient to ``self``."""
        other_t = ensure_tensor(other)
        data = np.minimum(self.data, other_t.data)
        take_self = self.data <= other_t.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad * take_self, self.shape),
                _unbroadcast(grad * ~take_self, other_t.shape),
            )

        return Tensor._make(data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when None)."""
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            if axis is None:
                return (np.broadcast_to(grad, self.shape).copy(),)
            g = grad
            if not keepdims:
                g = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return Tensor._make(data, (self,), backward)

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
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            g = grad
            d = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                d = np.expand_dims(d, axis=axis)
            mask = self.data == d
            # Split gradient equally across ties, matching numpy semantics
            # closely enough for optimization purposes.
            counts = mask.sum(axis=axis if axis is not None else None, keepdims=True)
            return (np.where(mask, g / counts, 0.0),)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """View with a new shape (same number of elements)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray):
            return (grad.reshape(self.shape),)

        return Tensor._make(data, (self,), backward)

    def flatten(self) -> "Tensor":
        """Reshape to one dimension."""
        return self.reshape(-1)

    def transpose(self, *axes) -> "Tensor":
        """Permute axes (reverses them when none are given)."""
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray):
            return (grad.transpose(inverse),)

        return Tensor._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray):
            full = np.zeros_like(self.data)
            # Generic gather backward: `index` may repeat elements, and
            # np.add.at is the only scatter that accumulates duplicates.
            # This is correctness machinery for arbitrary __getitem__,
            # not a planned conv/pool hot path (those use _KernelPlan).
            np.add.at(full, index, grad)  # reprolint: disable=RPL010
            return (full,)

        return Tensor._make(data, (self,), backward)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the trailing two (spatial) dimensions symmetrically."""
        if padding == 0:
            return self
        # Zero-fill + interior slice assignment instead of np.pad: same
        # bytes, a fraction of the overhead (np.pad builds per-axis pad
        # tuples and round-trips through a generic n-d path every call).
        shape = self.shape[:-2] + (
            self.shape[-2] + 2 * padding,
            self.shape[-1] + 2 * padding,
        )
        data = np.zeros(shape, dtype=self.data.dtype)
        data[..., padding:-padding, padding:-padding] = self.data

        def backward(grad: np.ndarray):
            slices = tuple(
                slice(None) for __ in range(self.ndim - 2)
            ) + (slice(padding, -padding), slice(padding, -padding))
            return (grad[slices],)

        return Tensor._make(data, (self,), backward)


def ensure_tensor(value: ArrayLike) -> Tensor:
    """Return ``value`` as a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [ensure_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray):
        pieces = []
        for i in range(len(tensors)):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(grad[tuple(index)])
        return tuple(pieces)

    return Tensor._make(data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    tensors = [ensure_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray):
        moved = np.moveaxis(grad, axis, 0)
        return tuple(moved[i] for i in range(len(tensors)))

    return Tensor._make(data, tensors, backward)


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Differentiable select; ``condition`` is a plain boolean array."""
    a_t, b_t = ensure_tensor(a), ensure_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a_t.data, b_t.data)

    def backward(grad: np.ndarray):
        return (
            _unbroadcast(np.where(condition, grad, 0.0), a_t.shape),
            _unbroadcast(np.where(condition, 0.0, grad), b_t.shape),
        )

    return Tensor._make(data, (a_t, b_t), backward)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)
