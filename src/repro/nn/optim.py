"""Optimizers and gradient utilities for :mod:`repro.nn`.

The chief thread of the paper's chief–employee architecture applies summed
employee gradients with Adam (Section VI).  Both optimizers here operate on
explicit parameter lists so the chief can own the only optimizer state
while employees merely compute gradients.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .modules import Parameter
from .tensor import Tensor

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "RMSprop",
    "clip_grad_norm",
    "clip_grad_vector",
    "global_grad_norm",
    "vector_grad_norm",
    "flatten_gradients",
    "unflatten_vector",
]

#: A parameter, or the shape of one: what :func:`unflatten_vector` lays out.
_Layout = Union[Parameter, Tuple[int, ...]]


class Optimizer:
    """Base optimizer over a fixed list of parameters."""

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params: List[Parameter] = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        """Discard gradients of every managed parameter."""
        for param in self.params:
            param.grad = None

    def step(self) -> None:
        """Apply one update from the current gradients."""
        raise NotImplementedError

    def apply_gradients(self, grads: Sequence[Optional[np.ndarray]]) -> None:
        """Install externally computed gradients, then step.

        This is the chief-side entry point: employees ship gradient lists
        (aligned with ``parameters()`` order) and the chief applies them to
        the global model.
        """
        if len(grads) != len(self.params):
            raise ValueError(
                f"got {len(grads)} gradients for {len(self.params)} parameters"
            )
        for param, grad in zip(self.params, grads):
            param.grad = None if grad is None else np.asarray(grad)
        self.step()


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-2, momentum: float = 0.0):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.params)

    def step(self) -> None:
        """One (momentum-)SGD update."""
        for i, param in enumerate(self.params):
            if param.grad is None:
                continue
            update = param.grad
            if self.momentum > 0.0:
                if self._velocity[i] is None:
                    self._velocity[i] = np.zeros_like(param.data)
                self._velocity[i] = self.momentum * self._velocity[i] + update
                update = self._velocity[i]
            param.data -= self.lr * update


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction.

    The moments ``m`` and ``v`` are one float64 vector each, laid out by
    :func:`unflatten_vector` over :attr:`params`, so an update is one pass
    of array ops over every parameter at once.  :meth:`step_flat` takes
    the gradients as such a vector (the chief's path); :meth:`step` reads
    ``param.grad``.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self._step_count = 0
        total = sum(param.size for param in self.params)
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        self._m_views = unflatten_vector(self._m, self.params)
        self._v_views = unflatten_vector(self._v, self.params)
        #: Whether each parameter has had a gradient (its moments exist).
        self._stepped = [False] * len(self.params)

    def step(self) -> None:
        """One update from ``param.grad``; a parameter whose gradient is
        ``None`` keeps its moments and its data."""
        skip = [i for i, param in enumerate(self.params) if param.grad is None]
        self._update(flatten_gradients(self.params), skip)

    def step_flat(self, grad: np.ndarray) -> None:
        """One update from every parameter's gradient in one flat vector."""
        if grad.shape != self._m.shape:
            raise ValueError(
                f"gradient vector has shape {grad.shape}, parameters total {self._m.size}"
            )
        self._update(grad, ())

    def _update(self, grad: np.ndarray, skip: Sequence[int]) -> None:
        """One bias-corrected Adam update over the flat moments.

        Every array op runs in place on the moments or on one of two
        temporaries, with the operands and the order of the out-of-place
        spelling, so every bit of ``m``, ``v`` and the parameters is kept:
        ``m *= b1; m += (1-b1)*g`` is ``b1*m + (1-b1)*g``;
        ``t = (1-b2)*g; t *= g; v *= b2; v += t`` is
        ``b2*v + ((1-b2)*g)*g``; and the update is still
        ``(lr*m_hat) / (sqrt(v_hat) + eps)`` (a product's operand order
        does not change its bits).  The ops are elementwise, so running
        them once over the concatenated vectors gives each element the
        bits a per-parameter loop gives it.  The parameters in ``skip``
        ride along on a zero gradient; their moments are put back
        afterwards and their data is not touched.
        """
        kept = [(i, self._m_views[i].copy(), self._v_views[i].copy()) for i in skip]
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        square = (1.0 - self.beta2) * grad
        square *= grad
        v *= self.beta2
        v += square
        update = m / bias1
        update *= self.lr
        denominator = v / bias2
        np.sqrt(denominator, out=denominator)
        denominator += self.eps
        update /= denominator
        for i, m_kept, v_kept in kept:
            self._m_views[i][...] = m_kept
            self._v_views[i][...] = v_kept
        for i, (param, delta) in enumerate(zip(self.params, unflatten_vector(update, self.params))):
            if i not in skip:
                param.data -= delta
                self._stepped[i] = True

    def state_dict(self) -> Dict[str, object]:
        """Optimizer state for checkpointing alongside model weights.

        The moments are per-parameter arrays (``None`` for a parameter
        that never had a gradient), as they were before the flat layout.
        """
        return {
            "step_count": self._step_count,
            "m": [m.copy() if done else None for m, done in zip(self._m_views, self._stepped)],
            "v": [v.copy() if done else None for v, done in zip(self._v_views, self._stepped)],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore moment state saved by :meth:`state_dict`.

        Each moment list must hold one entry per parameter, in order, and
        each entry must be ``None`` or have its parameter's shape (``m[i]``
        and ``v[i]`` are ``None`` together); anything else raises
        ``ValueError`` naming the entry, and leaves the optimizer as it
        was.  The entries are copied into the optimizer's own vectors.
        """
        moments = {}
        for key in ("m", "v"):
            entries = list(state[key])
            if len(entries) != len(self.params):
                raise ValueError(
                    f"{key!r} has {len(entries)} moments for {len(self.params)} parameters"
                )
            for i, (entry, param) in enumerate(zip(entries, self.params)):
                if entry is not None and np.shape(entry) != param.data.shape:
                    raise ValueError(
                        f"{key!r}[{i}] has shape {np.shape(entry)}, "
                        f"parameter {i} has shape {param.data.shape}"
                    )
            moments[key] = entries
        for i, (m, v) in enumerate(zip(moments["m"], moments["v"])):
            if (m is None) != (v is None):
                raise ValueError(f"moment {i}: 'm' and 'v' must both be set or both be None")
        self._step_count = int(state["step_count"])
        for i, (m, v) in enumerate(zip(moments["m"], moments["v"])):
            self._stepped[i] = m is not None
            self._m_views[i][...] = 0.0 if m is None else m
            self._v_views[i][...] = 0.0 if v is None else v


def global_grad_norm(params: Iterable[Parameter]) -> float:
    """L2 norm of all gradients viewed as one vector."""
    total = 0.0
    for param in params:
        if param.grad is not None:
            total += float(np.sum(param.grad * param.grad))
    return math.sqrt(total)


def vector_grad_norm(grad: np.ndarray, params: Sequence[_Layout]) -> float:
    """:func:`global_grad_norm` of gradients held as one flat vector.

    The per-parameter partial sums and their order are the ones
    :func:`global_grad_norm` takes, so the bits are too: one square over
    the vector, then one ``np.sum`` per parameter's view of it.
    """
    total = 0.0
    for square in unflatten_vector(grad * grad, params):
        total += float(np.sum(square))
    return math.sqrt(total)


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global norm is at most ``max_norm``.

    Returns the pre-clip norm, as PyTorch does, so callers can log it.
    """
    params = list(params)
    norm = global_grad_norm(params)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for param in params:
            if param.grad is not None:
                param.grad *= scale
    return norm


def clip_grad_vector(grad: np.ndarray, params: Sequence[_Layout], max_norm: float) -> float:
    """:func:`clip_grad_norm` of gradients held as one flat vector
    (scaled in place); returns the pre-clip norm."""
    norm = vector_grad_norm(grad, params)
    if norm > max_norm and norm > 0.0:
        grad *= max_norm / norm
    return norm


class RMSprop(Optimizer):
    """RMSprop (Tieleman & Hinton) — the optimizer of the A3C lineage the
    chief-employee architecture descends from; provided as an alternative
    to Adam for the chief."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        alpha: float = 0.99,
        eps: float = 1e-8,
    ):
        super().__init__(params, lr)
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        self.alpha = alpha
        self.eps = eps
        self._square_avg: List[Optional[np.ndarray]] = [None] * len(self.params)

    def step(self) -> None:
        for i, param in enumerate(self.params):
            grad = param.grad
            if grad is None:
                continue
            if self._square_avg[i] is None:
                self._square_avg[i] = np.zeros_like(param.data)
            self._square_avg[i] = (
                self.alpha * self._square_avg[i] + (1.0 - self.alpha) * grad * grad
            )
            param.data -= self.lr * grad / (np.sqrt(self._square_avg[i]) + self.eps)


def flatten_gradients(
    params: Iterable[Parameter], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Concatenate all gradients into one flat vector (zeros where None).

    The layout is :func:`unflatten_vector`'s.  ``out``, when given, is
    the float64 vector to write into.
    """
    pieces = []
    for param in params:
        if param.grad is None:
            pieces.append(np.zeros(param.size))
        else:
            pieces.append(param.grad.reshape(-1))
    if not pieces:
        return np.zeros(0) if out is None else out
    return np.concatenate(pieces, out=out)


def unflatten_vector(vector: np.ndarray, params: Iterable[_Layout]) -> List[np.ndarray]:
    """Views of a flat vector shaped like each parameter (or shape).

    The one definition of the flat gradient layout: the parameters in
    order, each one C-contiguous right after the one before.  The
    employees' gradient vector, the gradient buffer, Adam's moments and
    the shared-memory slab all lay their vectors out with it.
    """
    vector = np.asarray(vector)
    shapes = [p.data.shape if isinstance(p, Tensor) else tuple(p) for p in params]
    sizes = [math.prod(shape) for shape in shapes]
    total = sum(sizes)
    if vector.size != total:
        raise ValueError(
            f"vector has {vector.size} elements but parameters total {total}"
        )
    out: List[np.ndarray] = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        out.append(vector[offset : offset + size].reshape(shape))
        offset += size
    return out
