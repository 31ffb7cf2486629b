"""Global gradient buffers (Fig. 1, center).

Two of these sit between the employees and the chief: the **PPO gradient
buffer** (policy, value and CNN gradients) and the **curiosity gradient
buffer** (forward-model gradients).  Each "accepts the gradient sent by
employee threads ..., sums them up, and sends them to chief".

The buffer is thread-safe so the threaded driver's employees can push
concurrently; the chief drains it once all contributions have arrived.

Beyond the paper's happy path, the buffer is the natural **quarantine
point** for poisoned updates: a single NaN/Inf array summed into the
global gradient silently destroys the Adam state of every parameter it
touches.  ``add`` therefore validates each contribution *before* any of
it reaches the running sum — non-finite values are always rejected, and
an optional ``max_norm`` rejects norm-exploded contributions.  Rejections
raise :class:`GradientRejected` and are tallied per employee in
:attr:`GradientBuffer.rejections` so the trainer's health report can
attribute blame.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn

__all__ = ["GradientBuffer", "GradientRejected"]


class GradientRejected(ValueError):
    """A gradient contribution failed quarantine and was not accumulated."""


class GradientBuffer:
    """Thread-safe accumulator of aligned gradient contributions.

    The running sum is one float64 vector laid out by
    :func:`repro.nn.unflatten_vector` over the parameter shapes.  A
    contribution arrives either as that vector (:meth:`add_vector`, the
    chief's path) or as a per-parameter list (:meth:`add`); either way
    it is checked and summed as one vector.

    Parameters
    ----------
    num_params:
        Length of every contributed gradient list.
    shapes:
        Optional authoritative per-parameter shapes.  When given, every
        contribution (including the first) is validated against them and a
        mismatch names the offending parameter index.  Without it the first
        accepted contribution's shapes become authoritative.
    max_norm:
        If ``> 0``, reject contributions whose global L2 norm exceeds this
        threshold (norm-explosion quarantine).  ``0`` disables the check.
    """

    def __init__(
        self,
        num_params: int,
        shapes: Optional[Sequence[Tuple[int, ...]]] = None,
        max_norm: float = 0.0,
    ):
        if num_params < 0:
            raise ValueError(f"num_params cannot be negative, got {num_params}")
        if shapes is not None and len(shapes) != num_params:
            raise ValueError(
                f"shapes has {len(shapes)} entries but num_params={num_params}"
            )
        if max_norm < 0:
            raise ValueError(f"max_norm cannot be negative, got {max_norm}")
        self.num_params = num_params
        self.max_norm = float(max_norm)
        self._shapes = tuple(tuple(s) for s in shapes) if shapes is not None else None
        #: Elements in one contribution (known once the shapes are).
        self._size = sum(math.prod(s) for s in self._shapes) if self._shapes is not None else None
        self._lock = threading.Lock()
        self._sum: Optional[np.ndarray] = None
        #: Layout of ``_sum``: ``_shapes``, or the first accepted list's.
        self._sum_shapes: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._count = 0
        self._rejections: Dict[int, int] = {}

    @property
    def count(self) -> int:
        """Number of employee contributions currently accumulated."""
        with self._lock:
            return self._count

    @property
    def rejections(self) -> Dict[int, int]:
        """Per-employee quarantine-rejection counts (-1 = anonymous)."""
        with self._lock:
            return dict(self._rejections)

    # ------------------------------------------------------------------
    def _quarantine(self, vector: np.ndarray, shapes: Sequence[Tuple[int, ...]]) -> None:
        """Raise before anything touches the sum; the buffer stays intact."""
        finite = np.isfinite(vector)
        if not finite.all():
            index = next(
                i for i, view in enumerate(nn.unflatten_vector(finite, shapes)) if not view.all()
            )
            raise GradientRejected(
                f"non-finite gradient at parameter index {index} "
                f"(quarantined before accumulation)"
            )
        if self.max_norm > 0.0:
            norm = nn.vector_grad_norm(vector, shapes)
            if norm > self.max_norm:
                raise GradientRejected(
                    f"gradient norm {norm:.3e} exceeds quarantine threshold "
                    f"{self.max_norm:.3e}"
                )

    def _accumulate(
        self,
        vector: np.ndarray,
        shapes: Tuple[Tuple[int, ...], ...],
        employee: int,
        owned: bool,
    ) -> None:
        """Quarantine, then sum ``vector``; the caller holds the lock."""
        try:
            self._quarantine(vector, shapes)
        except GradientRejected:
            self._rejections[employee] = self._rejections.get(employee, 0) + 1
            raise
        if self._sum is None:
            self._sum = vector if owned else vector.copy()
            self._sum_shapes = shapes
        else:
            self._sum += vector
        self._count += 1

    def add(self, grads: Sequence[np.ndarray], employee: int = -1) -> None:
        """Add one employee's gradient list (summed elementwise).

        Raises
        ------
        ValueError
            On a count or per-parameter shape mismatch (names the index).
        GradientRejected
            When the contribution fails quarantine (non-finite values or
            norm explosion); names the first non-finite parameter index.
            The rejection is tallied against ``employee`` and the
            accumulated sum is left untouched.
        """
        if len(grads) != self.num_params:
            raise ValueError(
                f"expected {self.num_params} gradient arrays, got {len(grads)}"
            )
        shapes = tuple(np.shape(grad) for grad in grads)
        with self._lock:
            expected = self._shapes if self._shapes is not None else self._sum_shapes
            if expected is not None:
                for index, (shape, want) in enumerate(zip(shapes, expected)):
                    if shape != want:
                        raise ValueError(
                            f"gradient shape mismatch at parameter index {index}: "
                            f"got {shape}, expected {want}"
                        )
            vector = (
                np.concatenate([np.ravel(grad) for grad in grads], dtype=np.float64)
                if grads
                else np.zeros(0)
            )
            self._accumulate(vector, shapes, employee, owned=True)

    def add_vector(self, vector: np.ndarray, employee: int = -1) -> None:
        """Add one contribution given as the flat float64 gradient vector
        (the buffer's ``shapes`` lay it out).  Raises like :meth:`add`."""
        if self._shapes is None:
            raise ValueError("add_vector needs a buffer built with shapes")
        if vector.shape != (self._size,):
            raise ValueError(
                f"gradient vector has shape {vector.shape}, expected ({self._size},)"
            )
        with self._lock:
            self._accumulate(vector, self._shapes, employee, owned=False)

    def drain_vector(self) -> Tuple[np.ndarray, int]:
        """Return (summed gradient vector, contribution count) and clear.

        Raises if the buffer is empty — the chief must never apply a
        phantom update.
        """
        summed, __, count = self._take()
        return summed, count

    def drain(self) -> Tuple[List[np.ndarray], int]:
        """:meth:`drain_vector` with the sum as per-parameter views."""
        summed, shapes, count = self._take()
        return nn.unflatten_vector(summed, shapes), count

    def _take(self) -> Tuple[np.ndarray, Tuple[Tuple[int, ...], ...], int]:
        with self._lock:
            if self._sum is None:
                raise RuntimeError("drain() called on an empty gradient buffer")
            taken = (self._sum, self._sum_shapes, self._count)
            self._sum = None
            self._sum_shapes = None
            self._count = 0
        return taken

    def clear(self) -> None:
        """Discard any accumulated gradients without applying them."""
        with self._lock:
            self._sum = None
            self._sum_shapes = None
            self._count = 0

    def clear_rejections(self) -> None:
        """Reset the per-employee rejection tallies."""
        with self._lock:
            self._rejections = {}
