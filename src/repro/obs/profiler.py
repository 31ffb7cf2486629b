"""Per-op autograd profiling for the :mod:`repro.nn` framework.

Follows the sanitizer's *patch-on-enable / restore-on-disable* contract
(:mod:`repro.analysis.sanitizer`) on two of its surfaces:
:meth:`OpProfiler.enable` wraps ``Tensor._make``, through which every
:class:`~repro.nn.tensor.Op` registry entry runs, and ``Tensor.backward``
with timing shims, and :meth:`OpProfiler.disable` restores the originals.
When the profiler is off the framework runs the unwrapped code, so the
off-state overhead is exactly zero; because the shims only *time* the
original calls (never touching values), a profiled run is
bitwise-identical to an unprofiled one.

One row per registry entry (``Op.name``: ``__matmul__``, ``conv2d``,
``concat`` ...) plus ``backward``, each with:

* ``calls`` and **wall time** — an entry's forward is plain array code
  that never calls another entry, so a row's time is its own;
* approximate **FLOPs** (2·N·C_in·K²·C_out·H_out·W_out for ``conv2d``,
  2·mnk for ``__matmul__``, ~output size for elementwise entries);
* approximate **bytes** moved (input + output array sizes).

Composite functions (``linear``, ``Tensor.mean``, ``cross_entropy`` ...)
have no row: their work shows under the entries they call.

``hotspots()`` returns the aggregate sorted by time and
``render_table()`` renders the hot-spot table shown by
``python -m repro profile`` and ``--profile``.

Ordering note: the profiler and the sanitizer may both be enabled, but
both patch ``_make`` and ``backward`` — enable/disable them strictly
LIFO (enable A, enable B, disable B, disable A) so each restores what it
saw.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..nn.tensor import Tensor
from ..utils.tables import format_table

__all__ = [
    "OpStats",
    "OpProfiler",
    "get_profiler",
]


def _conv2d_flops(parents, out, attrs) -> int:
    out_channels, in_channels, kernel, __ = parents[1].shape
    batch, __, out_h, out_w = out.shape
    return 2 * batch * out_h * out_w * out_channels * in_channels * kernel * kernel


def _matmul_flops(parents, out, attrs) -> int:
    first = parents[0]
    return 2 * int(out.size) * int(first.shape[-1] if first.ndim else 1)


def _pool_flops(parents, out, attrs) -> int:
    return int(out.size) * attrs["plan"].kernel ** 2


def _per_output(factor: int) -> Callable:
    return lambda parents, out, attrs: factor * int(out.size)


#: Order-of-magnitude FLOPs of one call, by registry entry name.  Any
#: other entry counts one per element of its first input or its output,
#: whichever is larger.
_FLOPS: Dict[str, Callable] = {
    "conv2d": _conv2d_flops,
    "__matmul__": _matmul_flops,
    "max_pool2d": _pool_flops,
    "avg_pool2d": _pool_flops,
    # transcendental: a few flops each
    "tanh": _per_output(4),
    "sigmoid": _per_output(4),
    "exp": _per_output(4),
    "log": _per_output(4),
    "sqrt": _per_output(4),
    "softplus": _per_output(4),
    # shift + exp + sum + normalize per element
    "softmax": _per_output(6),
    "log_softmax": _per_output(6),
    # mean + variance + normalize + affine per element
    "channel_layer_norm": _per_output(10),
    "entropy_from_logits": lambda parents, out, attrs: 8 * int(parents[0].size),
}


def _estimate_flops(name: str, parents, out: Tensor, attrs) -> int:
    estimate = _FLOPS.get(name)
    if estimate is not None:
        return estimate(parents, out, attrs)
    in_size = int(parents[0].size) if parents else 0
    return max(int(out.size), in_size)


@dataclass
class OpStats:
    """Aggregated profile of one op."""

    name: str
    calls: int = 0
    seconds: float = 0.0
    flops: int = 0
    bytes: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "calls": self.calls,
            "seconds": self.seconds,
            "flops": self.flops,
            "bytes": self.bytes,
        }


class OpProfiler:
    """Install/remove the per-op timing shims (usable as a context manager)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stats: Dict[str, OpStats] = {}
        self._enabled = False
        self._orig_make: Optional[Callable] = None
        self._orig_backward: Optional[Callable] = None

    def _record(self, name: str, seconds: float, flops: int, moved: int) -> None:
        with self._lock:
            stats = self._stats.get(name)
            if stats is None:
                stats = OpStats(name=name)
                self._stats[name] = stats
            stats.calls += 1
            stats.seconds += seconds
            stats.flops += flops
            stats.bytes += moved

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------
    def enable(self) -> "OpProfiler":
        """Patch the timing shims into ``Tensor._make`` and ``Tensor.backward``."""
        global _ACTIVE
        if self._enabled:
            return self
        if _ACTIVE is not None:
            raise RuntimeError("another OpProfiler is already enabled")
        self._orig_make = Tensor.__dict__["_make"].__func__
        self._orig_backward = Tensor.backward
        orig_make = self._orig_make
        orig_backward = self._orig_backward
        profiler = self

        def make_timed(op, parents, **attrs):
            start = time.perf_counter()
            out = orig_make(op, parents, **attrs)
            seconds = time.perf_counter() - start
            moved = out.data.nbytes + sum(parent.data.nbytes for parent in parents)
            profiler._record(
                op.name, seconds, _estimate_flops(op.name, parents, out, attrs), moved
            )
            return out

        def backward_timed(tensor, grad=None):
            start = time.perf_counter()
            orig_backward(tensor, grad)
            seconds = time.perf_counter() - start
            moved = tensor.data.nbytes
            if isinstance(grad, np.ndarray):
                moved += grad.nbytes
            profiler._record("backward", seconds, int(tensor.size), moved)

        Tensor._make = staticmethod(make_timed)
        Tensor.backward = backward_timed
        self._enabled = True
        _ACTIVE = self
        return self

    def disable(self) -> "OpProfiler":
        """Restore the original ``Tensor._make`` and ``Tensor.backward``."""
        global _ACTIVE
        if not self._enabled:
            return self
        Tensor._make = staticmethod(self._orig_make)
        Tensor.backward = self._orig_backward
        self._orig_make = None
        self._orig_backward = None
        self._enabled = False
        if _ACTIVE is self:
            _ACTIVE = None
        return self

    @property
    def enabled(self) -> bool:
        return self._enabled

    def __enter__(self) -> "OpProfiler":
        return self.enable()

    def __exit__(self, *exc) -> None:
        self.disable()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def hotspots(self) -> List[OpStats]:
        """Per-op aggregates sorted by time (hottest first)."""
        with self._lock:
            stats = list(self._stats.values())
        return sorted(stats, key=lambda s: (-s.seconds, s.name))

    def total_time(self) -> float:
        """Total time across all ops (≈ time inside the framework)."""
        return sum(s.seconds for s in self.hotspots())

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()

    def render_table(self, limit: Optional[int] = None) -> str:
        """The hot-spot table: the top ``limit`` ops by time, or every op
        (at most one row per registry entry, plus ``backward``)."""
        hotspots = self.hotspots()
        if not hotspots:
            return "profiler: no ops recorded"
        if limit is None:
            limit = len(hotspots)
        total = self.total_time() or 1.0
        rows = [
            [
                stats.name,
                stats.calls,
                stats.seconds,
                100.0 * stats.seconds / total,
                stats.flops / 1e6,
                stats.bytes / 1e6,
            ]
            for stats in hotspots[:limit]
        ]
        return format_table(
            ["op", "calls", "s", "%", "MFLOP", "MB"],
            rows,
            title=f"autograd hot spots (top {min(limit, len(hotspots))} of {len(hotspots)} ops)",
            precision=4,
        )

    def summary(self) -> str:
        """One-line CLI summary."""
        hotspots = self.hotspots()
        calls = sum(s.calls for s in hotspots)
        return (
            f"profiler: {calls} op call(s) across {len(hotspots)} op(s), "
            f"{self.total_time():.3f}s"
        )


# ----------------------------------------------------------------------
# Module-level singleton helpers
# ----------------------------------------------------------------------
_ACTIVE: Optional[OpProfiler] = None


def get_profiler() -> Optional[OpProfiler]:
    """The currently enabled profiler, if any."""
    return _ACTIVE
