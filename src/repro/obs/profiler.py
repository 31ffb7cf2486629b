"""Per-op autograd profiling for the :mod:`repro.nn` framework.

Follows the sanitizer's *patch-on-enable / restore-on-disable* contract
(:mod:`repro.analysis.sanitizer`): :meth:`OpProfiler.enable` wraps a
curated set of autograd entry points — the :class:`~repro.nn.tensor.Tensor`
arithmetic/activation methods, the :mod:`repro.nn.functional` ops
(``conv2d``, ``linear``, pooling, losses) and ``Tensor.backward`` — with
timing shims, and :meth:`OpProfiler.disable` restores the original
callables.  When the profiler is off the framework runs the unwrapped
code, so the off-state overhead is exactly zero; because the shims only
*time* the original calls (never touching values), a profiled run is
bitwise-identical to an unprofiled one.

Per op the profiler aggregates:

* ``calls`` and **wall time** — both *inclusive* (``total_s``) and
  **self time** (``self_s``, inclusive minus time spent inside other
  profiled ops, tracked by a per-thread call stack), so composite ops
  like ``linear`` (which calls ``__matmul__`` + ``__add__``) do not
  double-count the leaf work;
* approximate **FLOPs** (2·N·C_in·K²·C_out·H_out·W_out for ``conv2d``,
  2·mnk for matmul, ~output-size for elementwise ops; composites count 0
  and let their leaves count);
* approximate **bytes** moved (input + output array sizes).

``hotspots()`` returns the aggregate sorted by self time and
``render_table()`` renders the hot-spot table shown by
``python -m repro profile`` and ``--profile``.

Ordering note: the profiler and the sanitizer may both be enabled, but
they patch overlapping surfaces (``Tensor.backward``) — enable/disable
them strictly LIFO (enable A, enable B, disable B, disable A) so each
restores what it saw.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn import functional as nn_functional
from ..nn.tensor import Tensor
from ..utils.tables import format_table

__all__ = [
    "OpStats",
    "OpProfiler",
    "get_profiler",
    "profile_env_enabled",
]

#: Tensor methods wrapped for timing (looked up on the class at call
#: time, so patching the class intercepts every call site).
_TENSOR_OPS = (
    "__add__",
    "__sub__",
    "__mul__",
    "__truediv__",
    "__neg__",
    "__pow__",
    "__matmul__",
    "__getitem__",
    "exp",
    "log",
    "sqrt",
    "abs",
    "tanh",
    "sigmoid",
    "relu",
    "clip",
    "maximum",
    "minimum",
    "sum",
    "mean",
    "var",
    "max",
    "reshape",
    "transpose",
    "pad2d",
)

#: repro.nn.functional attributes wrapped for timing.  Every importer
#: binds the *module* (``from .. import functional as F``), so patching
#: the module attribute intercepts every call site.
_FUNCTIONAL_OPS = (
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "linear",
    "softplus",
    "layer_norm",
    "channel_layer_norm",
    "softmax",
    "log_softmax",
    "mse_loss",
    "smooth_l1_loss",
    "cross_entropy",
    "entropy_from_logits",
    "dropout",
)

#: Composite ops built from other profiled ops: their FLOPs are counted
#: by the leaves they call, so they report 0 themselves.  The softmax
#: family is *not* listed — those are now fused primitives (one tape node,
#: raw numpy inside), so their work is no longer visible to any leaf op
#: and must be estimated here directly.
_COMPOSITE_OPS = {
    "linear",
    "layer_norm",
    "mse_loss",
    "smooth_l1_loss",
    "cross_entropy",
}


def profile_env_enabled(environ=None) -> bool:
    """True when ``REPRO_PROFILE`` requests profiling (1/true/yes/on)."""
    environ = os.environ if environ is None else environ
    return str(environ.get("REPRO_PROFILE", "")).strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


def _nbytes(value: object) -> int:
    if isinstance(value, Tensor):
        return int(value.data.nbytes)
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    return 0


def _estimate_flops(name: str, args: Tuple, out: object) -> int:
    """Order-of-magnitude FLOP count for one op call."""
    if name in _COMPOSITE_OPS:
        return 0
    out_size = out.size if isinstance(out, Tensor) else 0
    if name == "conv2d":
        x, weight = args[0], args[1]
        out_channels, in_channels, kernel, __ = weight.shape
        if isinstance(out, Tensor) and out.ndim == 4:
            batch, __, out_h, out_w = out.shape
            return 2 * batch * out_h * out_w * out_channels * in_channels * kernel * kernel
        return 0
    if name == "__matmul__":
        # args = (self, other); inner dim is self's last axis.
        self_tensor = args[0]
        inner = self_tensor.shape[-1] if self_tensor.ndim else 1
        return 2 * int(out_size) * int(inner)
    if name in ("max_pool2d", "avg_pool2d"):
        kernel = int(args[1])
        return int(out_size) * kernel * kernel
    if name in ("tanh", "sigmoid", "exp", "log", "sqrt", "softplus"):
        return 4 * int(out_size)  # transcendental ~ a few flops each
    if name in ("softmax", "log_softmax"):
        # Fused primitive: shift + exp + sum + normalize per element.
        return 6 * int(out_size)
    if name == "channel_layer_norm":
        # Fused primitive: mean + variance + normalize + affine per element.
        return 10 * int(out_size)
    if name == "entropy_from_logits":
        # Fused primitive over the (pre-reduction) logits.
        logits = args[0]
        return 8 * int(logits.size) if isinstance(logits, Tensor) else 0
    # Elementwise / reduction default: one flop per output element over
    # the larger of input/output.
    in_size = args[0].size if args and isinstance(args[0], Tensor) else 0
    return int(max(out_size, in_size))


@dataclass
class OpStats:
    """Aggregated profile of one op."""

    name: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    flops: int = 0
    bytes: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "flops": self.flops,
            "bytes": self.bytes,
        }


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0


class OpProfiler:
    """Install/remove the per-op timing shims (usable as a context manager)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stats: Dict[str, OpStats] = {}
        self._local = threading.local()
        self._enabled = False
        self._saved_tensor: Dict[str, Callable] = {}
        self._saved_functional: Dict[str, Callable] = {}
        self._orig_backward: Optional[Callable] = None

    # ------------------------------------------------------------------
    def _frames(self) -> List[_Frame]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = []
            self._local.frames = frames
        return frames

    def _record(
        self, name: str, duration: float, self_s: float, flops: int, moved: int
    ) -> None:
        with self._lock:
            stats = self._stats.get(name)
            if stats is None:
                stats = OpStats(name=name)
                self._stats[name] = stats
            stats.calls += 1
            stats.total_s += duration
            stats.self_s += self_s
            stats.flops += flops
            stats.bytes += moved

    def _wrap(self, name: str, orig: Callable) -> Callable:
        profiler = self

        def profiled(*args, **kwargs):
            frames = profiler._frames()
            frame = _Frame(name)
            frames.append(frame)
            start = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                frames.pop()
                if frames:
                    frames[-1].child_s += duration
            moved = _nbytes(out) + sum(_nbytes(arg) for arg in args)
            profiler._record(
                name,
                duration,
                max(duration - frame.child_s, 0.0),
                _estimate_flops(name, args, out),
                moved,
            )
            return out

        profiled.__name__ = getattr(orig, "__name__", name)
        profiled.__qualname__ = getattr(orig, "__qualname__", name)
        profiled.__doc__ = getattr(orig, "__doc__", None)
        return profiled

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------
    def enable(self) -> "OpProfiler":
        """Patch the timing shims into Tensor and repro.nn.functional."""
        global _ACTIVE
        if self._enabled:
            return self
        if _ACTIVE is not None:
            raise RuntimeError("another OpProfiler is already enabled")
        for name in _TENSOR_OPS:
            orig = Tensor.__dict__[name]
            self._saved_tensor[name] = orig
            setattr(Tensor, name, self._wrap(name, orig))
        for name in _FUNCTIONAL_OPS:
            orig = getattr(nn_functional, name)
            self._saved_functional[name] = orig
            setattr(nn_functional, name, self._wrap(name, orig))
        self._orig_backward = Tensor.backward
        setattr(Tensor, "backward", self._wrap("backward", self._orig_backward))
        self._enabled = True
        _ACTIVE = self
        return self

    def disable(self) -> "OpProfiler":
        """Restore every original callable."""
        global _ACTIVE
        if not self._enabled:
            return self
        for name, orig in self._saved_tensor.items():
            setattr(Tensor, name, orig)
        for name, orig in self._saved_functional.items():
            setattr(nn_functional, name, orig)
        if self._orig_backward is not None:
            setattr(Tensor, "backward", self._orig_backward)
        self._saved_tensor.clear()
        self._saved_functional.clear()
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
        """Per-op aggregates sorted by self time (hottest first)."""
        with self._lock:
            stats = list(self._stats.values())
        return sorted(stats, key=lambda s: (-s.self_s, -s.total_s, s.name))

    def total_time(self) -> float:
        """Total self time across all ops (≈ time inside the framework)."""
        return sum(s.self_s for s in self.hotspots())

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()

    def render_table(self, limit: int = 15) -> str:
        """The hot-spot table (top ``limit`` ops by self time)."""
        hotspots = self.hotspots()
        if not hotspots:
            return "profiler: no ops recorded"
        total_self = self.total_time() or 1.0
        rows = [
            [
                stats.name,
                stats.calls,
                stats.total_s,
                stats.self_s,
                100.0 * stats.self_s / total_self,
                stats.flops / 1e6,
                stats.bytes / 1e6,
            ]
            for stats in hotspots[:limit]
        ]
        return format_table(
            ["op", "calls", "total s", "self s", "self %", "MFLOP", "MB"],
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
            f"{self.total_time():.3f}s self time"
        )


# ----------------------------------------------------------------------
# Module-level singleton helpers
# ----------------------------------------------------------------------
_ACTIVE: Optional[OpProfiler] = None


def get_profiler() -> Optional[OpProfiler]:
    """The currently enabled profiler, if any."""
    return _ACTIVE
