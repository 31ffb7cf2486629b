"""Runtime sanitizer for the :mod:`repro.nn` autograd framework.

When enabled, every op output that flows through ``Tensor._make`` and
every gradient accumulated during ``backward()`` is checked:

* **SAN001** — non-finite values (NaN/Inf) appearing at an op boundary,
  reported with the op name and the originating (non-``repro.nn``)
  module so a poisoned weight is blamed on the layer that used it;
* **SAN002** — unexpected dtype deviation from the framework's float64
  discipline (e.g. a float32 array silently entering the graph);
* **SAN003** — non-finite gradients reaching a leaf during the backward
  pass;
* a **backward-graph leak detector**: interior nodes that still retain
  their op entry and saved values (and therefore their whole parent
  subgraph) after ``backward()`` completed are surfaced by
  :meth:`Sanitizer.leak_report`.

Op names come from the registry entry ``Tensor._make`` receives
(``Op.name``: ``__add__``, ``conv2d``, ...).

Cost model: the checks are installed by *monkey-patching* three
``Tensor`` methods on :func:`Sanitizer.enable` and fully restored on
:func:`Sanitizer.disable` — when the sanitizer is off the framework runs
the original, unwrapped methods, so the off-state overhead is exactly
zero.  Because the wrappers only *read* array values, a sanitized run is
bitwise-identical to an unsanitized one.

Toggle: ``python -m repro train --sanitize`` (also ``evaluate``).
"""

from __future__ import annotations

import gc
import sys
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.tensor import Tensor

__all__ = [
    "SanitizerError",
    "SanitizerFinding",
    "Sanitizer",
    "enable",
    "disable",
    "active",
    "is_enabled",
]

_EXPECTED_DTYPE = np.float64

# Frames from these packages are implementation detail, not provenance.
_INTERNAL_MODULES = ("repro.nn", "repro.analysis")


@dataclass(frozen=True)
class SanitizerFinding:
    """One runtime invariant violation with op-level provenance."""

    code: str  # SAN001 (non-finite), SAN002 (dtype), SAN003 (grad)
    kind: str  # "non-finite" | "dtype" | "grad-non-finite"
    op: str  # autograd op name, e.g. "conv2d", "__matmul__"
    module: str  # originating module outside repro.nn
    message: str

    def to_dict(self) -> Dict[str, str]:
        return {
            "code": self.code,
            "kind": self.kind,
            "op": self.op,
            "module": self.module,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.code} [{self.kind}] op={self.op} module={self.module}: {self.message}"


class SanitizerError(RuntimeError):
    """Raised (in ``mode='raise'``) at the first sanitizer finding."""

    def __init__(self, finding: SanitizerFinding):
        super().__init__(finding.render())
        self.finding = finding
        self.op = finding.op
        self.module = finding.module


def _caller_module() -> str:
    """First stack frame module outside repro.nn / repro.analysis."""
    frame = sys._getframe(2)
    last = "<unknown>"
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name:
            last = name
            if not name.startswith(_INTERNAL_MODULES):
                return name
        frame = frame.f_back
    return last


@dataclass
class _Stats:
    ops_checked: int = 0
    grads_checked: int = 0
    backwards_tracked: int = 0


class Sanitizer:
    """Install/remove the runtime checks (also usable as a context manager).

    Parameters
    ----------
    check_finite / check_dtype / check_grads / track_leaks:
        Individually toggle each check class.
    mode:
        ``"raise"`` (default) aborts at the first finding with a
        :class:`SanitizerError`; ``"record"`` accumulates findings in
        :attr:`findings` and keeps running.
    """

    def __init__(
        self,
        check_finite: bool = True,
        check_dtype: bool = True,
        check_grads: bool = True,
        track_leaks: bool = True,
        mode: str = "raise",
    ):
        if mode not in ("raise", "record"):
            raise ValueError(f"mode must be 'raise' or 'record', got {mode!r}")
        self.check_finite = check_finite
        self.check_dtype = check_dtype
        self.check_grads = check_grads
        self.track_leaks = track_leaks
        self.mode = mode
        self.findings: List[SanitizerFinding] = []
        self.stats = _Stats()
        self._enabled = False
        self._orig_make = None
        self._orig_accumulate = None
        self._orig_backward = None
        # Leak tracking: op/module provenance per live graph node, and
        # weakrefs to interior nodes whose backward has completed.
        self._origin: "weakref.WeakKeyDictionary[Tensor, Tuple[str, str]]" = (
            weakref.WeakKeyDictionary()
        )
        self._watched: List["weakref.ref[Tensor]"] = []

    # ------------------------------------------------------------------
    # Finding emission
    # ------------------------------------------------------------------
    def _emit(self, finding: SanitizerFinding) -> None:
        self.findings.append(finding)
        if self.mode == "raise":
            raise SanitizerError(finding)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def _check_output(self, out: Tensor, op: str) -> None:
        data = out.data
        self.stats.ops_checked += 1
        needs_provenance = self.track_leaks or self.check_dtype or self.check_finite
        if not needs_provenance:
            return
        if self.check_dtype and data.dtype != _EXPECTED_DTYPE:
            module = _caller_module()
            self._emit(
                SanitizerFinding(
                    code="SAN002",
                    kind="dtype",
                    op=op,
                    module=module,
                    message=(
                        f"op output dtype {data.dtype} deviates from the "
                        f"framework's {np.dtype(_EXPECTED_DTYPE)} discipline "
                        f"(shape {data.shape})"
                    ),
                )
            )
        if self.check_finite and data.dtype.kind in "fc":
            finite = np.isfinite(data)
            if not finite.all():
                bad = int(data.size - int(finite.sum()))
                module = _caller_module()
                self._emit(
                    SanitizerFinding(
                        code="SAN001",
                        kind="non-finite",
                        op=op,
                        module=module,
                        message=(
                            f"{bad}/{data.size} non-finite value(s) in the "
                            f"output of `{op}` (shape {data.shape})"
                        ),
                    )
                )
        if self.track_leaks and out._op is not None:
            self._origin[out] = (op, _caller_module())

    def _check_grad(self, tensor: Tensor, grad: np.ndarray) -> None:
        self.stats.grads_checked += 1
        if not self.check_grads:
            return
        grad = np.asarray(grad)
        if grad.dtype.kind in "fc" and not np.all(np.isfinite(grad)):
            name = tensor.name or f"<tensor shape={tensor.shape}>"
            self._emit(
                SanitizerFinding(
                    code="SAN003",
                    kind="grad-non-finite",
                    op="backward",
                    module=_caller_module(),
                    message=f"non-finite gradient accumulated into {name}",
                )
            )

    def _track_backward(self, root: Tensor) -> None:
        """Register weakrefs to interior graph nodes after a backward()."""
        self.stats.backwards_tracked += 1
        if not self.track_leaks:
            return
        seen = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._op is not None:
                self._watched.append(weakref.ref(node))
            stack.extend(node._parents)

    # ------------------------------------------------------------------
    # Leak report
    # ------------------------------------------------------------------
    def leak_report(self) -> List[Dict[str, str]]:
        """Interior nodes still retaining their op after their backward().

        An interior node that survives its own ``backward()`` keeps its
        ``_op``/``_saved`` and through ``_parents`` the entire subgraph —
        the classic "accidentally stored the loss tensor" leak.  Returns
        one entry per leaked node with its op/module provenance.
        """
        gc.collect()
        leaks: List[Dict[str, str]] = []
        alive: List["weakref.ref[Tensor]"] = []
        for ref in self._watched:
            node = ref()
            if node is None:
                continue
            alive.append(ref)
            if node._op is None:
                continue
            op, module = self._origin.get(node, ("<unknown-op>", "<unknown>"))
            leaks.append(
                {
                    "op": op,
                    "module": module,
                    "shape": str(node.shape),
                }
            )
        self._watched = alive
        return leaks

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------
    def enable(self) -> "Sanitizer":
        """Patch the checks into :class:`~repro.nn.tensor.Tensor`."""
        global _ACTIVE
        if self._enabled:
            return self
        if _ACTIVE is not None:
            raise RuntimeError("another Sanitizer is already enabled")

        self._orig_make = Tensor.__dict__["_make"].__func__
        self._orig_accumulate = Tensor._accumulate
        self._orig_backward = Tensor.backward
        orig_make = self._orig_make
        orig_accumulate = self._orig_accumulate
        orig_backward = self._orig_backward
        sanitizer = self

        def make_checked(op, parents, **attrs):
            out = orig_make(op, parents, **attrs)
            sanitizer._check_output(out, op.name)
            return out

        def accumulate_checked(tensor, grad):
            sanitizer._check_grad(tensor, grad)
            orig_accumulate(tensor, grad)

        def backward_checked(tensor, grad=None):
            orig_backward(tensor, grad)
            sanitizer._track_backward(tensor)

        Tensor._make = staticmethod(make_checked)
        Tensor._accumulate = accumulate_checked
        Tensor.backward = backward_checked
        self._enabled = True
        _ACTIVE = self
        return self

    def disable(self) -> "Sanitizer":
        """Restore the original unwrapped ``Tensor`` methods."""
        global _ACTIVE
        if not self._enabled:
            return self
        Tensor._make = staticmethod(self._orig_make)
        Tensor._accumulate = self._orig_accumulate
        Tensor.backward = self._orig_backward
        self._enabled = False
        if _ACTIVE is self:
            _ACTIVE = None
        return self

    @property
    def enabled(self) -> bool:
        return self._enabled

    def __enter__(self) -> "Sanitizer":
        return self.enable()

    def __exit__(self, *exc) -> None:
        self.disable()

    def summary(self) -> str:
        """One-line CLI summary of what was checked."""
        return (
            f"sanitizer: {self.stats.ops_checked} op outputs and "
            f"{self.stats.grads_checked} gradient accumulations checked, "
            f"{len(self.findings)} finding(s)"
        )


# ----------------------------------------------------------------------
# Module-level singleton helpers
# ----------------------------------------------------------------------
_ACTIVE: Optional[Sanitizer] = None


def active() -> Optional[Sanitizer]:
    """The currently enabled sanitizer, if any."""
    return _ACTIVE


def is_enabled() -> bool:
    return _ACTIVE is not None


def enable(**config) -> Sanitizer:
    """Enable a fresh module-level sanitizer (idempotent per process)."""
    if _ACTIVE is not None:
        return _ACTIVE
    return Sanitizer(**config).enable()


def disable() -> Optional[Sanitizer]:
    """Disable the module-level sanitizer; returns it for inspection."""
    sanitizer = _ACTIVE
    if sanitizer is not None:
        sanitizer.disable()
    return sanitizer
