"""Static analysis and runtime sanitizers for the reproduction.

Two halves, one goal — keep the invariants the reproduction's claims
rest on (bitwise determinism, float64 discipline, autograd integrity,
lock discipline) checked rather than conventional:

* **runtime sanitizers** — :mod:`repro.analysis.sanitizer` (NaN/Inf and
  dtype checks at every autograd op boundary with op+module provenance,
  plus a backward-graph leak detector; ``--sanitize``) and
  :mod:`repro.analysis.lockwatch` (lock-order inversion SAN004 and
  contended-long-hold SAN005 with acquisition-stack provenance;
  ``--lockwatch``).  Both are patch-on-enable with zero overhead when
  off.  Their names are re-exported here.
* **reprolint** — a per-file AST linter (:mod:`.rules`, :mod:`.engine`,
  :mod:`.reporters`, :mod:`.cli`; ``python -m repro lint``) that keeps
  only the rules a regression from this repo's history makes fire
  (DESIGN § 6g).  It is imported from its own modules, never from here,
  so training and serving processes do not load it.
"""

from .findings import Finding
from .lockwatch import (
    LockWatch,
    LockWatchError,
    LockWatchFinding,
)
from .sanitizer import (
    Sanitizer,
    SanitizerError,
    SanitizerFinding,
    is_enabled,
)

__all__ = [
    "Finding",
    # sanitizer
    "Sanitizer",
    "SanitizerError",
    "SanitizerFinding",
    "is_enabled",
    # lockwatch
    "LockWatch",
    "LockWatchError",
    "LockWatchFinding",
]
