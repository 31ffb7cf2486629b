"""Static analysis and runtime sanitizers for the reproduction.

Two halves, one goal — make the invariants the reproduction's claims
rest on (bitwise determinism, float64 discipline, autograd integrity,
lock discipline) *enforced* instead of conventional:

* **reprolint** (:mod:`repro.analysis.rules` / :mod:`.engine` /
  :mod:`.reporters` / :mod:`.cli`) — an AST linter with per-rule codes
  (RPL001…RPL012 per-file; RPL013…RPL016 whole-program, over the
  cross-module call graph of :mod:`.callgraph` via ``--program``),
  ``# reprolint: disable=RPLxxx`` suppressions, text/JSON/SARIF
  reporters and a content-addressed incremental cache (:mod:`.cache`).
  Run it with ``python -m repro lint``.
* **runtime sanitizers** — :mod:`repro.analysis.sanitizer` (NaN/Inf and
  dtype checks at every autograd op boundary with op+module provenance,
  plus a backward-graph leak detector; ``--sanitize``) and
  :mod:`repro.analysis.lockwatch` (lock-order inversion SAN004 and
  contended-long-hold SAN005 with acquisition-stack provenance;
  ``--lockwatch``).  Both are patch-on-enable with zero overhead when off.
"""

from .cache import DEFAULT_CACHE_DIR, LintCache, content_sha
from .callgraph import ProgramIndex, build_program_index, module_name_for_path
from .engine import (
    DEFAULT_EXCLUDED_DIRS,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    parse_suppressions,
)
from .findings import Finding
from .lockwatch import (
    LockWatch,
    LockWatchError,
    LockWatchFinding,
)
from .program import (
    PROGRAM_RULES,
    ProgramContext,
    ProgramRule,
    analyze_files,
    analyze_program,
    program_rule_table,
)
from .reporters import render_json, render_sarif, render_text, summarize
from .rules import RULES, ModuleContext, Rule, rule_table
from .sanitizer import (
    Sanitizer,
    SanitizerError,
    SanitizerFinding,
    is_enabled,
)

__all__ = [
    # lint
    "Finding",
    "Rule",
    "RULES",
    "ModuleContext",
    "rule_table",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "parse_suppressions",
    "DEFAULT_EXCLUDED_DIRS",
    "render_text",
    "render_json",
    "render_sarif",
    "summarize",
    # whole-program analysis
    "PROGRAM_RULES",
    "ProgramContext",
    "ProgramRule",
    "ProgramIndex",
    "analyze_files",
    "analyze_program",
    "build_program_index",
    "module_name_for_path",
    "program_rule_table",
    # cache
    "LintCache",
    "DEFAULT_CACHE_DIR",
    "content_sha",
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
