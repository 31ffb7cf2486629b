"""The :class:`Finding` record shared by the linter and the sanitizer.

A finding is one concrete violation of a reproduction invariant: the
linter emits them with a file location, the runtime sanitizer with an
op/module provenance instead.  Keeping one record type lets both halves
share the reporters in :mod:`repro.analysis.reporters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes
    ----------
    code:
        The rule code (``RPL010``, or ``RPL000`` for files the linter
        could not parse; sanitizer findings use ``SAN0xx``).
    message:
        Human-readable description of the violation.
    path:
        Offending file (empty for runtime findings).
    line / col:
        1-based line and 0-based column of the offending node.
    rule:
        Short rule name (e.g. ``no-global-rng``).
    """

    code: str
    message: str
    path: str = ""
    line: int = 0
    col: int = 0
    rule: str = ""

    def sort_key(self):
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (stable key order)."""
        return {
            "code": self.code,
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        """One-line ``path:line:col: CODE message`` rendering."""
        location = f"{self.path}:{self.line}:{self.col}: " if self.path else ""
        name = f" [{self.rule}]" if self.rule else ""
        return f"{location}{self.code}{name} {self.message}"
