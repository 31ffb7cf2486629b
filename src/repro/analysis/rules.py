"""The ``reprolint`` rule set: this repo's correctness invariants as code.

A rule is kept only if a regression from this repo's history makes it
fire, or if it guards a bitwise gate that no runtime test covers (the
evidence for every rule ever registered is DESIGN § 6g).  Rules are
registered in :data:`RULES` keyed by code, and each one is a pure
function from a :class:`ModuleContext` to an iterable of
:class:`~repro.analysis.findings.Finding`.

Suppression syntax (handled by :mod:`repro.analysis.engine`)::

    something_bad()  # reprolint: disable=RPL010
    # reprolint: disable=RPL010   (standalone: applies to next line)

The rules
---------
========  ======================  ==============================================
code      name                    invariant
========  ======================  ==============================================
RPL010    no-percall-index-alloc  ``repro.nn`` hot ops must not build index
                                  arrays (``np.arange``/``np.repeat``/
                                  ``np.tile``) or scatter with ``np.add.at``
                                  per call — use a cached kernel plan
                                  (plan-construction code is exempt)
========  ======================  ==============================================
"""

from __future__ import annotations

import ast
import posixpath
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .findings import Finding

__all__ = ["Rule", "RULES", "ModuleContext", "rule", "rule_table"]


# ----------------------------------------------------------------------
# Context and registry
# ----------------------------------------------------------------------
class ModuleContext:
    """Everything a rule may look at for one module."""

    def __init__(self, tree: ast.Module, path: str, source: str):
        self.tree = tree
        self.path = posixpath.normpath(path.replace("\\", "/"))
        self.source = source

    @property
    def basename(self) -> str:
        return posixpath.basename(self.path)

    @property
    def is_test(self) -> bool:
        """Pytest-convention test modules (and conftest) get test-rule scope."""
        name = self.basename
        return (
            name.startswith("test_")
            or name.endswith("_test.py")
            or name == "conftest.py"
        )

    def path_matches(self, patterns: Sequence[str]) -> bool:
        """True when any pattern is a substring of the normalized path."""
        return any(pattern in self.path for pattern in patterns)


RuleChecker = Callable[[ModuleContext], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    code: str
    name: str
    description: str
    checker: RuleChecker

    def run(self, context: ModuleContext) -> List[Finding]:
        return list(self.checker(context))


RULES: Dict[str, Rule] = {}


def rule(code: str, name: str, description: str):
    """Class decorator-style registrar for rule checker functions."""

    def register(checker: RuleChecker) -> RuleChecker:
        if code in RULES:
            raise ValueError(f"duplicate rule code {code}")
        RULES[code] = Rule(code=code, name=name, description=description, checker=checker)
        return checker

    return register


def rule_table() -> List[Tuple[str, str, str]]:
    """(code, name, description) rows for ``--list-rules`` output."""
    return [(r.code, r.name, r.description) for r in sorted(RULES.values(), key=lambda r: r.code)]


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for nested Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _finding(context: ModuleContext, code: str, node: ast.AST, message: str) -> Finding:
    return Finding(
        code=code,
        rule=RULES[code].name if code in RULES else "",
        path=context.path,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


_NUMPY_ALIASES = ("np", "numpy")


# ----------------------------------------------------------------------
# RPL010 — no per-call index allocation in repro.nn hot ops
# ----------------------------------------------------------------------
# PR 4 replaced the per-call im2col/col2im index machinery with cached
# kernel plans precisely because ``np.arange``/``np.repeat``/``np.tile``
# gather indices and ``np.add.at`` scatters dominated the conv/pool hot
# paths (and ``np.add.at``'s index-order accumulation is easy to get
# bitwise-wrong when "optimized" ad hoc).  This rule keeps the regression
# from creeping back: inside ``repro/nn/`` modules, index-array builders
# may only appear in plan-construction code — functions whose name starts
# with ``_plan`` or an ``__init__`` (run once per shape, cached) — and
# ``np.add.at`` may not appear at all.  Genuine exceptions (e.g. the
# generic duplicate-index ``Tensor.__getitem__`` backward, which is
# correctness machinery rather than a planned hot op) carry an explicit
# ``# reprolint: disable=RPL010`` at the call site.
_RPL010_PATHS = ("repro/nn/",)
_RPL010_INDEX_BUILDERS = {"arange", "repeat", "tile"}
_RPL010_PLAN_PREFIXES = ("_plan",)


def _rpl010_call_kind(node: ast.Call) -> Optional[str]:
    """"scatter" for np.add.at, "builder" for np.arange/repeat/tile."""
    dotted = _dotted(node.func)
    if dotted is None:
        return None
    parts = dotted.split(".")
    if parts[0] not in _NUMPY_ALIASES:
        return None
    if parts[1:] == ["add", "at"]:
        return "scatter"
    if len(parts) == 2 and parts[1] in _RPL010_INDEX_BUILDERS:
        return "builder"
    return None


@rule(
    "RPL010",
    "no-percall-index-alloc",
    "repro.nn hot ops must gather/scatter through cached kernel plans; "
    "per-call np.arange/np.repeat/np.tile index construction and "
    "np.add.at scatters are the exact regressions PR 4 removed "
    "(plan-construction functions are exempt)",
)
def check_percall_index_alloc(context: ModuleContext) -> Iterator[Finding]:
    if context.is_test or not context.path_matches(_RPL010_PATHS):
        return

    def visit(node: ast.AST, in_plan_scope: bool) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_plan_scope = in_plan_scope or (
                node.name == "__init__"
                or node.name.startswith(_RPL010_PLAN_PREFIXES)
            )
        if isinstance(node, ast.Call):
            kind = _rpl010_call_kind(node)
            if kind == "scatter":
                yield _finding(
                    context,
                    "RPL010",
                    node,
                    "`np.add.at` scatter in a repro.nn hot path: use the "
                    "kernel plan's order-preserving bincount scatter_add "
                    "(np.add.at's buffered accumulation was the dominant "
                    "col2im cost)",
                )
            elif kind == "builder" and not in_plan_scope:
                dotted = _dotted(node.func)
                yield _finding(
                    context,
                    "RPL010",
                    node,
                    f"per-call `{dotted}` index construction in a repro.nn "
                    f"hot op: build indices once in a cached kernel plan "
                    f"(_plan*/__init__ construction code is exempt)",
                )
        for child in ast.iter_child_nodes(node):
            yield from visit(child, in_plan_scope)

    yield from visit(context.tree, False)
