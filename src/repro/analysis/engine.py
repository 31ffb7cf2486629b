"""The ``reprolint`` driver: file discovery, suppression handling, rule runs.

The engine is deliberately dependency-free (stdlib ``ast`` + ``re``): it
parses each file once, runs every rule from :mod:`repro.analysis.rules`
over the tree, then drops findings covered by
``# reprolint: disable=RPLxxx`` comments.

Suppression semantics:

* a suppression comment on a code line covers that line;
* a standalone comment line covers the immediately following line;
* multiple codes may be comma-separated (``disable=RPL000,RPL010``).
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, List, Sequence, Set

from .findings import Finding
from .rules import RULES, ModuleContext

__all__ = [
    "EXCLUDED_DIRS",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
]

# Directory names never descended into.  ``fixtures`` holds the linter's
# own known-bad test corpus — it must stay red without failing the repo.
EXCLUDED_DIRS = ("fixtures", "__pycache__", ".git", "build", "dist")

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Z0-9,\s]+)")


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line number -> set of suppressed rule codes."""
    suppressed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        codes = {code.strip() for code in match.group(1).split(",") if code.strip()}
        target = lineno + 1 if line.lstrip().startswith("#") else lineno
        suppressed.setdefault(target, set()).update(codes)
        if target != lineno:
            # A standalone comment also covers itself (degenerate case of
            # a rule pointing at the comment line).
            suppressed.setdefault(lineno, set()).update(codes)
    return suppressed


def lint_source(source: str, path: str) -> List[Finding]:
    """Lint one module's source text as if it lived at ``path``.

    ``path`` drives every path-scoped rule (whitelists, test detection),
    which is also what makes the fixture corpus testable: fixtures can be
    linted *as if* they sat anywhere in the tree.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                code="RPL000",
                rule="parse-error",
                path=path,
                line=error.lineno or 0,
                col=(error.offset or 1) - 1,
                message=f"could not parse file: {error.msg}",
            )
        ]
    context = ModuleContext(tree=tree, path=path, source=source)
    suppressions = parse_suppressions(source)
    findings: List[Finding] = []
    for code in sorted(RULES):
        for finding in RULES[code].run(context):
            if finding.code in suppressions.get(finding.line, ()):
                continue
            findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings


def lint_file(path: str) -> List[Finding]:
    """Lint one file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), path)


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                found.append(path)
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path}")
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in EXCLUDED_DIRS)
            for name in sorted(files):
                if name.endswith(".py"):
                    found.append(os.path.join(root, name))
    return sorted(dict.fromkeys(found))


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; returns sorted findings."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path))
    findings.sort(key=Finding.sort_key)
    return findings
