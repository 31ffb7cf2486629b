"""Text and JSON renderings of lint findings."""

from __future__ import annotations

import json
from collections import Counter
from typing import List, Sequence

from .findings import Finding

__all__ = ["render_text", "render_json", "summarize"]


def summarize(findings: Sequence[Finding]) -> Counter:
    """Per-code finding counts."""
    return Counter(finding.code for finding in findings)


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    if not findings:
        return "reprolint: no findings"
    lines: List[str] = [finding.render() for finding in findings]
    counts = summarize(findings)
    breakdown = ", ".join(f"{code}: {count}" for code, count in sorted(counts.items()))
    plural = "s" if len(findings) != 1 else ""
    lines.append(f"reprolint: {len(findings)} finding{plural} ({breakdown})")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report (stable ordering, used by the CI gate)."""
    payload = {
        "findings": [finding.to_dict() for finding in findings],
        "summary": dict(sorted(summarize(findings).items())),
        "total": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=False)
