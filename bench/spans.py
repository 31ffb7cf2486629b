"""In-memory spans recorded from ``bench/`` around calls into each layer.

A span is ``(name, start, end, parent, op)``; spans of one op (one
episode, one request) share the op id.  A layer's self time is its span's
duration minus what its child spans cover, so self times of one op sum to
the op's wall; what is left on the op's root span is the replay's own glue
— ``harness.unattributed_share``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Tuple

__all__ = ["SpanRecorder", "NullRecorder", "self_times", "render_waterfall"]


class _Span:
    __slots__ = ("recorder", "index")

    def __init__(self, recorder: "SpanRecorder", index: int):
        self.recorder = recorder
        self.index = index

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        now = time.perf_counter()
        recorder = self.recorder
        recorder.spans[self.index][2] = now
        recorder._stack.pop()


class SpanRecorder:
    """Records nested spans; single-threaded by design (the replays are)."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, op id]``
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op = 0

    def op(self, name: str) -> _Span:
        """Root span of a new op."""
        self._op += 1
        return self.span(name)

    def span(self, name: str) -> _Span:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        return _Span(self, index)

    def dump(self, path: Path, last_ops: int = 1) -> None:
        """Write the spans of the last ``last_ops`` ops as JSON."""
        keep = self._op - last_ops
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans if o > keep
        ]
        path.write_text(json.dumps(rows))


class _Null:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


class NullRecorder:
    """The plain pass: same call sites, nothing recorded."""

    _null = _Null()

    def op(self, name: str) -> _Null:
        return self._null

    def span(self, name: str) -> _Null:
        return self._null


def self_times(recorder: SpanRecorder) -> Tuple[Dict[str, float], float, float]:
    """``(self seconds by span name, total op wall, root self time)`` over
    every recorded op, names in first-seen order."""
    own = [end - start for __, start, end, __, __ in recorder.spans]
    for (__, start, end, parent, __) in recorder.spans:
        if parent >= 0:
            own[parent] -= end - start
    by_name: Dict[str, float] = {}
    wall = root_self = 0.0
    for (name, start, end, parent, __), mine in zip(recorder.spans, own):
        if parent < 0:
            wall += end - start
            root_self += mine
        else:
            by_name[name] = by_name.get(name, 0.0) + mine
    return by_name, wall, root_self


def render_waterfall(recorder: SpanRecorder, ops: int) -> List[str]:
    """Self times per op as a waterfall that sums to the op's wall."""
    by_name, wall, root_self = self_times(recorder)
    lines = [f"  waterfall (self time per op, mean of {ops} traced ops)"]
    offset = 0.0
    for name, seconds in list(by_name.items()) + [("harness.unattributed", root_self)]:
        share = seconds / wall
        bar = " " * int(round(40 * offset)) + "#" * max(1, int(round(40 * share)))
        lines.append(
            f"    {name:<36} {seconds / ops * 1e3:>10.4f} ms {share:>6.1%}  |{bar}"
        )
        offset += share
    lines.append(f"    {'op wall':<36} {wall / ops * 1e3:>10.4f} ms {1:>6.1%}")
    return lines
