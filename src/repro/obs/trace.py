"""Structured tracing: nested spans, an in-memory ring buffer, JSONL files.

A :class:`Tracer` records **spans** (named, attributed wall-clock
intervals — ``span("phase.explore", employee=3)``) and **events**
(instant, zero-duration marks — ``event("fault.quarantine", ...)``).
Completed records land in two places:

* an in-memory **ring buffer** (``deque(maxlen=ring_size)``) for live
  consumers such as the ASCII dashboard;
* an append-only **JSONL trace file** — one schema-versioned JSON object
  per line, written and flushed atomically (a single ``write()`` call
  per record under the tracer lock), so a crashed run leaves a readable
  prefix.

Span nesting is tracked per thread: a span opened inside another span on
the same thread records that span as its parent, which is exactly the
chief/employee structure (an ``employee.explore`` span opened inside the
worker thread nests the ``env.step`` spans of that rollout).

Like the sanitizer and the autograd profiler, tracing follows the
*enable/disable* contract: instrumentation points throughout the stack
call the module-level :func:`span` / :func:`event` helpers, which are
cheap no-ops while no tracer is installed — and because span bodies only
*read* clocks, an instrumented run is bitwise-identical to an
uninstrumented one (see DESIGN.md, "Observability").

Toggle: ``python -m repro train --trace-dir DIR``.
"""

from __future__ import annotations

import io
import itertools
import json
import logging
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..utils.tables import format_table

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TRACE_FILENAME",
    "TraceError",
    "Span",
    "SpanNode",
    "Tracer",
    "span",
    "event",
    "record_span",
    "reset_after_fork",
    "get_tracer",
    "trace_path_for",
    "read_trace",
    "build_span_tree",
    "summarize_trace",
    "render_trace_summary",
    "wall_clock",
    "current_context",
    "add_sink",
    "remove_sink",
    "fold_worker_records",
    "dedupe_synthetic",
    "merge_traces",
]

_LOG = logging.getLogger("repro.obs.trace")

#: Version stamp written into every record; bump on breaking layout changes.
TRACE_SCHEMA_VERSION = 1

#: File name used inside a ``--trace-dir`` directory.
TRACE_FILENAME = "trace.jsonl"

_RECORD_TYPES = ("header", "span", "event")


class TraceError(ValueError):
    """Raised when a trace file violates the JSONL schema."""


def trace_path_for(trace_dir: str) -> str:
    """The trace file path inside ``trace_dir`` (created if missing)."""
    os.makedirs(trace_dir, exist_ok=True)
    return os.path.join(trace_dir, TRACE_FILENAME)


class Span:
    """One open span; context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "_start_ts", "_start_pc")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = next(tracer._ids)
        self.parent_id: Optional[int] = None
        self._start_ts = 0.0
        self._start_pc = 0.0

    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self._start_ts = time.time()
        self._start_pc = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.perf_counter() - self._start_pc
        stack = self.tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        self.tracer._emit(
            {
                "schema": TRACE_SCHEMA_VERSION,
                "type": "span",
                "name": self.name,
                "ts": self._start_ts,
                "dur": duration,
                "id": self.span_id,
                "parent": self.parent_id,
                "attrs": self.attrs,
            }
        )


class _NullSpan:
    """Shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Record spans and events to a ring buffer and an optional JSONL file.

    Parameters
    ----------
    path:
        JSONL trace file (append-only; a header record is written on
        install).  ``None`` keeps records in memory only.
    ring_size:
        Entries retained by the in-memory ring buffer.
    trace_id:
        Fleet-wide run identifier propagated to workers.  ``None`` (the
        default) derives one from the pid and the wall clock at
        :meth:`install` time; worker-side tracers receive the chief's id
        through the command context instead.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        ring_size: int = 4096,
        trace_id: Optional[str] = None,
    ):
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {ring_size}")
        self.path = os.fspath(path) if path is not None else None
        self.ring: "deque[Dict[str, object]]" = deque(maxlen=ring_size)
        self.trace_id = trace_id
        self._lock = threading.Lock()
        self._handle: Optional[io.TextIOBase] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed = False
        self.records_emitted = 0

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _emit(self, record: Dict[str, object]) -> None:
        with self._lock:
            self.ring.append(record)
            self.records_emitted += 1
            if self._handle is not None:
                # One write() + flush per record: an interrupted run leaves
                # at most one torn trailing line, never interleaved records.
                self._handle.write(json.dumps(record, sort_keys=True) + "\n")
                self._handle.flush()
        # Sinks (e.g. the flight recorder) run outside the lock so a slow
        # sink never serializes unrelated emitters; a broken sink is
        # detached rather than poisoning every subsequent record.
        for sink in list(_SINKS):
            try:
                sink(record)
            except Exception:
                _LOG.warning("trace sink %r raised; removing it", sink, exc_info=True)
                remove_sink(sink)

    def drain_ring(self) -> List[Dict[str, object]]:
        """Pop and return every buffered span/event record (headers dropped).

        Worker processes call this at reply time to piggy-back their
        freshly recorded spans on the result payload; draining (rather
        than copying) keeps each reply's batch disjoint.
        """
        with self._lock:
            records = [r for r in self.ring if r.get("type") != "header"]
            self.ring.clear()
        return records

    # ------------------------------------------------------------------
    # Recording API
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        """A context manager timing one named span."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Record one instant (zero-duration) event."""
        stack = self._stack()
        self._emit(
            {
                "schema": TRACE_SCHEMA_VERSION,
                "type": "event",
                "name": name,
                "ts": time.time(),
                "dur": 0.0,
                "id": next(self._ids),
                "parent": stack[-1] if stack else None,
                "attrs": attrs,
            }
        )

    # ------------------------------------------------------------------
    # Install / remove (module-level singleton)
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Make this the process-wide active tracer; opens the trace file."""
        if self._installed:
            return self
        if _ACTIVE is not None:
            raise RuntimeError("another Tracer is already installed")
        if self.path is not None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            handle = open(self.path, "a", encoding="utf-8")
            with self._lock:
                self._handle = handle
        if self.trace_id is None:
            self.trace_id = f"{os.getpid():x}-{int(time.time() * 1e6):x}"
        self._emit(
            {
                "schema": TRACE_SCHEMA_VERSION,
                "type": "header",
                "name": "trace",
                "ts": time.time(),
                "dur": 0.0,
                "id": 0,
                "parent": None,
                "attrs": {"pid": os.getpid(), "trace_id": self.trace_id},
            }
        )
        self._installed = True
        _bind_active(self)
        return self

    def uninstall(self) -> "Tracer":
        """Detach and close the trace file (records stay in the ring)."""
        if not self._installed:
            return self
        self._installed = False
        if _ACTIVE is self:
            _bind_active(None)
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
        return self

    @property
    def installed(self) -> bool:
        return self._installed

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> str:
        """One-line CLI summary."""
        where = self.path if self.path is not None else "<memory>"
        with self._lock:
            emitted = self.records_emitted
        return f"tracer: {emitted} record(s) -> {where}"


# ----------------------------------------------------------------------
# Module-level helpers (the instrumentation surface)
# ----------------------------------------------------------------------
_ACTIVE: Optional[Tracer] = None


def _bind_active(tracer: Optional[Tracer]) -> None:
    """(Re)bind the process-local tracer singleton (the only place
    ``_ACTIVE`` is rebound)."""
    global _ACTIVE
    _ACTIVE = tracer


def get_tracer() -> Optional[Tracer]:
    """The installed tracer, if any."""
    return _ACTIVE


def span(name: str, **attrs):
    """Span context manager on the active tracer (no-op when tracing is off)."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """Instant event on the active tracer (no-op when tracing is off)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.event(name, **attrs)


def record_span(name: str, duration: float, **attrs) -> None:
    """Record an already-measured span (no-op when tracing is off).

    The process backend's workers measure their explore/minibatch tasks
    with ``perf_counter`` and ship only ``(name, duration)`` back over the
    pipe; the chief merges them into *its* trace with this helper.  The
    record is identical to a :class:`Span` record — same schema, parented
    under the chief's current span stack — with ``ts`` back-dated by
    ``duration`` so timelines remain roughly ordered.
    """
    tracer = _ACTIVE
    if tracer is None:
        return
    stack = tracer._stack()
    tracer._emit(
        {
            "schema": TRACE_SCHEMA_VERSION,
            "type": "span",
            "name": name,
            "ts": time.time() - duration,
            "dur": float(duration),
            "id": next(tracer._ids),
            "parent": stack[-1] if stack else None,
            "attrs": attrs,
        }
    )


def reset_after_fork() -> None:
    """Detach any inherited tracer in a freshly forked worker process.

    A ``fork``-started worker inherits the chief's installed tracer —
    including its *open JSONL handle*, whose writes from two processes
    would interleave arbitrarily (the tracer lock is per-process after
    fork, so it provides no cross-process exclusion).  Workers therefore
    call this first: the active tracer is cleared and the inherited
    handle reference dropped **without closing it** (the underlying file
    descriptor is shared with the chief, and every record was flushed at
    emit time, so there is nothing buffered to lose).
    """
    global _ACTIVE
    tracer = _ACTIVE
    _ACTIVE = None
    if tracer is not None:
        tracer._installed = False
        tracer._handle = None
    # Inherited sinks (e.g. the chief's flight recorder) would otherwise
    # keep buffering into the parent's rings inside the worker.
    del _SINKS[:]


# ----------------------------------------------------------------------
# Fleet helpers: wall clock, trace context, sinks
# ----------------------------------------------------------------------
_SINKS: List[Callable[[Dict[str, object]], None]] = []


def wall_clock() -> float:
    """The wall clock (``time.time()``), exposed for non-obs modules.

    Modules on the hot training path (e.g. ``procpool``) stamp reply
    clocks through this helper, so their wall-clock reads stay greppable.
    """
    return time.time()


def current_context() -> Optional[Dict[str, object]]:
    """The (trace_id, parent span id) context to propagate to a worker.

    ``None`` while tracing is off — the command payload then omits the
    context field entirely, which old peers never look at.
    """
    tracer = _ACTIVE
    if tracer is None:
        return None
    stack = tracer._stack()
    return {
        "trace_id": tracer.trace_id,
        "parent": stack[-1] if stack else None,
    }


def add_sink(sink: Callable[[Dict[str, object]], None]) -> None:
    """Register a callable invoked with every emitted record (any tracer)."""
    if sink not in _SINKS:
        _SINKS.append(sink)


def remove_sink(sink: Callable[[Dict[str, object]], None]) -> None:
    """Unregister a sink added by :func:`add_sink` (missing sinks are fine)."""
    try:
        _SINKS.remove(sink)
    except ValueError:
        _LOG.debug("remove_sink: %r was not registered", sink)


def fold_worker_records(
    records: Sequence[Dict[str, object]],
    *,
    parent: Optional[int] = None,
    offset: float = 0.0,
    **labels,
) -> int:
    """Merge worker-emitted records into the chief's active tracer.

    Worker span ids live in the worker's own id space; each record is
    re-issued a chief-side id (preserving relative order, so parents keep
    smaller ids than their children), worker-local roots are re-parented
    under ``parent`` (the chief span that issued the command), ``offset``
    — the chief-minus-worker clock estimate — is added to every
    timestamp, and ``labels`` (host/worker/pid) are folded into attrs.
    The raw worker records are never mutated, so per-worker files and
    rings stay unmodified primary sources.  Returns the number of records
    folded (0 while tracing is off).
    """
    tracer = _ACTIVE
    if tracer is None:
        return 0
    clean = [
        record
        for record in records
        if isinstance(record, dict) and record.get("type") in ("span", "event")
    ]
    mapping: Dict[int, int] = {}
    for record in sorted(clean, key=lambda r: int(r.get("id", 0))):
        mapping[int(record.get("id", 0))] = next(tracer._ids)
    folded = 0
    for record in clean:
        attrs = dict(record.get("attrs") or {})
        for key, value in labels.items():
            if value is not None:
                attrs[key] = value
        raw_parent = record.get("parent")
        new_parent = mapping.get(int(raw_parent)) if raw_parent is not None else None
        tracer._emit(
            {
                "schema": TRACE_SCHEMA_VERSION,
                "type": str(record["type"]),
                "name": str(record["name"]),
                "ts": float(record["ts"]) + float(offset),
                "dur": float(record.get("dur", 0.0)),
                "id": mapping[int(record["id"])],
                "parent": parent if new_parent is None else new_parent,
                "attrs": attrs,
            }
        )
        folded += 1
    return folded


def _synthetic_key(record: Dict[str, object]) -> Tuple[object, object, object, object]:
    attrs = record.get("attrs") or {}
    return (
        record.get("name"),
        attrs.get("employee"),
        attrs.get("episode"),
        attrs.get("round"),
    )


def dedupe_synthetic(
    records: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Drop chief re-emitted ``synthetic`` spans shadowed by worker spans.

    Before trace propagation the chief re-emitted each worker task as an
    ``employee.*`` span from the shipped duration; those re-emissions are
    now marked ``attrs.synthetic`` and are dropped whenever a genuine
    worker-propagated span for the same (name, employee, episode, round)
    is present, so mixed traces never double-count a task.  Unshadowed
    synthetic spans (old workers, tracing-only runs) are kept.
    """
    real = set()
    for record in records:
        if record.get("type") != "span":
            continue
        attrs = record.get("attrs") or {}
        if not attrs.get("synthetic") and attrs.get("employee") is not None:
            real.add(_synthetic_key(record))
    kept: List[Dict[str, object]] = []
    for record in records:
        attrs = record.get("attrs") or {}
        if attrs.get("synthetic") and _synthetic_key(record) in real:
            continue
        kept.append(record)
    return kept


def merge_traces(streams: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Merge per-process trace record streams into one corrected stream.

    Each stream is ``{"records": [...], "offset": chief_minus_worker,
    "labels": {...}}``.  Ids are re-issued from one shared counter
    (order-preserving per stream), ``offset`` is added to every
    timestamp, labels land in attrs, headers are dropped, and parents
    torn away by a truncated file degrade to roots.  The merged stream is
    sorted by corrected ``(ts, id)``.
    """
    ids = itertools.count(1)
    merged: List[Dict[str, object]] = []
    for stream in streams:
        records = stream.get("records") or []
        offset = float(stream.get("offset", 0.0))
        labels = dict(stream.get("labels") or {})
        clean = [r for r in records if r.get("type") in ("span", "event")]
        mapping: Dict[int, int] = {}
        for record in sorted(clean, key=lambda r: int(r["id"])):
            mapping[int(record["id"])] = next(ids)
        for record in clean:
            attrs = dict(record.get("attrs") or {})
            attrs.update(labels)
            raw_parent = record.get("parent")
            merged.append(
                {
                    "schema": TRACE_SCHEMA_VERSION,
                    "type": str(record["type"]),
                    "name": str(record["name"]),
                    "ts": float(record["ts"]) + offset,
                    "dur": float(record.get("dur", 0.0)),
                    "id": mapping[int(record["id"])],
                    "parent": (
                        mapping.get(int(raw_parent))
                        if raw_parent is not None
                        else None
                    ),
                    "attrs": attrs,
                }
            )
    merged.sort(key=lambda record: (record["ts"], record["id"]))
    return merged


# ----------------------------------------------------------------------
# Reading trace files back
# ----------------------------------------------------------------------
_REQUIRED_FIELDS = ("schema", "type", "name", "ts", "dur", "id", "attrs")


def _validate(record: object, lineno: int) -> Dict[str, object]:
    if not isinstance(record, dict):
        raise TraceError(f"line {lineno}: record is not a JSON object")
    missing = [key for key in _REQUIRED_FIELDS if key not in record]
    if missing:
        raise TraceError(f"line {lineno}: missing field(s) {missing}")
    if record["schema"] != TRACE_SCHEMA_VERSION:
        raise TraceError(
            f"line {lineno}: schema {record['schema']!r} != {TRACE_SCHEMA_VERSION}"
        )
    if record["type"] not in _RECORD_TYPES:
        raise TraceError(f"line {lineno}: unknown record type {record['type']!r}")
    if not isinstance(record["attrs"], dict):
        raise TraceError(f"line {lineno}: attrs must be an object")
    return record


def read_trace(path: str) -> List[Dict[str, object]]:
    """Parse and validate a JSONL trace file (dir paths resolve to its file).

    A torn trailing line (from a killed process) is tolerated; any other
    malformed line raises :class:`TraceError`.
    """
    if os.path.isdir(path):
        path = os.path.join(path, TRACE_FILENAME)
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                break  # torn trailing line from an interrupted writer
            raise TraceError(f"line {lineno}: invalid JSON") from None
        records.append(_validate(payload, lineno))
    return records


@dataclass
class SpanNode:
    """One span (or event) in a reconstructed trace tree."""

    name: str
    span_id: int
    parent_id: Optional[int]
    ts: float
    dur: float
    kind: str = "span"
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)

    def walk(self) -> Iterable["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


def build_span_tree(records: Sequence[Dict[str, object]]) -> List[SpanNode]:
    """Reconstruct the span forest (roots sorted by start time).

    Spans are emitted at *end* time, so children appear before their
    parents in the file; the tree is linked by ``parent`` id.  Events are
    attached as zero-duration leaves.  Orphans (parent span still open
    when the file stopped) become roots.
    """
    nodes: Dict[int, SpanNode] = {}
    for record in records:
        if record["type"] == "header":
            continue
        node = SpanNode(
            name=str(record["name"]),
            span_id=int(record["id"]),
            parent_id=None if record.get("parent") is None else int(record["parent"]),
            ts=float(record["ts"]),
            dur=float(record["dur"]),
            kind=str(record["type"]),
            attrs=dict(record["attrs"]),
        )
        nodes[node.span_id] = node
    roots: List[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.parent_id) if node.parent_id is not None else None
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: (child.ts, child.span_id))
    roots.sort(key=lambda node: (node.ts, node.span_id))
    return roots


@dataclass
class _Agg:
    count: int = 0
    total: float = 0.0
    max: float = 0.0

    def add(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        self.max = max(self.max, duration)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def summarize_trace(records: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate a trace: per-name, per-phase and per-employee timings.

    Returns a plain dict so callers can render or JSON-dump it:
    ``{"spans": n, "events": n, "by_name": {...}, "by_employee": {...},
    "by_host_worker": {...}, "event_counts": {...}}``.  The
    ``by_host_worker`` table covers only spans carrying the fleet
    ``worker`` label injected by :func:`fold_worker_records` /
    :func:`merge_traces` — i.e. genuinely worker-emitted spans.
    """
    by_name: Dict[str, _Agg] = {}
    by_employee: Dict[Tuple[str, int], _Agg] = {}
    by_host_worker: Dict[Tuple[str, str, str], _Agg] = {}
    event_counts: Dict[str, int] = {}
    spans = events = 0
    for record in records:
        name = str(record["name"])
        if record["type"] == "span":
            spans += 1
            duration = float(record["dur"])
            by_name.setdefault(name, _Agg()).add(duration)
            employee = record["attrs"].get("employee")
            if employee is not None:
                key = (name, int(employee))
                by_employee.setdefault(key, _Agg()).add(duration)
            worker = record["attrs"].get("worker")
            if worker is not None:
                host = str(record["attrs"].get("host") or "local")
                fleet_key = (host, str(worker), name)
                by_host_worker.setdefault(fleet_key, _Agg()).add(duration)
        elif record["type"] == "event":
            events += 1
            event_counts[name] = event_counts.get(name, 0) + 1
    return {
        "spans": spans,
        "events": events,
        "by_name": {
            name: {
                "count": agg.count,
                "total": agg.total,
                "mean": agg.mean,
                "max": agg.max,
            }
            for name, agg in sorted(by_name.items())
        },
        "by_employee": {
            f"{name}[{employee}]": {
                "count": agg.count,
                "total": agg.total,
                "mean": agg.mean,
                "max": agg.max,
            }
            for (name, employee), agg in sorted(by_employee.items())
        },
        "by_host_worker": {
            f"{name}[{host}/{worker}]": {
                "count": agg.count,
                "total": agg.total,
                "mean": agg.mean,
                "max": agg.max,
            }
            for (host, worker, name), agg in sorted(by_host_worker.items())
        },
        "event_counts": dict(sorted(event_counts.items())),
    }


def render_trace_summary(summary: Dict[str, object]) -> str:
    """Human-readable tables for :func:`summarize_trace` output."""
    lines: List[str] = [
        f"trace: {summary['spans']} span(s), {summary['events']} event(s)"
    ]
    by_name = summary["by_name"]
    if by_name:
        rows = [
            [name, agg["count"], agg["total"], agg["mean"], agg["max"]]
            for name, agg in sorted(
                by_name.items(), key=lambda item: -item[1]["total"]
            )
        ]
        lines.append("")
        lines.append(
            format_table(
                ["span", "count", "total s", "mean s", "max s"],
                rows,
                title="per-span timings",
                precision=4,
            )
        )
    by_employee = summary["by_employee"]
    if by_employee:
        rows = [
            [name, agg["count"], agg["total"], agg["mean"]]
            for name, agg in sorted(by_employee.items())
        ]
        lines.append("")
        lines.append(
            format_table(
                ["span[employee]", "count", "total s", "mean s"],
                rows,
                title="per-employee timings",
                precision=4,
            )
        )
    by_host_worker = summary.get("by_host_worker") or {}
    if by_host_worker:
        rows = [
            [name, agg["count"], agg["total"], agg["mean"]]
            for name, agg in sorted(by_host_worker.items())
        ]
        lines.append("")
        lines.append(
            format_table(
                ["span[host/worker]", "count", "total s", "mean s"],
                rows,
                title="per-host/per-worker timings",
                precision=4,
            )
        )
    event_counts = summary["event_counts"]
    if event_counts:
        lines.append("")
        lines.append(
            format_table(
                ["event", "count"],
                [[name, count] for name, count in event_counts.items()],
                title="events",
            )
        )
    return "\n".join(lines)
