"""Tracing: JSONL schema round-trips, span nesting, summaries."""

import json

import pytest

from repro.obs import (
    TRACE_SCHEMA_VERSION,
    TraceError,
    Tracer,
    build_span_tree,
    event,
    get_tracer,
    read_trace,
    render_trace_summary,
    span,
    summarize_trace,
    trace_path_for,
)

pytestmark = pytest.mark.obs


def record_sample(tracer):
    """Emit a small, structured trace: two nested spans + one event."""
    with tracer.span("episode", episode=0):
        with tracer.span("phase.explore", episode=0):
            with tracer.span("employee.explore", employee=1, episode=0):
                pass
            tracer.event("fault.crash", employee=2, episode=0)
    with tracer.span("episode", episode=1):
        pass


class TestTracerCore:
    def test_round_trip_and_schema(self, tmp_path):
        path = trace_path_for(str(tmp_path / "trace"))
        tracer = Tracer(path).install()
        record_sample(tracer)
        tracer.uninstall()

        records = read_trace(path)
        assert records[0]["type"] == "header"
        assert records[0]["attrs"]["pid"] > 0
        for record in records:
            assert record["schema"] == TRACE_SCHEMA_VERSION
            assert set(record) >= {"schema", "type", "name", "ts", "dur", "id", "attrs"}
        names = [r["name"] for r in records if r["type"] == "span"]
        assert names.count("episode") == 2
        assert "employee.explore" in names

    def test_read_trace_accepts_directory(self, tmp_path):
        directory = str(tmp_path / "trace")
        with Tracer(trace_path_for(directory)) as tracer:
            record_sample(tracer)
        assert read_trace(directory)  # resolves dir -> trace.jsonl

    def test_children_written_before_parents(self, tmp_path):
        path = trace_path_for(str(tmp_path))
        with Tracer(path) as tracer:
            record_sample(tracer)
        spans = [r for r in read_trace(path) if r["type"] == "span"]
        position = {r["id"]: i for i, r in enumerate(spans)}
        for record in spans:
            if record["parent"] is not None and record["parent"] in position:
                assert position[record["id"]] < position[record["parent"]]

    def test_span_tree_nesting(self, tmp_path):
        path = trace_path_for(str(tmp_path))
        with Tracer(path) as tracer:
            record_sample(tracer)
        roots = build_span_tree(read_trace(path))
        assert [r.name for r in roots] == ["episode", "episode"]
        first = roots[0]
        assert [c.name for c in first.children] == ["phase.explore"]
        explore = first.children[0]
        assert sorted(c.name for c in explore.children) == [
            "employee.explore",
            "fault.crash",
        ]
        kinds = {c.name: c.kind for c in explore.children}
        assert kinds["fault.crash"] == "event"
        assert {n.name for n in first.walk()} >= {"episode", "phase.explore"}

    def test_orphan_spans_become_roots(self):
        records = [
            {
                "schema": 1, "type": "span", "name": "child", "ts": 1.0,
                "dur": 0.1, "id": 7, "parent": 99, "attrs": {},
            }
        ]
        roots = build_span_tree(records)
        assert [r.name for r in roots] == ["child"]

    def test_ring_buffer_bounded(self):
        tracer = Tracer(ring_size=3).install()
        for index in range(10):
            tracer.event("tick", index=index)
        tracer.uninstall()
        assert len(tracer.ring) == 3
        assert [r["attrs"]["index"] for r in tracer.ring] == [7, 8, 9]

    def test_double_install_rejected(self, tmp_path):
        first = Tracer().install()
        with pytest.raises(RuntimeError, match="already installed"):
            Tracer().install()
        first.uninstall()
        assert get_tracer() is None

    def test_invalid_ring_size(self):
        with pytest.raises(ValueError):
            Tracer(ring_size=0)

    def test_summary_line(self, tmp_path):
        path = trace_path_for(str(tmp_path))
        with Tracer(path) as tracer:
            tracer.event("tick")
        assert "record(s)" in tracer.summary()


class TestModuleHelpers:
    def test_noop_when_uninstalled(self):
        assert get_tracer() is None
        with span("anything", employee=1) as opened:
            assert opened is None  # the shared null span
        event("anything")  # must not raise

    def test_helpers_route_to_active_tracer(self):
        tracer = Tracer().install()
        with span("outer"):
            event("inner")
        tracer.uninstall()
        names = [r["name"] for r in tracer.ring]
        assert names.count("outer") == 1
        assert names.count("inner") == 1
        inner = next(r for r in tracer.ring if r["name"] == "inner")
        outer = next(r for r in tracer.ring if r["name"] == "outer")
        assert inner["parent"] == outer["id"]


class TestValidation:
    def _write(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def _record(self, **overrides):
        record = {
            "schema": TRACE_SCHEMA_VERSION, "type": "span", "name": "x",
            "ts": 0.0, "dur": 0.0, "id": 1, "parent": None, "attrs": {},
        }
        record.update(overrides)
        return json.dumps(record)

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(self._record() + "\n" + '{"schema": 1, "type": "sp')
        records = read_trace(str(path))
        assert len(records) == 1

    def test_malformed_middle_line_raises(self, tmp_path):
        path = self._write(tmp_path, ["not json", self._record()])
        with pytest.raises(TraceError, match="invalid JSON"):
            read_trace(path)

    def test_missing_field_raises(self, tmp_path):
        broken = json.loads(self._record())
        del broken["name"]
        path = self._write(tmp_path, [json.dumps(broken)])
        with pytest.raises(TraceError, match="missing field"):
            read_trace(path)

    def test_wrong_schema_raises(self, tmp_path):
        path = self._write(tmp_path, [self._record(schema=999)])
        with pytest.raises(TraceError, match="schema"):
            read_trace(path)

    def test_unknown_type_raises(self, tmp_path):
        path = self._write(tmp_path, [self._record(type="mystery")])
        with pytest.raises(TraceError, match="unknown record type"):
            read_trace(path)

    def test_non_object_record_raises(self, tmp_path):
        path = self._write(tmp_path, ["[1, 2]", self._record()])
        with pytest.raises(TraceError, match="not a JSON object"):
            read_trace(path)


class TestSummaries:
    def trace_records(self, tmp_path):
        path = trace_path_for(str(tmp_path))
        with Tracer(path) as tracer:
            record_sample(tracer)
        return read_trace(path)

    def test_summarize_counts(self, tmp_path):
        summary = summarize_trace(self.trace_records(tmp_path))
        assert summary["spans"] == 4
        assert summary["events"] == 1
        assert summary["by_name"]["episode"]["count"] == 2
        assert summary["by_employee"]["employee.explore[1]"]["count"] == 1
        assert summary["event_counts"] == {"fault.crash": 1}
        for agg in summary["by_name"].values():
            assert agg["total"] >= agg["max"] >= 0.0

    def test_render_contains_tables(self, tmp_path):
        text = render_trace_summary(summarize_trace(self.trace_records(tmp_path)))
        assert "per-span timings" in text
        assert "per-employee timings" in text
        assert "employee.explore[1]" in text
        assert "fault.crash" in text
