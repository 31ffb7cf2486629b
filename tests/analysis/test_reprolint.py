"""Tests of the reprolint engine, rule set, suppressions and reporters."""

import json
import os

import pytest

from repro.analysis import (
    RULES,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    parse_suppressions,
    program_rule_table,
    render_json,
    render_sarif,
    render_text,
    rule_table,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# fixture file -> (rule code, expected finding count)
FIXTURE_EXPECTATIONS = {
    "rpl001_global_rng.py": ("RPL001", 3),
    "rpl002_dtype_narrowing.py": ("RPL002", 3),
    "rpl003_tensor_mutation.py": ("RPL003", 3),
    "rpl004_mutable_default.py": ("RPL004", 3),
    "rpl005_lock_discipline.py": ("RPL005", 1),
    "rpl006_wall_clock.py": ("RPL006", 2),
    "rpl007_swallowed_exception.py": ("RPL007", 2),
    os.path.join("rpl008_module_seed", "test_module_seed.py"): ("RPL008", 2),
    "rpl009_bare_print.py": ("RPL009", 2),
    os.path.join("rpl010_index_alloc", "repro", "nn", "hot_ops.py"): ("RPL010", 4),
    os.path.join(
        "rpl011_fork_state", "repro", "distributed", "bad_worker.py"
    ): ("RPL011", 3),
    os.path.join(
        "rpl012_raw_socket", "repro", "telemetry", "raw_push.py"
    ): ("RPL012", 3),
    "rpl017_naked_span.py": ("RPL017", 3),
}


class TestRegistry:
    def test_all_rules_registered(self):
        assert sorted(RULES) == [f"RPL00{i}" for i in range(1, 10)] + [
            "RPL010",
            "RPL011",
            "RPL012",
            "RPL017",
        ]

    def test_rule_table_rows(self):
        rows = rule_table()
        assert [code for code, __, __ in rows] == sorted(RULES)
        for __, name, description in rows:
            assert name and description


class TestFixtureCorpus:
    """Every known-bad fixture trips exactly its own rule."""

    @pytest.mark.parametrize("relpath,expected", sorted(FIXTURE_EXPECTATIONS.items()))
    def test_fixture_trips_its_rule(self, relpath, expected):
        code, count = expected
        findings = lint_file(os.path.join(FIXTURES, relpath))
        assert [f.code for f in findings] == [code] * count
        for finding in findings:
            assert finding.line > 0
            assert finding.rule == RULES[code].name

    def test_fixture_corpus_is_red_as_a_tree(self):
        findings = lint_paths([FIXTURES], excluded_dirs=("__pycache__",))
        codes = {f.code for f in findings}
        assert codes == set(RULES), f"missing rules in corpus: {set(RULES) - codes}"


class TestRepoIsClean:
    """The acceptance gate: the real tree has zero findings."""

    def test_src_is_clean(self):
        assert lint_paths([os.path.join(REPO_ROOT, "src")]) == []

    def test_tests_are_clean(self):
        assert lint_paths([os.path.join(REPO_ROOT, "tests")]) == []

    def test_benchmarks_and_examples_are_clean(self):
        """Satellite sweep: the curated subset (everything except RPL008,
        whose module-seed convention is for pytest files and conflicts
        with the benchmark drivers' explicit seeding style) is clean on
        the script trees."""
        findings = lint_paths(
            [
                os.path.join(REPO_ROOT, "benchmarks"),
                os.path.join(REPO_ROOT, "examples"),
            ],
            ignore=["RPL008"],
        )
        assert findings == []

    def test_rpl005_clean_on_fault_tolerance_modules(self):
        """Satellite sweep: PR 1's shared-state modules pass lock discipline."""
        for name in ("trainer.py", "gradient_buffer.py", "faults.py"):
            path = os.path.join(REPO_ROOT, "src", "repro", "distributed", name)
            assert lint_file(path, select=["RPL005"]) == [], name


class TestSuppressions:
    def test_same_line_suppression(self):
        source = "import numpy as np\nnp.random.seed(0)  # reprolint: disable=RPL001\n"
        assert lint_source(source, "src/repro/foo.py") == []

    def test_standalone_comment_covers_next_line(self):
        source = (
            "import numpy as np\n"
            "# reprolint: disable=RPL001\n"
            "np.random.seed(0)\n"
        )
        assert lint_source(source, "src/repro/foo.py") == []

    def test_wrong_code_does_not_suppress(self):
        source = "import numpy as np\nnp.random.seed(0)  # reprolint: disable=RPL004\n"
        findings = lint_source(source, "src/repro/foo.py")
        assert [f.code for f in findings] == ["RPL001"]

    def test_multiple_codes(self):
        source = (
            "import time\n"
            "def f(x=[]):  # reprolint: disable=RPL004,RPL006\n"
            "    time.sleep(1)  # reprolint: disable=RPL006\n"
        )
        assert lint_source(source, "src/repro/foo.py") == []

    def test_parse_suppressions_map(self):
        mapping = parse_suppressions("x = 1  # reprolint: disable=RPL001\n")
        assert mapping == {1: {"RPL001"}}


class TestPathScoping:
    """Rules honour whitelists keyed on the (pretend) file location."""

    def test_rpl002_exempt_inside_nn(self):
        source = "import numpy as np\ny = x.astype(np.float32)\n"
        assert lint_source(source, "src/repro/nn/tensor.py") == []
        assert [f.code for f in lint_source(source, "src/repro/env/env.py")] == ["RPL002"]

    def test_rpl003_whitelisted_in_optim(self):
        source = "param.data -= lr * update\n"
        assert lint_source(source, "src/repro/nn/optim.py") == []
        assert [f.code for f in lint_source(source, "src/repro/env/env.py")] == ["RPL003"]

    def test_rpl006_fault_injector_may_sleep(self):
        source = "import time\ntime.sleep(1)\n"
        assert lint_source(source, "src/repro/distributed/faults.py") == []
        assert [f.code for f in lint_source(source, "src/repro/env/env.py")] == ["RPL006"]

    def test_rpl006_trainer_backoff_sleeps_but_not_clock_reads(self):
        sleep = "import time\ntime.sleep(1)\n"
        clock = "import time\nt = time.time()\n"
        assert lint_source(sleep, "src/repro/distributed/trainer.py") == []
        assert [
            f.code for f in lint_source(clock, "src/repro/distributed/trainer.py")
        ] == ["RPL006"]

    def test_src_rules_skip_test_files(self):
        # Inside a function so RPL008 (module-level seed) does not apply.
        source = "import numpy as np\ndef seed():\n    np.random.seed(0)\n"
        assert lint_source(source, "tests/test_foo.py") == []
        assert [f.code for f in lint_source(source, "src/repro/foo.py")] == ["RPL001"]

    def test_rpl009_whitelists_cli_and_reporting_modules(self):
        source = "print('hello')\n"
        assert lint_source(source, "src/repro/__main__.py") == []
        assert lint_source(source, "src/repro/analysis/cli.py") == []
        assert lint_source(source, "src/repro/analysis/reporters.py") == []
        assert lint_source(source, "examples/quickstart.py") == []
        assert lint_source(source, "benchmarks/bench_scaling.py") == []
        assert lint_source(source, "tests/test_foo.py") == []
        assert [f.code for f in lint_source(source, "src/repro/env/env.py")] == [
            "RPL009"
        ]

    def test_rpl010_scoped_to_nn_modules(self):
        # np.add.at is legitimate outside the nn framework (the state
        # encoder's density channels genuinely need duplicate
        # accumulation), so the rule only patrols repro/nn/.
        source = "import numpy as np\nnp.add.at(grid, cells, 1.0)\n"
        assert lint_source(source, "src/repro/env/state.py") == []
        assert [f.code for f in lint_source(source, "src/repro/nn/functional.py")] == [
            "RPL010"
        ]

    def test_rpl010_builders_flagged_per_call_but_not_in_plans(self):
        hot = (
            "import numpy as np\n"
            "def conv2d(x, k):\n"
            "    i = np.arange(k)\n"
            "    return np.repeat(i, k)\n"
        )
        plan = (
            "import numpy as np\n"
            "def _plan_for(k):\n"
            "    return np.tile(np.arange(k), k)\n"
            "class _KernelPlan:\n"
            "    def __init__(self, k):\n"
            "        self.idx = np.arange(k)\n"
        )
        assert [f.code for f in lint_source(hot, "src/repro/nn/functional.py")] == [
            "RPL010",
            "RPL010",
        ]
        assert lint_source(plan, "src/repro/nn/functional.py") == []

    def test_rpl012_raw_io_allowed_only_in_transport(self):
        source = (
            "import socket\n"
            "sock = socket.create_connection(('h', 1))\n"
            "sock.sendall(b'x')\n"
        )
        assert (
            lint_source(
                source, "src/repro/distributed/transport/socket_transport.py"
            )
            == []
        )
        assert [
            f.code for f in lint_source(source, "src/repro/obs/push.py")
        ] == ["RPL012", "RPL012"]

    def test_rpl012_pipe_send_without_socket_import_is_fine(self):
        # procpool's multiprocessing pipes share the .send/.recv method
        # names; without a socket import the rule stays out of the way.
        source = "def f(conn):\n    conn.send((1, 2))\n    return conn.recv()\n"
        assert lint_source(source, "src/repro/distributed/procpool.py") == []

    def test_rpl010_suppressible_at_call_site(self):
        source = (
            "import numpy as np\n"
            "def backward(full, index, grad):\n"
            "    np.add.at(full, index, grad)  # reprolint: disable=RPL010\n"
        )
        assert lint_source(source, "src/repro/nn/tensor.py") == []

    def test_rpl011_only_patrols_distributed_worker_entrypoints(self):
        source = (
            "import numpy as np\n"
            "_state = {}\n"
            "def helper():\n"  # not an entrypoint: name + no target= ref
            "    return _state\n"
        )
        assert lint_source(source, "src/repro/distributed/util.py") == []
        worker = source.replace("def helper", "def helper_worker_main")
        assert [
            f.code for f in lint_source(worker, "src/repro/distributed/util.py")
        ] == ["RPL011"]
        # Outside repro/distributed/ the rule stays silent entirely.
        assert lint_source(worker, "src/repro/env/util.py") == []

    def test_rpl011_detects_process_target_entrypoints(self):
        source = (
            "import multiprocessing as mp\n"
            "_plan = []\n"
            "def run(conn):\n"
            "    conn.send(list(_plan))\n"
            "def spawn():\n"
            "    return mp.get_context('fork').Process(target=run, args=(None,))\n"
        )
        findings = lint_source(source, "src/repro/distributed/pool.py")
        assert [f.code for f in findings] == ["RPL011"]
        assert "_plan" in findings[0].message

    def test_rpl011_explicit_spec_worker_is_clean(self):
        source = (
            "import numpy as np\n"
            "SLAB_HEADER = 4\n"  # ALL_CAPS constants stay readable
            "def employee_worker_main(spec, conn):\n"
            "    rng = np.random.default_rng(spec.seed)\n"
            "    local = {}\n"
            "    local['n'] = SLAB_HEADER\n"
            "    conn.send(rng.random())\n"
        )
        assert lint_source(source, "src/repro/distributed/pool.py") == []

    def test_rpl017_flags_naked_spans_only(self):
        source = (
            "from repro.obs.trace import span as trace_span\n"
            "def f(tracer):\n"
            "    trace_span('phase')\n"
            "    with trace_span('ok'):\n"
            "        pass\n"
            "    return tracer.span('deferred')\n"
        )
        assert [f.code for f in lint_source(source, "src/repro/foo.py")] == [
            "RPL017"
        ]
        # Unrelated `.span` receivers (a regex match, say) stay in scope
        # only when the receiver looks like a tracer.
        other = "def g(match):\n    match.span(1)\n"
        assert lint_source(other, "src/repro/foo.py") == []

    def test_rpl008_only_fires_in_test_files(self):
        source = "import numpy as np\nnp.random.seed(0)\n"
        codes = {f.code for f in lint_source(source, "tests/test_foo.py", select=["RPL008"])}
        assert codes == {"RPL008"}
        assert lint_source(source, "src/repro/foo.py", select=["RPL008"]) == []


class TestEngine:
    def test_syntax_error_becomes_rpl000(self):
        findings = lint_source("def broken(:\n", "src/repro/broken.py")
        assert [f.code for f in findings] == ["RPL000"]

    def test_select_and_ignore(self):
        source = "import numpy as np\nnp.random.seed(0)\ndef f(x=[]):\n    pass\n"
        all_codes = [f.code for f in lint_source(source, "src/repro/foo.py")]
        assert all_codes == ["RPL001", "RPL004"]
        assert [
            f.code for f in lint_source(source, "src/repro/foo.py", select=["RPL004"])
        ] == ["RPL004"]
        assert [
            f.code for f in lint_source(source, "src/repro/foo.py", ignore=["RPL004"])
        ] == ["RPL001"]

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            lint_source("x = 1\n", "src/repro/foo.py", select=["RPL999"])

    def test_iter_python_files_skips_fixture_dirs(self):
        files = iter_python_files([os.path.dirname(__file__)])
        assert files, "expected the analysis test modules themselves"
        assert all("fixtures" not in path for path in files)

    def test_lint_paths_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["does/not/exist"])

    def test_findings_sorted_and_locatable(self):
        findings = lint_paths([FIXTURES], excluded_dirs=("__pycache__",))
        assert findings == sorted(findings, key=lambda f: f.sort_key())


class TestReporters:
    def _findings(self):
        return lint_file(os.path.join(FIXTURES, "rpl001_global_rng.py"))

    def test_text_report(self):
        report = render_text(self._findings())
        assert "RPL001" in report
        assert "reprolint: 3 findings" in report
        assert render_text([]) == "reprolint: no findings"

    def test_json_report_round_trips(self):
        payload = json.loads(render_json(self._findings()))
        assert payload["total"] == 3
        assert payload["summary"] == {"RPL001": 3}
        first = payload["findings"][0]
        assert set(first) == {"code", "rule", "path", "line", "col", "message"}

    def test_json_report_empty(self):
        payload = json.loads(render_json([]))
        assert payload == {"findings": [], "summary": {}, "total": 0}


class TestSarifReporter:
    def _findings(self):
        return lint_file(os.path.join(FIXTURES, "rpl001_global_rng.py"))

    def test_sarif_envelope(self):
        payload = json.loads(render_sarif(self._findings()))
        assert payload["version"] == "2.1.0"
        assert "sarif" in payload["$schema"]
        (run,) = payload["runs"]
        assert run["tool"]["driver"]["name"] == "reprolint"

    def test_sarif_results_locate_findings(self):
        findings = self._findings()
        payload = json.loads(render_sarif(findings))
        results = payload["runs"][0]["results"]
        assert len(results) == len(findings) == 3
        for finding, result in zip(findings, results):
            assert result["ruleId"] == finding.code
            assert result["level"] == "error"
            assert result["message"]["text"] == finding.message
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].endswith(
                "rpl001_global_rng.py"
            )
            assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
            assert location["region"]["startLine"] == finding.line
            assert location["region"]["startColumn"] == finding.col + 1

    def test_sarif_rule_metadata_and_index(self):
        table = rule_table() + program_rule_table()
        payload = json.loads(render_sarif(self._findings(), rules=table))
        driver = payload["runs"][0]["tool"]["driver"]
        ids = [rule["id"] for rule in driver["rules"]]
        assert ids == [code for code, __, __ in table]
        for result in payload["runs"][0]["results"]:
            assert ids[result["ruleIndex"]] == result["ruleId"]

    def test_sarif_empty_run(self):
        payload = json.loads(render_sarif([]))
        assert payload["runs"][0]["results"] == []
