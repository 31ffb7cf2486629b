"""Tests of the reprolint engine, rule set, suppressions and reporters."""

import io
import json
import os
import tokenize

import pytest

from repro.analysis.cli import main as lint_main
from repro.analysis.engine import (
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    parse_suppressions,
)
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import RULES, rule_table

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# The im2col/col2im shape from before the cached kernel plans: per-call
# index arrays and an np.add.at scatter, the regression RPL010 re-finds.
PRE_PLAN_KERNELS = os.path.join(FIXTURES, "rpl010_index_alloc", "repro", "nn", "hot_ops.py")

# fixture file -> (rule code, lines of the expected findings): one
# regression from this repo's history per surviving rule.
FIXTURE_EXPECTATIONS = {
    os.path.relpath(PRE_PLAN_KERNELS, FIXTURES): ("RPL010", [13, 14, 15, 21]),
}


class TestRegistry:
    def test_all_rules_registered(self):
        """Only rules with a caught regression stay (DESIGN § 6g)."""
        assert sorted(RULES) == ["RPL010"]

    def test_rule_table_rows(self):
        rows = rule_table()
        assert [code for code, __, __ in rows] == sorted(RULES)
        for __, name, description in rows:
            assert name and description


class TestFixtureCorpus:
    """Each surviving rule re-finds the regression that earns its place."""

    @pytest.mark.parametrize("relpath,expected", sorted(FIXTURE_EXPECTATIONS.items()))
    def test_fixture_trips_its_rule(self, relpath, expected):
        code, lines = expected
        findings = lint_file(os.path.join(FIXTURES, relpath))
        assert [f.code for f in findings] == [code] * len(lines)
        assert [f.line for f in findings] == lines
        for finding in findings:
            assert finding.rule == RULES[code].name

    def test_fixture_corpus_is_red_as_a_tree(self):
        codes = {f.code for f in lint_paths([FIXTURES])}
        assert codes == set(RULES), f"missing rules in corpus: {set(RULES) - codes}"


class TestRepoIsClean:
    """The acceptance gate: the real tree has zero findings."""

    def test_src_is_clean(self):
        assert lint_paths([os.path.join(REPO_ROOT, "src")]) == []

    def test_tests_are_clean(self):
        assert lint_paths([os.path.join(REPO_ROOT, "tests")]) == []

    def test_benchmarks_and_examples_are_clean(self):
        findings = lint_paths(
            [
                os.path.join(REPO_ROOT, "benchmarks"),
                os.path.join(REPO_ROOT, "examples"),
            ]
        )
        assert findings == []


class TestNoStaleSuppressions:
    def test_every_suppressed_code_is_a_registered_rule(self):
        """A ``# reprolint: disable=`` comment naming a rule that no
        longer exists suppresses nothing and only misleads."""
        roots = [
            os.path.join(REPO_ROOT, name)
            for name in ("src", "tests", "benchmarks", "examples")
        ]
        stale = []
        for path in iter_python_files(roots):
            with open(path, "rb") as handle:
                tokens = tokenize.tokenize(io.BytesIO(handle.read()).readline)
                for token in tokens:
                    if token.type != tokenize.COMMENT:
                        continue
                    for codes in parse_suppressions(token.string).values():
                        for code in sorted(codes - set(RULES)):
                            stale.append(f"{path}:{token.start[0]}: {code}")
        assert stale == []


class TestSuppressions:
    SCATTER = "import numpy as np\ndef f(a, i, g):\n    np.add.at(a, i, g)"

    def test_same_line_suppression(self):
        source = self.SCATTER + "  # reprolint: disable=RPL010\n"
        assert lint_source(source, "src/repro/nn/foo.py") == []

    def test_standalone_comment_covers_next_line(self):
        source = self.SCATTER.replace(
            "    np.add", "    # reprolint: disable=RPL010\n    np.add"
        )
        assert lint_source(source, "src/repro/nn/foo.py") == []

    def test_wrong_code_does_not_suppress(self):
        source = self.SCATTER + "  # reprolint: disable=RPL000\n"
        findings = lint_source(source, "src/repro/nn/foo.py")
        assert [f.code for f in findings] == ["RPL010"]

    def test_multiple_codes(self):
        source = self.SCATTER + "  # reprolint: disable=RPL000, RPL010\n"
        assert lint_source(source, "src/repro/nn/foo.py") == []

    def test_parse_suppressions_map(self):
        mapping = parse_suppressions("x = 1  # reprolint: disable=RPL010\n")
        assert mapping == {1: {"RPL010"}}


class TestPathScoping:
    """RPL010 honours its scope keyed on the (pretend) file location."""

    def test_rpl010_scoped_to_nn_modules(self):
        # np.add.at is legitimate outside the nn framework (the state
        # encoder's density channels genuinely need duplicate
        # accumulation), so the rule only patrols repro/nn/.
        source = "import numpy as np\nnp.add.at(grid, cells, 1.0)\n"
        assert lint_source(source, "src/repro/env/state.py") == []
        assert [f.code for f in lint_source(source, "src/repro/nn/functional.py")] == [
            "RPL010"
        ]

    def test_src_rules_skip_test_files(self):
        source = "import numpy as np\nnp.add.at(grid, cells, 1.0)\n"
        assert lint_source(source, "tests/nn/test_functional.py") == []
        assert lint_source(source, "src/repro/nn/conftest.py") == []

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

    def test_rpl010_suppressible_at_call_site(self):
        source = (
            "import numpy as np\n"
            "def backward(full, index, grad):\n"
            "    np.add.at(full, index, grad)  # reprolint: disable=RPL010\n"
        )
        assert lint_source(source, "src/repro/nn/tensor.py") == []


class TestEngine:
    def test_syntax_error_becomes_rpl000(self):
        findings = lint_source("def broken(:\n", "src/repro/broken.py")
        assert [f.code for f in findings] == ["RPL000"]

    def test_iter_python_files_skips_fixture_dirs(self):
        files = iter_python_files([os.path.dirname(__file__)])
        assert files, "expected the analysis test modules themselves"
        assert all("fixtures" not in path for path in files)

    def test_lint_paths_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["does/not/exist"])

    def test_findings_sorted_and_locatable(self):
        findings = lint_paths([PRE_PLAN_KERNELS])
        assert findings == sorted(findings, key=lambda f: f.sort_key())


class TestReporters:
    def _findings(self):
        return lint_file(PRE_PLAN_KERNELS)

    def test_text_report(self):
        report = render_text(self._findings())
        assert "RPL010" in report
        assert "reprolint: 4 findings" in report
        assert render_text([]) == "reprolint: no findings"

    def test_json_report_round_trips(self):
        payload = json.loads(render_json(self._findings()))
        assert payload["total"] == 4
        assert payload["summary"] == {"RPL010": 4}
        first = payload["findings"][0]
        assert set(first) == {"code", "rule", "path", "line", "col", "message"}

    def test_json_report_empty(self):
        payload = json.loads(render_json([]))
        assert payload == {"findings": [], "summary": {}, "total": 0}


class TestCli:
    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        assert capsys.readouterr().out.split()[0] == "RPL010"

    def test_findings_exit_1_and_missing_path_exit_2(self, capsys):
        assert lint_main(["--format", "json", PRE_PLAN_KERNELS]) == 1
        assert json.loads(capsys.readouterr().out)["total"] == 4
        assert lint_main(["does/not/exist"]) == 2
