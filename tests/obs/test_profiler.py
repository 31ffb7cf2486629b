"""Autograd profiler: patching contract, stats, bitwise equivalence."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import OPS, Tensor
from repro.obs import OpProfiler, get_profiler
from repro.obs.profiler import _FLOPS

from .conftest import assert_runs_bitwise_equal, seeded_cews_run

pytestmark = pytest.mark.obs


class TestPatchingContract:
    def test_enable_disable_restores_every_callable(self):
        """The profiler patches exactly ``_make`` and ``backward``."""

        def surfaces():
            return {
                name: getattr(value, "__func__", value)  # unwrap staticmethod
                for name, value in Tensor.__dict__.items()
            }

        before = surfaces()
        functional_before = dict(vars(F))
        profiler = OpProfiler().enable()
        after = surfaces()
        assert {name for name in before if after[name] is not before[name]} == {
            "_make",
            "backward",
        }
        profiler.disable()

        assert surfaces() == before
        assert dict(vars(F)) == functional_before

    def test_double_enable_rejected(self):
        first = OpProfiler().enable()
        try:
            with pytest.raises(RuntimeError, match="already enabled"):
                OpProfiler().enable()
        finally:
            first.disable()
        assert get_profiler() is None

    def test_context_manager(self):
        with OpProfiler() as profiler:
            assert profiler.enabled
            assert get_profiler() is profiler
        assert not profiler.enabled
        assert get_profiler() is None

    def test_idempotent_enable_and_disable(self):
        profiler = OpProfiler()
        profiler.disable()  # no-op before enable
        profiler.enable()
        profiler.enable()  # no-op while enabled
        profiler.disable()
        profiler.disable()


class TestStats:
    def test_records_tensor_and_functional_ops(self):
        with OpProfiler() as profiler:
            a = Tensor(np.ones((4, 3)))
            b = Tensor(np.ones((3, 5)), requires_grad=True)
            out = (a @ b).tanh().sum()
            out.backward()
        names = {stats.name for stats in profiler.hotspots()}
        assert {"__matmul__", "tanh", "sum", "backward"} <= names
        matmul = next(s for s in profiler.hotspots() if s.name == "__matmul__")
        assert matmul.calls == 1
        assert matmul.flops == 2 * 4 * 5 * 3
        assert matmul.bytes > 0
        assert matmul.seconds >= 0.0

    def test_composite_functions_report_under_their_entries(self):
        with OpProfiler() as profiler:
            x = Tensor(np.ones((2, 3)))
            weight = Tensor(np.ones((4, 3)))
            bias = Tensor(np.zeros(4))
            F.linear(x, weight, bias).mean()
        by_name = {s.name: s for s in profiler.hotspots()}
        assert set(by_name) == {"transpose", "__matmul__", "__add__", "sum", "__mul__"}
        assert by_name["__matmul__"].flops == 2 * 2 * 4 * 3

    def test_flop_estimates_name_registry_entries(self):
        assert set(_FLOPS) <= set(OPS)

    def test_values_unchanged_by_profiling(self):
        a = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        plain = Tensor(a).sigmoid().mean().item()
        with OpProfiler():
            profiled = Tensor(a).sigmoid().mean().item()
        assert plain == profiled  # bitwise, not approx

    def test_reset_and_render(self):
        with OpProfiler() as profiler:
            Tensor(np.ones(3)).sum()
        assert "autograd hot spots" in profiler.render_table()
        assert "MFLOP" in profiler.render_table()
        assert "op call(s)" in profiler.summary()
        profiler.reset()
        assert profiler.render_table() == "profiler: no ops recorded"
        assert profiler.total_time() == 0.0


class TestBitwiseEquivalence:
    """Acceptance gate: profiling off/on/off yields identical training."""

    def test_profiled_run_bitwise_identical(self, tmp_path):
        baseline = seeded_cews_run(tmp_path / "baseline.npz")

        profiler = OpProfiler().enable()
        try:
            profiled = seeded_cews_run(tmp_path / "profiled.npz")
        finally:
            profiler.disable()
        assert_runs_bitwise_equal(baseline, profiled)
        assert profiler.hotspots(), "profiler saw no ops during training"

        # After disable the unwrapped framework behaves identically too.
        post = seeded_cews_run(tmp_path / "post.npz")
        assert_runs_bitwise_equal(baseline, post)

    def test_profile_of_training_covers_hot_ops(self, tmp_path):
        with OpProfiler() as profiler:
            seeded_cews_run(tmp_path / "run.npz")
        names = {stats.name for stats in profiler.hotspots()}
        assert "backward" in names
        assert "conv2d" in names
        total = profiler.total_time()
        assert total > 0.0
        assert sum(s.seconds for s in profiler.hotspots()) == pytest.approx(total)
