"""Tests of the runtime autograd sanitizer (NaN/dtype/leak detection)."""

import numpy as np
import pytest

import repro
from repro import nn
from repro.agents.networks import CNNActorCritic
from repro.analysis import Sanitizer, SanitizerError, is_enabled
from repro.analysis import sanitizer as sanitizer_mod
from repro.nn.tensor import Tensor

pytestmark = pytest.mark.sanitize


@pytest.fixture
def sanitizer():
    """An enabled sanitizer that is always disabled on teardown."""
    s = Sanitizer()
    s.enable()
    try:
        yield s
    finally:
        s.disable()


def _tiny_trainer():
    return repro.build_trainer(
        "cews",
        repro.smoke_config(horizon=8, num_pois=10),
        train=repro.TrainConfig(num_employees=2, episodes=2, k_updates=1, seed=0),
        ppo=repro.PPOConfig(batch_size=8, epochs=1),
        seed=0,
    )


def _train_curves():
    trainer = _tiny_trainer()
    try:
        history = trainer.train()
    finally:
        trainer.close()
    params = [p.data.copy() for p in trainer.global_agent.policy_parameters()]
    return history.curve("kappa"), history.curve("policy_loss"), params


class TestNaNDetection:
    def test_injected_nan_weight_caught_with_conv_provenance(self, sanitizer):
        """A NaN weight in the CEWS CNN is blamed on the conv op that used it."""
        rng = np.random.default_rng(0)
        network = CNNActorCritic(channels=4, grid=8, num_workers=2, rng=rng)
        # Inject: poison one element of the first conv kernel.
        conv_weight = network.conv1.weight
        assert conv_weight.ndim == 4
        conv_weight.data[0, 0, 0, 0] = np.nan

        states = rng.random((1, 4, 8, 8))
        with pytest.raises(SanitizerError) as excinfo:
            network.forward(states)
        finding = excinfo.value.finding
        assert finding.code == "SAN001"
        assert finding.kind == "non-finite"
        assert finding.op == "conv2d"
        assert finding.module == "repro.agents.networks"
        assert "non-finite" in str(excinfo.value)

    def test_clean_forward_backward_has_zero_findings(self, sanitizer):
        rng = np.random.default_rng(1)
        network = CNNActorCritic(channels=4, grid=8, num_workers=2, rng=rng)
        output = network.forward(rng.random((2, 4, 8, 8)))
        loss = output.value.sum() + output.move_logits.sum() + output.charge_logits.sum()
        loss.backward()
        assert sanitizer.findings == []
        assert sanitizer.stats.ops_checked > 0
        assert sanitizer.stats.grads_checked > 0

    def test_nan_gradient_caught_in_backward(self, sanitizer):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True, name="leaf-x")
        y = x * 2.0
        bad_grad = np.array([np.nan, 1.0])
        with pytest.raises(SanitizerError) as excinfo:
            y.backward(bad_grad)
        assert excinfo.value.finding.code == "SAN003"
        assert "leaf-x" in excinfo.value.finding.message

    def test_record_mode_accumulates_instead_of_raising(self):
        with Sanitizer(mode="record") as s:
            x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
            (x.log() * 1.0).sum()  # log(0) = -inf at the op boundary
        codes = [f.code for f in s.findings]
        assert "SAN001" in codes
        assert all(code.startswith("SAN") for code in codes)


class TestDtypeDiscipline:
    def test_float32_entering_the_graph_is_caught(self, sanitizer):
        x = Tensor(np.zeros(3, dtype=np.float32))
        x32 = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(SanitizerError) as excinfo:
            x + x32
        finding = excinfo.value.finding
        assert finding.code == "SAN002"
        assert "float32" in finding.message

    def test_float64_passes(self, sanitizer):
        x = Tensor(np.zeros(3), requires_grad=True)
        (x + 1.0).sum().backward()
        assert sanitizer.findings == []


class TestLeakDetector:
    def test_retained_loss_reported_then_cleared(self, sanitizer):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = (x * 2.0).sum()
        loss.backward()
        leaks = sanitizer.leak_report()
        assert leaks, "retained loss tensor should be reported as a leak"
        assert any(leak["op"] == "sum" for leak in leaks)
        for leak in leaks:
            assert set(leak) == {"op", "module", "shape"}
        del loss
        assert sanitizer.leak_report() == []

    def test_dropped_graph_is_not_a_leak(self, sanitizer):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).sum().backward()
        assert sanitizer.leak_report() == []


class TestZeroOverheadOff:
    def test_enable_disable_restores_original_methods(self):
        orig_make = Tensor.__dict__["_make"].__func__
        orig_accumulate = Tensor._accumulate
        orig_backward = Tensor.backward
        s = Sanitizer().enable()
        assert Tensor.__dict__["_make"].__func__ is not orig_make
        s.disable()
        assert Tensor.__dict__["_make"].__func__ is orig_make
        assert Tensor._accumulate is orig_accumulate
        assert Tensor.backward is orig_backward

    def test_double_enable_rejected(self, sanitizer):
        with pytest.raises(RuntimeError):
            Sanitizer().enable()

    def test_module_level_helpers(self):
        assert not is_enabled()
        s = sanitizer_mod.enable()
        try:
            assert is_enabled()
            assert sanitizer_mod.active() is s
            assert sanitizer_mod.enable() is s  # idempotent
        finally:
            assert sanitizer_mod.disable() is s
        assert not is_enabled()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Sanitizer(mode="explode")


class TestBitwiseEquivalence:
    """Sanitizing must never perturb the numbers; off must equal seed."""

    def test_sanitized_and_plain_runs_are_bitwise_identical(self):
        kappa_plain, loss_plain, params_plain = _train_curves()
        with Sanitizer() as s:
            kappa_sane, loss_sane, params_sane = _train_curves()
        assert s.findings == []
        assert kappa_plain == kappa_sane
        assert loss_plain == loss_sane
        for a, b in zip(params_plain, params_sane):
            assert np.array_equal(a, b)

    def test_run_after_disable_is_bitwise_identical_to_seed(self):
        kappa_before, loss_before, params_before = _train_curves()
        Sanitizer().enable().disable()  # a full enable/disable cycle
        kappa_after, loss_after, params_after = _train_curves()
        assert kappa_before == kappa_after
        assert loss_before == loss_after
        for a, b in zip(params_before, params_after):
            assert np.array_equal(a, b)


class TestEnvToggle:
    def test_summary_mentions_counts(self, sanitizer):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 3.0).sum().backward()
        summary = sanitizer.summary()
        assert "op outputs" in summary
        assert "0 finding(s)" in summary
