"""Shared fixtures for the observability suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents import PPOConfig
from repro.distributed import TrainConfig, build_trainer, save_checkpoint
from repro.env import smoke_config
from repro.obs import MetricsRegistry, get_profiler, get_tracer, set_registry


def seeded_cews_run(checkpoint_path, backend="serial", **train_overrides):
    """One deterministic 2-episode CEWS training run.

    Returns ``(curves, checkpoint_arrays)`` where ``curves`` are the
    per-episode float series of the history and ``checkpoint_arrays`` is
    the full content of the saved checkpoint (parameters, Adam moments,
    RNG states, manifest+checksum) — the bitwise fingerprint of the run.
    ``backend`` picks the employee driver (serial/process/socket); the
    fingerprint must not depend on it.
    """
    trainer = build_trainer(
        "cews",
        smoke_config(seed=5, horizon=10, num_pois=15),
        train=TrainConfig(
            num_employees=2,
            episodes=2,
            k_updates=1,
            seed=0,
            backend=backend,
            **train_overrides,
        ),
        ppo=PPOConfig(batch_size=10, epochs=1),
    )
    history = trainer.train()
    save_checkpoint(trainer, str(checkpoint_path))
    trainer.close()
    curves = (
        history.curve("kappa"),
        history.curve("rho"),
        history.curve("policy_loss"),
        history.curve("value_loss"),
        history.curve("extrinsic_reward"),
    )
    with np.load(str(checkpoint_path)) as archive:
        arrays = {key: archive[key].copy() for key in archive.files}
    return curves, arrays


def assert_runs_bitwise_equal(first, second):
    """Histories float-equal and checkpoint arrays byte-equal."""
    curves_a, arrays_a = first
    curves_b, arrays_b = second
    assert curves_a == curves_b
    assert sorted(arrays_a) == sorted(arrays_b)
    for key in arrays_a:
        assert arrays_a[key].dtype == arrays_b[key].dtype, key
        assert np.array_equal(arrays_a[key], arrays_b[key]), key


@pytest.fixture
def registry():
    """Swap in a fresh default registry; restore the old one afterwards."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture(autouse=True)
def no_leaked_instrumentation():
    """A failing test must not leave a tracer/profiler installed."""
    yield
    tracer = get_tracer()
    if tracer is not None:
        tracer.uninstall()
    profiler = get_profiler()
    if profiler is not None:
        profiler.disable()
