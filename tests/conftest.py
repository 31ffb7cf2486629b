"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.env import CrowdsensingEnv, ScenarioConfig, smoke_config
from repro.experiments.scales import Scale


def process_alive(pid: int) -> bool:
    """Whether ``pid`` is a running process (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_config() -> ScenarioConfig:
    """A very small scenario used across env/agent tests."""
    return smoke_config(seed=3, horizon=12, num_pois=12, num_workers=2)


@pytest.fixture
def tiny_env(tiny_config) -> CrowdsensingEnv:
    return CrowdsensingEnv(tiny_config, reward_mode="sparse")


@pytest.fixture
def tiny_scale() -> Scale:
    """A scale preset small enough for experiment-runner tests."""
    return Scale(
        name="smoke",  # reuses smoke sweep-value tables
        grid=8,
        size=8.0,
        num_pois=15,
        num_workers=2,
        num_stations=1,
        horizon=10,
        energy_budget=6.0,
        episodes=2,
        num_employees=2,
        k_updates=1,
        batch_size=10,
        eval_episodes=1,
    )


def finite_difference_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn(x)
        flat[i] = original - eps
        down = fn(x)
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


@pytest.fixture
def gradcheck():
    """Fixture returning a gradient checker for Tensor-valued functions."""
    from repro import nn

    def check(fn, x: np.ndarray, atol: float = 1e-6) -> None:
        tensor = nn.Tensor(x.copy(), requires_grad=True)
        out = fn(tensor)
        out.backward()
        analytic = tensor.grad
        numeric = finite_difference_grad(lambda arr: fn(nn.Tensor(arr)).item(), x.copy())
        np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)

    return check
