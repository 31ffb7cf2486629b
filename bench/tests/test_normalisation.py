"""Normalisation self-test (``python bench/run.py --selftest``; not tier-1).

Feeds the statistics code synthetic segments scaled by a known slowdown
schedule and asserts every normalised end-to-end metric comes back within
1% of the unscaled truth.
"""

from __future__ import annotations

import ast
import sys
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent.parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from stats import Segment, summarise  # noqa: E402

REF_MS = 2.4
TIMED = ("ops_per_s", "p50_ms", "p90_ms", "cpu_ms_per_op")


def _schedule(count: int, rng: np.random.Generator) -> np.ndarray:
    """Host slowdown per segment: 1.0-1.6x, drifting, one 3x burst."""
    drift = 1.3 + 0.3 * np.sin(np.linspace(0.0, 5.0, count))
    slowdown = np.clip(drift + rng.normal(0.0, 0.03, count), 1.0, 1.6)
    slowdown[count // 3] = 3.0
    return slowdown


def _segments(truth, slowdown, control_slowdown, rng) -> list:
    """``truth`` = [(ops, latencies_ms, wall_s, cpu_s)] at full speed."""
    out = []
    for (ops, latencies, wall, cpu), s, c in zip(truth, slowdown, control_slowdown):
        jitter = 1.0 + rng.normal(0.0, 0.003, 2)  # the control is noisy too
        out.append(
            Segment(
                ops=ops,
                wall_s=wall * s,
                latencies_ms=latencies * s,
                cpu_s=cpu * s,
                control_before_ms=REF_MS * c * jitter[0],
                control_after_ms=REF_MS * c * jitter[1],
            )
        )
    return out


def _serve_truth(rng, count=48, per_segment=2000):
    truth = []
    for __ in range(count):
        latencies = rng.lognormal(np.log(4.0), 0.25, per_segment)
        wall = latencies.sum() / 16.0 / 1e3  # 16 in flight
        truth.append((per_segment, latencies, wall, wall * 1.4))
    return truth


def _train_truth(rng, count=170):
    truth = []
    for __ in range(count):
        wall = rng.normal(0.2, 0.004)
        truth.append((1, np.array([wall * 1e3]), wall, wall * 0.98))
    return truth


def _check(truth, group, pooled, seed) -> None:
    rng = np.random.default_rng(seed)
    ones = np.ones(len(truth))
    expected = summarise(_segments(truth, ones, ones, rng), REF_MS, group, pooled)
    slowdown = _schedule(len(truth), rng)
    got = summarise(_segments(truth, slowdown, slowdown, rng), REF_MS, group, pooled)
    for name in TIMED:
        error = abs(got[name] / expected[name] - 1.0)
        assert error < 0.01, f"{name}: {got[name]} vs truth {expected[name]} ({error:.2%})"
    raw_error = abs(got["harness.raw_ops_per_s"] / expected["harness.raw_ops_per_s"] - 1.0)
    assert raw_error > 0.15, "the raw twin should show the slowdown, not hide it"


def test_serve_shaped_segments_normalise_to_truth():
    _check(_serve_truth(np.random.default_rng(1)), group=1, pooled=False, seed=11)


def test_train_shaped_segments_normalise_to_truth():
    _check(_train_truth(np.random.default_rng(2)), group=10, pooled=True, seed=12)


def test_burst_the_control_missed_does_not_move_the_median():
    """One segment 3x slow while its bracketing controls read normal."""
    rng = np.random.default_rng(3)
    truth = _serve_truth(rng)
    ones = np.ones(len(truth))
    expected = summarise(_segments(truth, ones, ones, rng), REF_MS)
    burst = ones.copy()
    burst[7] = 3.0
    got = summarise(_segments(truth, burst, ones, rng), REF_MS)
    for name in TIMED:
        assert abs(got[name] / expected[name] - 1.0) < 0.01, name


def test_control_kernel_imports_nothing_from_repro():
    tree = ast.parse((BENCH_DIR / "control.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported, "expected control.py to import numpy and time"
    assert not [m for m in imported if m.split(".")[0] == "repro"], imported


def run_all() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception:
            failed += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_all())
