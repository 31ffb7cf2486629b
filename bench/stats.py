"""Segment statistics: how raw timings become the reported metrics.

A run is a sequence of *segments*.  The control kernel is sampled right
before and after each one, outside any timed interval, and every raw
duration ``t`` taken inside the segment becomes::

    t * control_ref_ms / control_local_ms

where ``control_local_ms`` is the mean of the two bracketing samples and
``control_ref_ms`` is the constant in ``calibration.json``.  Statistics are
computed on the normalised values and a metric is the **median across
segments** (or groups of segments), so one burst segment cannot move it.

Pure functions of their arguments — ``--selftest`` feeds them synthetic
segments with a known slowdown schedule.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

__all__ = ["Segment", "summarise", "spread"]


@dataclass
class Segment:
    """One bracketed slice of a run (raw, un-normalised values)."""

    ops: int
    wall_s: float
    latencies_ms: np.ndarray
    cpu_s: float
    control_before_ms: float
    control_after_ms: float

    @property
    def control_local_ms(self) -> float:
        return 0.5 * (self.control_before_ms + self.control_after_ms)


def _grouped(values: np.ndarray, group: int) -> np.ndarray:
    """Sums over consecutive groups of ``group`` (a short tail is dropped)."""
    whole = (len(values) // group) * group
    if whole == 0:
        return values.sum(keepdims=True)
    return values[:whole].reshape(-1, group).sum(axis=1)


def summarise(
    segments: Sequence[Segment],
    control_ref_ms: float,
    group: int = 1,
    pooled: bool = False,
) -> Dict[str, float]:
    """Normalised end-to-end numbers plus their raw ``harness.*`` twins.

    ``group`` consecutive segments form one throughput / CPU sample (a
    training segment is one episode: too short for either on its own).
    ``pooled`` takes the latency percentiles over all normalised samples
    (training: one latency per segment) instead of per segment.
    """
    if not segments:
        raise ValueError("no segments to summarise")
    factor = np.array([control_ref_ms / s.control_local_ms for s in segments])
    ops = np.array([s.ops for s in segments], dtype=np.float64)
    wall = np.array([s.wall_s for s in segments])
    cpu = np.array([s.cpu_s for s in segments])
    normalised = [s.latencies_ms * f for s, f in zip(segments, factor)]
    if pooled:
        everything = np.concatenate(normalised)
        p50 = float(np.percentile(everything, 50))
        p90 = float(np.percentile(everything, 90))
        beyond_p90 = int(len(everything) // 10)
    else:
        p50 = float(np.median([np.percentile(x, 50) for x in normalised]))
        p90 = float(np.median([np.percentile(x, 90) for x in normalised]))
        beyond_p90 = int(min(len(x) for x in normalised) // 10)
    group_ops = _grouped(ops, group)
    return {
        "ops_per_s": float(np.median(group_ops / _grouped(wall * factor, group))),
        "p50_ms": p50,
        "p90_ms": p90,
        "cpu_ms_per_op": float(
            np.median(_grouped(cpu * factor, group) / group_ops) * 1e3
        ),
        "samples_beyond_p90": beyond_p90,
        "segments": len(segments),
        "harness.raw_ops_per_s": float(ops.sum() / wall.sum()),
        "harness.control_ms": float(
            np.median([s.control_local_ms for s in segments])
        ),
        "harness.slowdown": float(np.median(1.0 / factor)),
    }


def spread(values: Sequence[float]) -> Dict[str, float]:
    """min / median / max, (max-min)/median and IQR/median of repeated runs."""
    ordered = sorted(values)
    median = float(np.median(ordered))
    out = {"min": ordered[0], "median": median, "max": ordered[-1]}
    out["range_share"] = (ordered[-1] - ordered[0]) / median
    q1, __, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else (median,) * 3
    out["iqr_share"] = (q3 - q1) / median
    return out
