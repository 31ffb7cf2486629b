"""Benchmark side of ``train_serial`` / ``train_process``.

The program (``train_driver.py``) runs in its own process tree; this
process timestamps episode boundaries, samples the control kernel while
the program sits idle between episodes, and reads the tree's CPU time
and memory from ``/proc``.  op = one synchronous episode (2 rollouts +
8 update rounds + chief apply/sync).
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from control import ControlKernel
from proc import (
    BENCH_DIR,
    Placement,
    cpu_seconds,
    peak_rss_mib,
    program_env,
    shm_segments,
    stop_process,
    tree_pids,
)
from stats import Segment, summarise

__all__ = ["run_train", "WARMUP_EPISODES", "GROUP_EPISODES", "REFERENCE_EPISODES"]

WARMUP_EPISODES = 5
#: Episodes per throughput / CPU sample (one episode is ~20 clock ticks of
#: CPU: too coarse alone).
GROUP_EPISODES = 10
#: How many leading episodes ``train_process`` re-runs on the serial
#: backend to compare bit for bit when ``train_serial`` itself is not part
#: of the same invocation.
REFERENCE_EPISODES = 8
#: ``quality.*`` is taken over exactly this many leading episodes, so it
#: does not depend on how many episodes fit the window.
QUALITY_EPISODES = 10
_EPISODE_CAP = 100_000


class TrainProgram:
    """One ``train_driver.py`` subprocess.  Use as a context manager: on
    the way out the process is dead, whatever happened inside."""

    def __init__(self, backend: str, seed: int, episodes: int, free_run: bool = False):
        command = [
            sys.executable, str(BENCH_DIR / "train_driver.py"),
            "--backend", backend, "--seed", str(seed), "--episodes", str(episodes),
        ]
        if free_run:
            command.append("--free-run")
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=program_env(), text=True, bufsize=1,
        )
        self.logs: List[List[str]] = []
        self.healthy: Optional[bool] = None
        self.pids: List[int] = [self.process.pid]

    def __enter__(self) -> "TrainProgram":
        return self

    def __exit__(self, *exc) -> None:
        if self.process.poll() is None:
            # Unwinding: end of input reads as "stop", so the driver still
            # closes its trainer (workers joined, slabs unlinked).
            self.pids = tree_pids(self.process.pid)
            self.process.stdin.close()
        stop_process(self.process, self.pids)
        self.process.stdin.close()
        self.process.stdout.close()

    def next_episode(self) -> float:
        """Block for the next report; returns its arrival time.  The last
        report is the health line, which sets ``self.healthy``."""
        line = self.process.stdout.readline()
        now = time.perf_counter()
        if not line:
            raise RuntimeError(
                f"training program exited early (code {self.process.poll()})"
            )
        message = json.loads(line)
        if "healthy" in message:
            self.healthy = message["healthy"]
        else:
            self.logs.append(message["log"])
        return now

    def reply(self, word: str) -> float:
        self.process.stdin.write(word + "\n")
        self.process.stdin.flush()
        return time.perf_counter()

    def finish(self, stop: bool) -> List[int]:
        """Let the program end by itself; returns orphaned pids (must be
        empty)."""
        if stop:
            self.reply("stop")
        while self.healthy is None:
            self.next_episode()
        return stop_process(self.process, self.pids)


def _non_finite(logs: List[List[str]]) -> int:
    """Episodes whose log holds a non-finite value."""
    return sum(
        1 for log in logs if not all(math.isfinite(float.fromhex(h)) for h in log)
    )


def log_hash(logs: List[List[str]], episodes: int) -> str:
    digest = hashlib.sha256(json.dumps(logs[:episodes]).encode())
    return digest.hexdigest()[:16]


def measure_setup(backend: str, seed: int, control: ControlKernel) -> Tuple[float, float, int]:
    """One fresh set-up: spawn -> end of the first episode.

    Returns ``(raw seconds, control_local_ms, failures)``.
    """
    shm_before = shm_segments()
    before = control.measure_ms()
    with TrainProgram(backend, seed, episodes=1) as program:
        raw = program.next_episode() - program.spawned_at
        program.pids = tree_pids(program.process.pid)
        program.reply("go")
        orphans = program.finish(stop=False)
    after = control.measure_ms()
    failures = (
        len(orphans) + len(shm_segments() - shm_before) + (0 if program.healthy else 1)
    )
    return raw, 0.5 * (before + after), failures


def run_train(
    backend: str,
    seed: int,
    seconds: float,
    setups: int,
    control: ControlKernel,
    control_ref_ms: float,
    reference_logs: Optional[List[List[str]]] = None,
) -> Dict[str, object]:
    """One end-to-end pass of a training workload.

    ``reference_logs`` (``train_serial``'s episode logs for the same seed)
    are compared bit for bit over the common prefix; without them
    ``train_process`` re-runs the first ``REFERENCE_EPISODES`` serially.
    """
    with Placement(control) as placement:
        return _run_train(backend, seed, seconds, setups, control, control_ref_ms,
                          reference_logs, placement)


def _run_train(backend, seed, seconds, setups, control, control_ref_ms,
               reference_logs, placement):
    failures = 0
    notes: List[str] = []
    setup_samples = []
    for __ in range(max(setups - 1, 0)):
        raw, local, failed = measure_setup(backend, seed, control)
        setup_samples.append(raw * control_ref_ms / local)
        failures += failed

    shm_before = shm_segments()
    segments: List[Segment] = []
    before = control.measure_ms()
    with TrainProgram(backend, seed, episodes=_EPISODE_CAP) as program:
        # The measured pass's own start is the last set-up sample.
        first_raw = program.next_episode() - program.spawned_at
        after = control.measure_ms()
        if setups:
            setup_samples.append(first_raw * control_ref_ms / (0.5 * (before + after)))
        pids = program.pids = placement.spread(program.process.pid)
        for __ in range(WARMUP_EPISODES - 1):
            program.reply("go")
            program.next_episode()

        own_cpu_start = time.process_time()
        window_start = time.perf_counter()
        control_before = control.measure_ms()
        while True:
            cpu_start = cpu_seconds(pids)
            started = program.reply("go")
            ended = program.next_episode()
            cpu_end = cpu_seconds(pids)
            control_after = control.measure_ms()
            segments.append(
                Segment(
                    ops=1,
                    wall_s=ended - started,
                    latencies_ms=np.array([(ended - started) * 1e3]),
                    cpu_s=cpu_end - cpu_start,
                    control_before_ms=control_before,
                    control_after_ms=control_after,
                )
            )
            control_before = control_after
            enough = len(program.logs) >= QUALITY_EPISODES
            if enough and time.perf_counter() - window_start >= seconds:
                break
        window = time.perf_counter() - window_start
        own_cpu = time.process_time() - own_cpu_start
        rss = peak_rss_mib(pids)
        orphans = program.finish(stop=True)
    if orphans:
        failures += len(orphans)
        notes.append(f"orphaned processes: {orphans}")
    leaked = shm_segments() - shm_before
    if leaked:
        failures += len(leaked)
        notes.append(f"leaked shared memory: {sorted(leaked)}")
    if not program.healthy:
        failures += 1
        notes.append("TrainerHealth.healthy is false (degraded or crashed rounds)")
    bad = _non_finite(program.logs)
    if bad:
        failures += bad
        notes.append(f"{bad} episode log(s) hold a non-finite value")

    if backend == "process" and reference_logs is None:
        with TrainProgram("serial", seed, REFERENCE_EPISODES, free_run=True) as reference:
            failures += len(reference.finish(stop=False))
        reference_logs = reference.logs
    if reference_logs is not None:
        common = min(len(reference_logs), len(program.logs))
        mismatched = sum(
            1 for a, b in zip(reference_logs[:common], program.logs[:common]) if a != b
        )
        if mismatched:
            failures += mismatched
            notes.append(
                f"{mismatched} of {common} episode logs differ from the serial backend's"
            )
        else:
            notes.append(f"episode logs equal the serial backend's over {common} episodes")

    summary = summarise(segments, control_ref_ms, group=GROUP_EPISODES, pooled=True)
    measured = len(segments)
    metrics = {
        "ops_per_s": summary["ops_per_s"],
        "p50_ms": summary["p50_ms"],
        "p90_ms": summary["p90_ms"],
        "cpu_ms_per_op": summary["cpu_ms_per_op"],
        "peak_rss_mb": rss,
    }
    if setups:
        metrics["setup_s"] = float(np.median(setup_samples))
    final = [float.fromhex(h) for h in program.logs[QUALITY_EPISODES - 1]]
    return {
        "metrics": metrics,
        "attempted": measured + WARMUP_EPISODES,
        "failed": failures,
        "notes": notes,
        "logs": program.logs,
        "harness": {
            "harness.control_ms": summary["harness.control_ms"],
            "harness.slowdown": summary["harness.slowdown"],
            "harness.raw_ops_per_s": summary["harness.raw_ops_per_s"],
            "harness.client_cpu_share": own_cpu / window,
        },
        "detail": {
            "episodes_measured": measured,
            "samples_beyond_p90": summary["samples_beyond_p90"],
            "window_s": window,
            "setup_samples_s": setup_samples,
            "quality.rho": final[2],
            "quality.kappa": final[0],
            "quality.log_hash": log_hash(program.logs, QUALITY_EPISODES),
        },
    }
