#!/usr/bin/env python
"""Serving-path benchmark: micro-batching, plans, cache, worker scaling.

What produced the committed ``BENCH_10.json`` (and what the CI ``perf``
job re-runs as a machine-relative gate)::

    python benchmarks/bench_serve.py --json serve.json
    python benchmarks/check_perf_regression.py serve.json --serve

Sections:

**micro** — one ``PolicyEngine.infer_batch`` forward (batch of 8) with
forward-only execution plans against the plain tape.  The plan cell
asserts every measured call replayed a validated plan, so the number can
never silently describe a tape fallback.  The gate: the plan beats the
tape (machine-relative, meaningful on any box).

**load_sweep** — a closed-loop load generator against a live
:class:`~repro.serve.InferenceServer` over the framed-TCP front door at
offered concurrency 1/2/4/8: requests-per-second, p50/p99 latency, and
the server's dispatched batch-size histogram.  The cache is disabled so
the numbers measure the forward path, not memoization.  The gate:
micro-batching (max_batch 8) sustains >= 2x the RPS of the same server
forced to singles (max_batch 1) at concurrency 8 — coalescing is the
whole point of the subsystem.

**cache** — the same server under a duplicate-heavy stream (4 distinct
fleet states) with the LRU on vs off.  Reported, not gated: the hit-path
speedup is workload-dependent by nature.

**worker_scaling** — batched throughput on the in-process engine vs the
fork pool at 1 and 2 workers.  Honest measurements of whatever machine
ran them (``machine.cores`` recorded alongside): with one core the fork
pool can only add IPC overhead; the >1x claim applies to multi-core
boxes where worker forwards genuinely overlap.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading
import time
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # direct ``python benchmarks/bench_serve.py`` run
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.agents.policy import PPOWorkerAgent  # noqa: E402
from repro.env import CrowdsensingEnv, smoke_config  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.serve import (  # noqa: E402
    InferRequest,
    InferenceServer,
    InlinePool,
    PolicyEngine,
    ServeClient,
    ServeWorkerPool,
)


def make_fixture(num_states: int = 32):
    """An agent plus ``num_states`` distinct captured fleet states."""
    config = smoke_config(seed=3, horizon=max(num_states + 2, 12))
    agent = PPOWorkerAgent(config, seed=5)
    env = CrowdsensingEnv(config)
    env.reset()
    requests = []
    for __ in range(num_states):
        state = env._state()
        request = InferRequest(
            state=np.ascontiguousarray(state, dtype=np.float64),
            move_mask=np.ascontiguousarray(env.valid_moves(), dtype=bool),
            worker_features=np.ascontiguousarray(
                agent.worker_features_of(env), dtype=np.float64
            ),
        ).validate()
        requests.append(request)
        action, __lp, __v, __m, __f = agent.act_full(
            env, np.random.default_rng(0), greedy=True, state=state
        )
        env.step(action)
    return agent, requests


def bench_micro(agent, requests, repeats: int, batch: int = 8) -> dict:
    """Plan vs tape on the stacked policy forward (batch of ``batch``)."""
    state = agent.network.state_dict()
    chunk = requests[:batch]
    cells: dict = {}
    for name, use_plans in (("tape_forward", False), ("plan_forward", True)):
        engine = PolicyEngine(state)
        saved = os.environ.pop("REPRO_NO_PLANS", None)
        if not use_plans:
            os.environ["REPRO_NO_PLANS"] = "1"  # the one tape switch
        try:
            for __ in range(3):  # warm: builds + byte-validates the plan
                engine.infer_batch(chunk)
            before = engine.stats().get("plan_runs", 0)
            start = time.perf_counter()
            for __ in range(repeats):
                engine.infer_batch(chunk)
            mean = (time.perf_counter() - start) / repeats
        finally:
            os.environ.pop("REPRO_NO_PLANS", None)
            if saved is not None:
                os.environ["REPRO_NO_PLANS"] = saved
        if use_plans:
            replayed = engine.stats()["plan_runs"] - before
            assert replayed == repeats, (
                f"{repeats - replayed} of {repeats} measured forwards fell "
                f"back to the tape ({engine.stats()})"
            )
        cells[name] = {"mean_s": mean, "batch": batch}
    cells["plan_forward"]["speedup_vs_tape"] = (
        cells["tape_forward"]["mean_s"] / cells["plan_forward"]["mean_s"]
    )
    return cells


class _ServerHarness:
    """An InferenceServer on a private event-loop thread."""

    def __init__(self, pool, **kwargs):
        import asyncio

        self._asyncio = asyncio
        kwargs.setdefault("registry", MetricsRegistry())
        kwargs.setdefault("port", 0)
        kwargs.setdefault("http_port", None)
        self._kwargs = kwargs
        self._pool = pool
        self._ready = threading.Event()
        self.server = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self):
        self._asyncio.run(self._amain())

    async def _amain(self):
        self.server = InferenceServer(self._pool, **self._kwargs)
        await self.server.start()
        self._loop = self._asyncio.get_running_loop()
        self._stop = self._asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await self.server.stop()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=60), "server failed to start"
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)


def drive(harness, requests, concurrency: int, per_thread: int) -> dict:
    """Closed-loop: ``concurrency`` clients, each ``per_thread`` requests."""
    latencies: list = []
    errors: list = []
    lock = threading.Lock()

    def pump(thread_index: int):
        mine = []
        try:
            with ServeClient("127.0.0.1", harness.server.port) as client:
                for i in range(per_thread):
                    request = requests[(thread_index + i * 7) % len(requests)]
                    start = time.perf_counter()
                    client.infer_request(request)
                    mine.append(time.perf_counter() - start)
        except Exception as error:  # pragma: no cover
            errors.append(error)
        with lock:
            latencies.extend(mine)

    threads = [threading.Thread(target=pump, args=(k,)) for k in range(concurrency)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    lat = np.sort(np.asarray(latencies))
    return {
        "concurrency": concurrency,
        "requests": len(latencies),
        "rps": len(latencies) / wall,
        "p50_ms": float(lat[len(lat) // 2]) * 1e3,
        "p99_ms": float(lat[min(len(lat) - 1, int(len(lat) * 0.99))]) * 1e3,
    }


def batch_histogram(server) -> dict:
    """Dispatched batch-size counts from the server's metrics registry."""
    metric = server._registry.snapshot().get("repro_serve_batch_rows")
    if not metric:
        return {}
    series = next(iter(metric.get("series", {}).values()), {})
    return {
        "count": series.get("count"),
        "rows": series.get("sum"),
        "buckets": series.get("buckets", {}),
    }


def bench_load(agent, requests, concurrencies, per_thread: int) -> dict:
    """RPS + latency percentiles vs offered load, batched and unbatched."""
    state = agent.network.state_dict()
    out: dict = {"sweep": {}, "unbatched": None, "batched": None}
    for label, max_batch in (("batched", 8), ("unbatched", 1)):
        pool = InlinePool(state, generation=1)
        with _ServerHarness(
            pool, max_batch=max_batch, max_delay=0.002, cache_size=0,
            max_pending=256,
        ) as harness:
            drive(harness, requests, 2, 8)  # warm plans and connections
            if label == "batched":
                for concurrency in concurrencies:
                    out["sweep"][str(concurrency)] = drive(
                        harness, requests, concurrency, per_thread
                    )
                out[label] = out["sweep"][str(max(concurrencies))]
                out["batch_histogram"] = batch_histogram(harness.server)
            else:
                out[label] = drive(
                    harness, requests, max(concurrencies), per_thread
                )
    out["speedup_batched_vs_unbatched"] = (
        out["batched"]["rps"] / out["unbatched"]["rps"]
    )
    return out


def bench_cache(agent, requests, per_thread: int) -> dict:
    """Duplicate-heavy stream with the LRU on vs off (reported, not gated)."""
    state = agent.network.state_dict()
    hot = requests[:4]  # 4 distinct states, everything else duplicates
    cells: dict = {}
    for label, cache_size in (("cache_on", 1024), ("cache_off", 0)):
        pool = InlinePool(state, generation=1)
        with _ServerHarness(
            pool, max_batch=8, max_delay=0.002, cache_size=cache_size,
            max_pending=256,
        ) as harness:
            drive(harness, hot, 2, 4)  # warm
            cell = drive(harness, hot, 4, per_thread)
            cell["cache"] = harness.server.cache.stats()
            cells[label] = cell
    cells["speedup_cache_on"] = (
        cells["cache_on"]["rps"] / cells["cache_off"]["rps"]
    )
    return cells


def bench_workers(agent, requests, worker_counts, repeats: int) -> dict:
    """Batched pool.infer throughput: inline engine vs fork workers."""
    state = agent.network.state_dict()
    chunk = requests[:8]
    cells: dict = {}

    def measure(pool) -> float:
        for __ in range(2):
            pool.infer(chunk)
        start = time.perf_counter()
        for __ in range(repeats):
            pool.infer(chunk)
        return (time.perf_counter() - start) / repeats

    cells["inline"] = {"mean_s": measure(InlinePool(state, generation=1))}
    for workers in worker_counts:
        pool = ServeWorkerPool(state, num_workers=workers, generation=1)
        try:
            cells[f"fork_{workers}"] = {"mean_s": measure(pool)}
        finally:
            pool.shutdown()
    inline = cells["inline"]["mean_s"]
    for name, cell in cells.items():
        if name != "inline":
            cell["speedup_vs_inline"] = inline / cell["mean_s"]
    return cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=50)
    parser.add_argument(
        "--per-thread", type=int, default=25,
        help="requests each closed-loop client sends per measurement",
    )
    parser.add_argument(
        "--concurrencies", type=int, nargs="+", default=[1, 2, 4, 8]
    )
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--json", type=Path, default=None, help="write results here")
    args = parser.parse_args(argv)

    agent, requests = make_fixture()
    results = {
        "schema": 1,
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "micro": bench_micro(agent, requests, args.repeats),
        "serve": bench_load(
            agent, requests, args.concurrencies, args.per_thread
        ),
        "cache": bench_cache(agent, requests, args.per_thread),
        "worker_scaling": bench_workers(
            agent, requests, args.workers, max(args.repeats // 2, 10)
        ),
    }

    micro = results["micro"]
    print(
        f"micro: plan {micro['plan_forward']['mean_s'] * 1e3:.3f}ms vs tape "
        f"{micro['tape_forward']['mean_s'] * 1e3:.3f}ms "
        f"(x{micro['plan_forward']['speedup_vs_tape']:.2f})"
    )
    for concurrency, cell in sorted(
        results["serve"]["sweep"].items(), key=lambda kv: int(kv[0])
    ):
        print(
            f"load c={concurrency:>2}: {cell['rps']:8.1f} rps  "
            f"p50 {cell['p50_ms']:6.2f}ms  p99 {cell['p99_ms']:6.2f}ms"
        )
    print(
        f"batched vs unbatched at c={max(args.concurrencies)}: "
        f"x{results['serve']['speedup_batched_vs_unbatched']:.2f}"
    )
    print(f"cache on/off: x{results['cache']['speedup_cache_on']:.2f}")
    for name, cell in results["worker_scaling"].items():
        extra = (
            f"  x{cell['speedup_vs_inline']:.2f} vs inline"
            if "speedup_vs_inline" in cell
            else ""
        )
        print(f"workers {name}: {cell['mean_s'] * 1e3:8.3f}ms{extra}")

    if args.json is not None:
        args.json.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
