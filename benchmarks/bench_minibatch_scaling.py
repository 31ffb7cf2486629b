#!/usr/bin/env python
"""Minibatch update: execution plan vs tape, and shard fan-out.

What produced the committed ``BENCH_9.json`` (its two extra ``plan_*``
ablation cells describe plan layers that have since been deleted) and
what the CI ``perf`` job re-runs as a machine-relative gate::

    python benchmarks/bench_minibatch_scaling.py --json minibatch.json
    python benchmarks/check_perf_regression.py minibatch.json --minibatch

Two sections:

**micro** — the taped PPO minibatch update (identical workload to
``test_ppo_minibatch_loss_and_backward`` in ``test_substrate_micro.py``)
on the raw autograd tape and on the execution plan.  The plan variant
asserts that every *measured* call replayed a validated plan
(``planner.stats``), so the number can never silently describe a tape
fallback.  This is machine-relative: the ``speedup_vs_tape`` ratio is
meaningful on any box, which is what the CI gate checks.

**shard_scaling** — one PPO minibatch sharded across the PR 5
``ProcessEmployeePool`` workers via ``OP_SHARD`` (the tentpole's
intra-minibatch data parallelism), at 1/2/4-way splits over a 4-worker
pool.  Every repetition's combined gradient pack is byte-compared
against the first, so the measured path is the deterministic one.  The
numbers are honest measurements of the machine that ran them —
``machine.cores`` is recorded alongside because the scaling story is
meaningless without it: with one core the shard fan-out can only add
IPC overhead, exactly like BENCH_5's employee-scaling table; the >1x
claim applies to >=4-core machines where the B/S-row shard computes run
genuinely concurrently.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # direct ``python benchmarks/bench_minibatch_scaling.py`` run
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.agents import CEWSAgent, PPOConfig  # noqa: E402
from repro.agents.ppo import make_ppo_planner, ppo_step  # noqa: E402
from repro.agents.sharding import (  # noqa: E402
    combine_shard_packs,
    normalize_minibatch,
    split_minibatch,
)
from repro.distributed import TrainConfig, build_trainer  # noqa: E402
from repro.distributed.procpool import OP_SHARD  # noqa: E402
from repro.env import CrowdsensingEnv, smoke_config  # noqa: E402

#: Substrate variants: name -> whether the update runs through a planner.
MICRO_VARIANTS = {"tape": False, "plan": True}


def _micro_fixture(batch_size: int):
    """The exact workload of ``test_ppo_minibatch_loss_and_backward``."""
    config = smoke_config(seed=3, horizon=40)
    agent = CEWSAgent(config, ppo=PPOConfig(batch_size=batch_size, epochs=1), seed=0)
    env = CrowdsensingEnv(config, reward_mode="sparse", scenario=agent.scenario)
    buffer, __ = agent.collect_episode(env, np.random.default_rng(0))
    batch = next(iter(buffer.minibatches(batch_size, np.random.default_rng(0))))
    return agent, batch


def bench_micro(repeats: int, batch_size: int) -> dict:
    agent, batch = _micro_fixture(batch_size)
    cells: dict = {}
    for name, planned in MICRO_VARIANTS.items():
        planner = make_ppo_planner(agent.network, agent.ppo) if planned else None
        for __ in range(3):  # warm: first call builds + byte-validates the plan
            agent.network.zero_grad()
            ppo_step(agent.network, batch, agent.ppo, planner=planner)
        before = dict(planner.stats) if planner is not None else None
        start = time.perf_counter()
        for __ in range(repeats):
            agent.network.zero_grad()
            ppo_step(agent.network, batch, agent.ppo, planner=planner)
        mean = (time.perf_counter() - start) / repeats
        cell = {"mean_s": mean}
        if planner is not None:
            replayed = planner.stats["plan_runs"] - before["plan_runs"]
            assert replayed == repeats, (
                f"{name}: {repeats - replayed} of {repeats} measured calls fell "
                f"back to the tape ({planner.stats})"
            )
            cell["plan_records"] = plan_record_count(planner)
        cells[name] = cell
    tape = cells["tape"]["mean_s"]
    for name, cell in cells.items():
        if name != "tape":
            cell["speedup_vs_tape"] = tape / cell["mean_s"]
    return cells


def plan_record_count(planner) -> int:
    plans = [p for p in planner.plans.values() if p is not None]
    return len(plans[0].records) if plans else 0


def _pack_bytes(pack) -> bytes:
    return b"".join(np.ascontiguousarray(g).tobytes() for g in pack.policy) + b"".join(
        np.ascontiguousarray(g).tobytes() for g in pack.curiosity
    )


def bench_shards(
    shard_counts: list, workers: int, repeats: int, batch_size: int, horizon: int
) -> dict:
    """Fan one normalized minibatch over the process pool, 1/2/4-way.

    The batch is deliberately large (compute-dominated) so the shard
    wall time measures the B/S-row gradient computes, not the per-shard
    pickle/IPC constant.
    """
    config = smoke_config(seed=3, horizon=horizon)
    trainer = build_trainer(
        "cews",
        config,
        train=TrainConfig(
            num_employees=workers, episodes=1, k_updates=1, seed=0, backend="process"
        ),
        ppo=PPOConfig(batch_size=batch_size, epochs=1),
    )
    try:
        trainer.train()  # forks the pool, syncs worker params
        pool = trainer._proc_pool
        agent = trainer.global_agent
        env = CrowdsensingEnv(config, reward_mode="sparse", scenario=agent.scenario)
        buffer, __ = agent.collect_episode(env, np.random.default_rng(0))
        batch = next(iter(buffer.minibatches(batch_size, np.random.default_rng(0))))
        normalized = normalize_minibatch(batch, agent.ppo)

        cells: dict = {}
        for num_shards in shard_counts:
            shards = split_minibatch(normalized, num_shards)
            sizes = [len(shard) for shard in shards]
            reference = None
            start = time.perf_counter()
            for __ in range(repeats):
                for worker, shard in enumerate(shards):
                    pool.submit(worker, OP_SHARD, 0, 0, shard=shard)
                packs = [
                    pool.wait(worker, None, "gradients")[0]
                    for worker in range(len(shards))
                ]
                combined = combine_shard_packs(packs, sizes)
                digest = _pack_bytes(combined)
                if reference is None:
                    reference = digest
                assert digest == reference, (
                    f"{num_shards}-way shard combine is not deterministic"
                )
            mean = (time.perf_counter() - start) / repeats
            cells[str(num_shards)] = {"mean_s": mean, "shard_rows": sizes}
        one = cells[str(shard_counts[0])]["mean_s"]
        for cell in cells.values():
            cell["speedup_vs_1shard"] = one / cell["mean_s"]
        return cells
    finally:
        trainer.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=50)
    parser.add_argument(
        "--micro-batch-size", type=int, default=16,
        help="minibatch rows for the micro section (16 = the BENCH_4 workload)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=128,
        help="minibatch rows for the shard fan-out section (large on purpose "
        "so shard compute dominates the per-shard IPC constant)",
    )
    parser.add_argument(
        "--shard-horizon", type=int, default=160,
        help="episode horizon for the shard fixture (must be >= --batch-size)",
    )
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--json", type=Path, default=None, help="write results here")
    args = parser.parse_args(argv)

    results = {
        "schema": 1,
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "config": {
            "repeats": args.repeats,
            "micro_batch_size": args.micro_batch_size,
            "shard_batch_size": args.batch_size,
            "shard_horizon": args.shard_horizon,
            "workers": args.workers,
            "scale": "smoke",
        },
    }
    print(f"minibatch substrate benchmark on {results['machine']['cores']} core(s)")

    results["micro"] = bench_micro(args.repeats, args.micro_batch_size)
    tape = results["micro"]["tape"]["mean_s"]
    for name, cell in results["micro"].items():
        ratio = f"  x{tape / cell['mean_s']:5.2f} vs tape" if name != "tape" else ""
        print(f"  micro {name:<13}  {cell['mean_s'] * 1e3:8.3f}ms{ratio}")

    results["shard_scaling"] = bench_shards(
        args.shards, args.workers, args.repeats, args.batch_size, args.shard_horizon
    )
    for num_shards, cell in results["shard_scaling"].items():
        print(
            f"  shard {num_shards}-way        {cell['mean_s'] * 1e3:8.3f}ms"
            f"  x{cell['speedup_vs_1shard']:5.2f} vs 1-way"
        )

    if args.json is not None:
        args.json.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
