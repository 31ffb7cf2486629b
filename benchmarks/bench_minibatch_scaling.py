#!/usr/bin/env python
"""Minibatch update: execution plan vs tape.

What produced the committed ``BENCH_9.json`` (its two extra ``plan_*``
ablation cells describe plan layers that have since been deleted, and its
``shard_scaling`` section an intra-minibatch sharding mode that has since
been removed) and what the CI ``perf`` job re-runs as a machine-relative
gate::

    python benchmarks/bench_minibatch_scaling.py --json minibatch.json
    python benchmarks/check_perf_regression.py minibatch.json --minibatch

**micro** — the taped PPO minibatch update (identical workload to
``test_ppo_minibatch_loss_and_backward`` in ``test_substrate_micro.py``)
on the raw autograd tape and on the execution plan.  The plan variant
asserts that every *measured* call replayed a validated plan
(``planner.stats``), so the number can never silently describe a tape
fallback.  This is machine-relative: the ``speedup_vs_tape`` ratio is
meaningful on any box, which is what the CI gate checks.
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=50)
    parser.add_argument(
        "--micro-batch-size", type=int, default=16,
        help="minibatch rows for the micro section (16 = the BENCH_4 workload)",
    )
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
            "scale": "smoke",
        },
    }
    print(f"minibatch substrate benchmark on {results['machine']['cores']} core(s)")

    results["micro"] = bench_micro(args.repeats, args.micro_batch_size)
    tape = results["micro"]["tape"]["mean_s"]
    for name, cell in results["micro"].items():
        ratio = f"  x{tape / cell['mean_s']:5.2f} vs tape" if name != "tape" else ""
        print(f"  micro {name:<13}  {cell['mean_s'] * 1e3:8.3f}ms{ratio}")

    if args.json is not None:
        args.json.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
