#!/usr/bin/env python
"""Employee-scaling benchmark: episodes/sec per backend and worker count.

What the CI ``perf`` job runs::

    python benchmarks/bench_scaling.py --employees 1 2 4 \
        --backends serial process --episodes 2 --json scaling.json

(The committed ``BENCH_5.json`` was recorded with a third, ``thread``
backend, since deleted: it never beat serial.)

Each cell trains a fresh seeded smoke-scale DRL-CEWS trainer and reports
wall time and episodes/sec.  The numbers are *honest measurements of the
machine that ran them* — the committed baseline records the core count
alongside, because the scaling story is meaningless without it: with one
core, the process backend can only add overhead; the process backend's speedup claim applies
to >= 4-core machines where the per-employee autograd work actually runs
concurrently.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # direct ``python benchmarks/bench_scaling.py`` run
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.agents import PPOConfig  # noqa: E402
from repro.distributed import TrainConfig, build_trainer  # noqa: E402
from repro.env import smoke_config  # noqa: E402

BACKENDS = ("serial", "process")


def bench_cell(backend: str, num_employees: int, episodes: int, seed: int) -> dict:
    trainer = build_trainer(
        "cews",
        smoke_config(seed=5, horizon=10, num_pois=15),
        train=TrainConfig(
            num_employees=num_employees,
            episodes=episodes,
            k_updates=1,
            seed=seed,
            backend=backend,
        ),
        ppo=PPOConfig(batch_size=10, epochs=1),
    )
    start = time.perf_counter()
    history = trainer.train()
    wall = time.perf_counter() - start
    trainer.close()
    assert len(history.logs) == episodes
    return {
        "wall_s": wall,
        "episodes_per_s": episodes / wall,
        "final_kappa": history.logs[-1].kappa,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--employees", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument(
        "--backends", nargs="+", default=list(BACKENDS), choices=BACKENDS
    )
    parser.add_argument("--episodes", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=Path, default=None, help="write results here")
    args = parser.parse_args(argv)

    results = {
        "schema": 1,
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "config": {"episodes": args.episodes, "scale": "smoke", "seed": args.seed},
        "scaling": {},
    }
    print(
        f"employee scaling on {results['machine']['cores']} core(s), "
        f"{args.episodes} episode(s) per cell"
    )
    for backend in args.backends:
        results["scaling"][backend] = {}
        for n in args.employees:
            cell = bench_cell(backend, n, args.episodes, args.seed)
            results["scaling"][backend][str(n)] = cell
            print(
                f"  {backend:<8} employees={n}  wall {cell['wall_s']:6.2f}s"
                f"  {cell['episodes_per_s']:6.3f} ep/s"
            )
    if args.json is not None:
        args.json.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
