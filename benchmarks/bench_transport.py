#!/usr/bin/env python
"""Transport benchmark: pipe vs loopback-TCP throughput and wire bytes.

What the CI ``transport`` job runs (and what produced the committed
``BENCH_6.json``)::

    python benchmarks/bench_transport.py --episodes 2 --json transport.json

Two measurements:

* **Training throughput** per transport — the same seeded smoke-scale
  CEWS run over the process backend (pipes + shared-memory slabs) and
  the socket backend (framed loopback TCP).  Both must land on the same
  final kappa to the bit; the gap in episodes/sec is the honest price of
  framing + CRC + TCP on one host, which multi-host deployments pay for
  the ability to exist at all.
* **Wire bytes** per full parameter round-trip (weight broadcast +
  gradient return) under the float64 encoding; the header/CRC overhead
  is measured, not assumed.  (The committed ``BENCH_6.json`` also has a
  float32 row, from a wire encoding that has since been removed.)
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
except ImportError:  # direct ``python benchmarks/bench_transport.py`` run
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.agents import PPOConfig  # noqa: E402
from repro.distributed import TrainConfig, build_trainer  # noqa: E402
from repro.distributed.transport import encode_frame, encode_tensors  # noqa: E402
from repro.distributed.transport.framing import T_TENSORS  # noqa: E402
from repro.env import smoke_config  # noqa: E402

BACKENDS = ("process", "socket")


def bench_backend(backend: str, episodes: int, seed: int) -> dict:
    trainer = build_trainer(
        "cews",
        smoke_config(seed=5, horizon=10, num_pois=15),
        train=TrainConfig(
            num_employees=3,
            episodes=episodes,
            k_updates=2,
            seed=seed,
            backend=backend,
        ),
        ppo=PPOConfig(batch_size=10, epochs=1),
    )
    start = time.perf_counter()
    history = trainer.train()
    wall = time.perf_counter() - start
    shapes = [tuple(p.data.shape) for p in trainer._param_tensors]
    trainer.close()
    assert len(history.logs) == episodes
    return {
        "wall_s": wall,
        "episodes_per_s": episodes / wall,
        "final_kappa": history.logs[-1].kappa,
        "_shapes": shapes,
    }


def bench_wire(shapes) -> dict:
    """Framed bytes for one weight broadcast + gradient return."""
    import numpy as np

    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal(shape) for shape in shapes]
    payload = encode_tensors(arrays, seq=1)
    framed = encode_frame(T_TENSORS, payload)
    return {
        "float64": {
            "tensor_payload_bytes": len(payload),
            "framed_bytes": len(framed),
            "round_trip_bytes": 2 * len(framed),  # broadcast + gradients
        }
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
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
        "transports": {},
    }
    shapes = None
    for backend in BACKENDS:
        cell = bench_backend(backend, args.episodes, args.seed)
        shapes = cell.pop("_shapes")
        results["transports"][backend] = cell
        print(
            f"{backend:>8s}: {cell['wall_s']:.2f}s "
            f"({cell['episodes_per_s']:.2f} ep/s, kappa {cell['final_kappa']:.6f})"
        )

    kappas = {
        b: cell["final_kappa"] for b, cell in results["transports"].items()
    }
    assert len(set(kappas.values())) == 1, f"transports diverged: {kappas}"
    print("final kappa bitwise-consistent across pipe and loopback TCP")

    results["wire"] = bench_wire(shapes)
    wire = results["wire"]["float64"]
    print(
        f"float64: {wire['tensor_payload_bytes']} payload bytes, "
        f"{wire['framed_bytes']} framed"
    )

    if args.json is not None:
        args.json.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
