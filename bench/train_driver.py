"""Program side of the training workloads: a thin driver subprocess.

Builds DRL-CEWS at the ``smoke`` scale exactly as
``repro.experiments.training`` does and trains it, reporting each
episode's log on stdout and then waiting on stdin for ``go`` (continue)
or ``stop``.  The benchmark process holds the clock: it timestamps the
report, samples the control kernel while this process sits idle, and
timestamps the ``go``.
"""

from __future__ import annotations

import argparse
import json
import sys


class _Stop(Exception):
    pass


def smoke_trainer(seed: int, backend: str = "serial"):
    """DRL-CEWS at the ``smoke`` scale, as ``experiments.training`` builds
    it; returns ``(trainer, scenario config, scale)``.  The imports are the
    program's own start-up cost, so they happen here, not at module load."""
    from repro.distributed import build_trainer
    from repro.experiments.scales import get_scale
    from repro.experiments.training import make_ppo_config, make_train_config

    scale = get_scale("smoke")
    config = scale.scenario(seed=seed)
    trainer = build_trainer(
        "cews",
        config,
        train=make_train_config(scale, seed=seed, backend=backend),
        ppo=make_ppo_config(scale),
        seed=seed,
    )
    return trainer, config, scale


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--backend", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--episodes", type=int, required=True,
                        help="stop by itself after this many episodes")
    parser.add_argument("--free-run", action="store_true",
                        help="do not wait for 'go' between episodes")
    args = parser.parse_args()

    trainer, __, __ = smoke_trainer(args.seed, args.backend)

    def on_episode_end(t, episode: int) -> None:
        log = t.last_episode_log
        fields = [
            log.kappa, log.xi, log.rho, log.policy_loss, log.value_loss,
            log.entropy, log.extrinsic_reward, log.intrinsic_reward,
        ]
        # float.hex round-trips exactly, including nan/inf.
        print(json.dumps({"episode": episode, "log": [f.hex() for f in fields]}),
              flush=True)
        if not args.free_run and sys.stdin.readline().strip() != "go":
            raise _Stop

    try:
        trainer.train(args.episodes, on_episode_end=on_episode_end)
    except _Stop:
        pass
    finally:
        trainer.close()
    print(json.dumps({"healthy": bool(trainer.health.healthy)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
