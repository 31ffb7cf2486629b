"""A serial smoke CEWS run acts without redundant work.

Three seeded smoke episodes in-process, counting what the acting step
builds:

* at most one batched ``valid_move_mask`` call per time slot (plus one
  per reset): the env memoizes mask rows, so the agent's query and the
  ``step()`` after it do not compute the mask twice;
* no ``Transition`` object: the rollout stores episode columns;
* each env's row memo holds exactly one row per distinct worker position
  the env was stepped from, so no row was computed under the wrong key
  or dropped.

A regression in any of these would otherwise only show as a slower run.
"""

from collections import defaultdict

import pytest

import repro.env.env as env_module
from repro.agents.rollout import Transition
from repro.distributed import build_trainer
from repro.env.env import CrowdsensingEnv
from repro.experiments.scales import get_scale
from repro.experiments.training import make_ppo_config, make_train_config


@pytest.mark.gate
def test_smoke_cews_run_masks_once_per_slot_and_builds_no_transition(monkeypatch):
    counts = {"mask": 0, "step": 0, "reset": 0, "transition": 0}
    visited = defaultdict(set)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    real_step = CrowdsensingEnv.step

    def recording_step(env, action):
        visited[env].update(row.tobytes() for row in env.workers.positions)
        return real_step(env, action)

    monkeypatch.setattr(
        env_module, "valid_move_mask", counting("mask", env_module.valid_move_mask)
    )
    monkeypatch.setattr(CrowdsensingEnv, "step", counting("step", recording_step))
    monkeypatch.setattr(CrowdsensingEnv, "reset", counting("reset", CrowdsensingEnv.reset))
    monkeypatch.setattr(
        Transition, "__init__", counting("transition", Transition.__init__)
    )

    scale = get_scale("smoke")
    trainer = build_trainer(
        "cews", scale.scenario(seed=0),
        train=make_train_config(scale, seed=0, backend="serial"),
        ppo=make_ppo_config(scale), seed=0,
    )
    try:
        trainer.train(3)
    finally:
        trainer.close()

    assert counts["step"] > 0
    assert counts["mask"] <= counts["step"] + counts["reset"], counts
    assert counts["transition"] == 0, counts
    assert visited
    for env, positions in visited.items():
        assert len(env._mask_rows) == len(positions)
