"""DPPO baseline (Heess et al. 2017; Section VII-B).

Distributed PPO with the same CNN actor-critic and chief–employee carrier
as DRL-CEWS but:

* **dense** extrinsic reward (Eqn. 20),
* **no curiosity**,
* per-batch advantage normalization (the trick the paper adopts from the
  DPPO paper), 8 employees, batch size 250.

Because the only differences from DRL-CEWS are the reward signal and the
missing intrinsic reward, comparisons between the two isolate the paper's
contribution.
"""

from __future__ import annotations

from typing import Optional

from ..curiosity.base import NullCuriosity
from ..env.config import ScenarioConfig
from .policy import PPOWorkerAgent
from .ppo import PPOConfig

__all__ = ["DPPOAgent"]


class DPPOAgent(PPOWorkerAgent):
    """DPPO agent: PPO + dense reward, no curiosity."""

    #: reward mode the training environment should use for this agent
    reward_mode = "dense"

    def __init__(
        self,
        config: ScenarioConfig,
        ppo: Optional[PPOConfig] = None,
        seed: int = 0,
        feature_dim: int = 128,
        layer_norm: bool = True,
    ):
        if ppo is None:
            # PPOConfig normalizes advantages per batch by default.
            ppo = PPOConfig()
        super().__init__(
            config=config,
            curiosity=NullCuriosity(),
            ppo=ppo,
            seed=seed,
            feature_dim=feature_dim,
            layer_norm=layer_norm,
            name="DPPO",
        )
