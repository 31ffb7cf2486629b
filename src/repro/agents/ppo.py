"""PPO losses (Section IV and Eqns. 11-12).

:func:`ppo_loss` computes the clipped-surrogate policy objective, the value
loss and the entropy bonus for one minibatch, returning the combined scalar
loss tensor plus diagnostics.  Employees call this, backpropagate, and ship
the resulting gradients to the chief (Algorithm 1, lines 17-21).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..obs.trace import span as trace_span
from .networks import MASKED_LOGIT, CNNActorCritic
from .rollout import MiniBatch

__all__ = ["PPOConfig", "PPOStats", "make_ppo_planner", "ppo_loss", "ppo_step"]


@dataclass(frozen=True)
class PPOConfig:
    """Hyperparameters of the PPO update.

    Attributes
    ----------
    clip_epsilon:
        The clip range ``ε`` of Eqn. (8)/(12); 0.2 is the standard choice.
    value_coef:
        Weight of the value loss in the combined objective.
    entropy_coef:
        Weight of the entropy bonus (encourages exploration on top of
        curiosity).
    normalize_advantages:
        Per-batch advantage normalization (the DPPO baseline's trick,
        Section VII-B; also used by DRL-CEWS for stability).
    max_grad_norm:
        Global gradient-norm clip applied by the trainer.
    gamma, gae_lambda:
        Discount and GAE parameter for the rollout buffer; ``gae_lambda
        = None`` selects plain Monte-Carlo advantages ``G_t - V(s_t)``.
    epochs:
        Update passes over the buffer per episode (``K`` in Algorithm 1).
    batch_size:
        Minibatch size (the paper's second studied hyperparameter).
    learning_rate:
        Adam step size used by the chief.
    curiosity_learning_rate:
        Adam step size for the curiosity (forward-model) optimizer.  The
        paper does not specify one; defaults to ``learning_rate``.  A
        faster rate makes the intrinsic reward decay sooner, turning
        curiosity into an early exploration bonus — useful on short
        training budgets.
    """

    clip_epsilon: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    normalize_advantages: bool = True
    max_grad_norm: float = 0.5
    gamma: float = 0.99
    gae_lambda: float | None = 0.95
    epochs: int = 4
    batch_size: int = 250
    learning_rate: float = 3e-4
    curiosity_learning_rate: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError(f"clip_epsilon must be in (0, 1), got {self.clip_epsilon}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.curiosity_learning_rate is not None and self.curiosity_learning_rate <= 0:
            raise ValueError(
                "curiosity_learning_rate must be positive, "
                f"got {self.curiosity_learning_rate}"
            )

    @property
    def effective_curiosity_lr(self) -> float:
        """The curiosity optimizer's step size (defaults to the policy's)."""
        return (
            self.curiosity_learning_rate
            if self.curiosity_learning_rate is not None
            else self.learning_rate
        )


@dataclass(frozen=True)
class PPOStats:
    """Diagnostics of one loss evaluation."""

    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    approx_kl: float


def _ppo_arrays(batch: MiniBatch, config: PPOConfig) -> dict:
    """Plain-array prologue of the PPO update (no tape ops).

    Produces the input dict for the taped/planned program; every value is
    an ``np.ndarray`` with a call-stable dtype so the execution planner
    can key plans on the shape signature alone.
    """
    advantages = batch.advantages.copy()
    if config.normalize_advantages and len(advantages) > 1:
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    move_mask = np.asarray(batch.move_masks, dtype=bool)
    return {
        "states": np.asarray(batch.states, dtype=np.float64),
        "worker_features": np.asarray(batch.worker_features, dtype=np.float64),
        "mask_penalty": np.where(move_mask, 0.0, MASKED_LOGIT),
        "moves": np.asarray(batch.moves, dtype=np.int64),
        "charges": np.asarray(batch.charges, dtype=np.float64),
        "log_probs": np.asarray(batch.log_probs, dtype=np.float64),
        "advantages": np.asarray(advantages, dtype=np.float64),
        "returns": np.asarray(batch.returns, dtype=np.float64),
    }


def _ppo_program(network: CNNActorCritic, config: PPOConfig):
    """The taped body of the PPO update as an executor-compatible program.

    Returns a callable mapping the `_ppo_arrays` dict to named loss
    tensors.  This is the exact op sequence `ppo_loss` always built;
    factoring it this way lets :class:`repro.nn.Planner` capture it once
    per shape signature and replay it as a flat execution plan.
    """

    def program(inputs: dict) -> dict:
        with trace_span("ppo.forward", batch=len(inputs["returns"])):
            output = network.forward(
                inputs["states"],
                worker_features=inputs["worker_features"],
                mask_penalty=inputs["mask_penalty"],
            )

        new_log_prob = output.log_prob(inputs["moves"], inputs["charges"])
        log_ratio = new_log_prob - nn.Tensor(inputs["log_probs"])
        ratio = log_ratio.exp()

        adv = nn.Tensor(inputs["advantages"])
        unclipped = ratio * adv
        clipped = ratio.clip(1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon) * adv
        policy_objective = unclipped.minimum(clipped).mean()
        policy_loss = -policy_objective

        value_error = output.value - nn.Tensor(inputs["returns"])
        value_loss = (value_error * value_error).mean()

        entropy = output.entropy().mean()

        loss = (
            policy_loss
            + config.value_coef * value_loss
            - config.entropy_coef * entropy
        )
        return {
            "loss": loss,
            "policy_loss": policy_loss,
            "value_loss": value_loss,
            "entropy": entropy,
            "ratio": ratio,
            "log_ratio": log_ratio,
        }

    return program


def _ppo_stats(outs: dict, config: PPOConfig) -> PPOStats:
    """Detached-diagnostics epilogue over the program's output arrays."""
    with np.errstate(over="ignore"):
        ratio_data = outs["ratio"]
    clip_fraction = float(
        np.mean(np.abs(ratio_data - 1.0) > config.clip_epsilon)
    )
    approx_kl = float(np.mean(-outs["log_ratio"]))
    return PPOStats(
        policy_loss=float(outs["policy_loss"]),
        value_loss=float(outs["value_loss"]),
        entropy=float(outs["entropy"]),
        clip_fraction=clip_fraction,
        approx_kl=approx_kl,
    )


def make_ppo_planner(network: CNNActorCritic, config: PPOConfig) -> nn.Planner:
    """An execution planner over this network's PPO update program."""
    return nn.Planner(_ppo_program(network, config), loss="loss", name="ppo")


def ppo_loss(
    network: CNNActorCritic,
    batch: MiniBatch,
    config: PPOConfig,
) -> tuple[nn.Tensor, PPOStats]:
    """Combined PPO loss for one minibatch (always on the tape).

    Returns the scalar loss tensor (ready for ``backward()``) and detached
    diagnostics.
    """
    arrays = _ppo_arrays(batch, config)
    outputs = _ppo_program(network, config)(arrays)
    stats = _ppo_stats({name: t.data for name, t in outputs.items()}, config)
    return outputs["loss"], stats


def ppo_step(
    network: CNNActorCritic,
    batch: MiniBatch,
    config: PPOConfig,
    planner: nn.Planner | None = None,
) -> PPOStats:
    """One full PPO loss evaluation plus backward pass.

    Leaf gradients are accumulated into ``param.grad`` exactly as
    ``ppo_loss(...)[0].backward()`` would.  With a ``planner`` the update
    runs as a validated execution plan when the fast path is allowed
    (bit-identical by construction, tape otherwise).
    """
    arrays = _ppo_arrays(batch, config)
    if planner is not None:
        outs = planner.step(arrays)
    else:
        outputs = _ppo_program(network, config)(arrays)
        outputs["loss"].backward()
        outs = {name: t.data for name, t in outputs.items()}
    return _ppo_stats(outs, config)
