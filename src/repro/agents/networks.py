"""The CNN actor-critic of Section V-B (Fig. 1).

"Given the state in our system is not as complicated as a real image, we
adopt a small CNN which consists of three convolutional layers and one
fully connected layer to output a 1D state feature φ(s_t).  We add layer
normalization to make the updating process more stable."

On top of the trunk sit three heads:

* a **move head** producing, for every worker, logits over the nine
  route-planning decisions ``v_t^w``;
* a **charge head** producing one Bernoulli logit per worker for the
  energy charging decision ``u_t^w``;
* a **value head** ``V(φ(s_t))`` predicting the discounted return.

The heads additionally receive explicit per-worker features
``[x/L, y/L, b/b0]``.  This adds no information beyond the state matrix —
worker positions and energies are already channel 0, and Algorithm 1 has
every worker report "remaining energy, current location" to the server —
but it resolves the which-blob-is-worker-w ambiguity a pure global CNN
readout suffers from, conditioning the policy heads dramatically better
(see DESIGN.md §5a).

Invalid moves are masked to ``-inf`` before sampling, which realizes the
paper's "the server makes valid navigation decision for each worker".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..env.actions import NUM_MOVES

__all__ = ["PolicyOutput", "CNNActorCritic", "row_inputs", "select_actions"]

MASKED_LOGIT = -1e9


def row_inputs(
    states: np.ndarray, move_mask: np.ndarray, worker_features: np.ndarray
) -> Dict[str, np.ndarray]:
    """:meth:`CNNActorCritic.forward_rows`'s inputs from ``(B, …)`` arrays.

    ``states`` is (B, C, G, G), ``move_mask`` (B, W, NUM_MOVES) booleans
    and ``worker_features`` (B, W, 3).  The mask becomes an additive
    ``MASKED_LOGIT`` penalty, a plain input an execution plan can read.
    """
    batch = states.shape[0]
    return {
        "states": states,
        "mask_penalty": np.where(move_mask, 0.0, MASKED_LOGIT),
        "worker_features_flat": np.ascontiguousarray(
            worker_features.reshape(batch, -1)
        ),
    }


@dataclass
class PolicyOutput:
    """Everything the policy produces for a batch of states.

    Attributes
    ----------
    move_logits:
        (B, W, NUM_MOVES) tensor, already validity-masked if a mask was
        given.
    charge_logits:
        (B, W) tensor of Bernoulli logits.
    value:
        (B,) tensor of state values.
    """

    move_logits: nn.Tensor
    charge_logits: nn.Tensor
    value: nn.Tensor

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "PolicyOutput":
        """Wrap a planned :meth:`CNNActorCritic.forward_rows` result."""
        return cls(
            move_logits=nn.Tensor(arrays["move_logits"]),
            charge_logits=nn.Tensor(arrays["charge_logits"]),
            value=nn.Tensor(arrays["value"]),
        )

    def move_distribution(self) -> nn.Categorical:
        """Per-worker categorical over the nine moves."""
        return nn.Categorical(self.move_logits)

    def charge_distribution(self) -> nn.Bernoulli:
        """Per-worker Bernoulli over the charge decision."""
        return nn.Bernoulli(self.charge_logits)

    def log_prob(self, moves: np.ndarray, charges: np.ndarray) -> nn.Tensor:
        """(B,) joint log-probability of the whole action ``a_t = [u, v]``.

        The policy factorizes over workers and over the two decision types,
        so the joint log-prob is the sum of the parts.
        """
        move_lp = self.move_distribution().log_prob(moves).sum(axis=-1)
        charge_lp = self.charge_distribution().log_prob(
            np.asarray(charges, dtype=np.float64)
        ).sum(axis=-1)
        return move_lp + charge_lp

    def entropy(self) -> nn.Tensor:
        """(B,) total policy entropy (moves + charges, summed over workers)."""
        move_entropy = self.move_distribution().entropy().sum(axis=-1)
        charge_entropy = self.charge_distribution().entropy().sum(axis=-1)
        return move_entropy + charge_entropy


def select_actions(
    output: PolicyOutput, rngs: Sequence[Optional[np.random.Generator]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Choose the joint action of every row of ``output``.

    ``rngs[i]`` is row ``i``'s generator, or ``None`` for its greedy
    (argmax) action.  Returns int64 ``moves`` and ``charges`` of shape
    (B, W) and the (B,) joint log-probabilities.

    This is the one action selection both the rollout
    (:meth:`~repro.agents.policy.PPOWorkerAgent.act_full`, ``B = 1``) and
    the inference service (a coalesced batch) run, which is what makes a
    served action bitwise-equal to the offline one: every step is either
    element-wise or a reduction over the last axis, so a row's bits do
    not depend on the rows stacked around it, and a sampled row draws as
    a batch of one — moves first, then charges — from its own generator.

    It runs on the output's plain arrays, not through Tensor dispatch,
    but computes what :meth:`PolicyOutput.move_distribution`,
    :meth:`PolicyOutput.charge_distribution` and
    :meth:`PolicyOutput.log_prob` compute, op for op and in the same
    order: ``Categorical.mode``/``sample`` (a Gumbel-max draw),
    ``Bernoulli.mode``/``sample`` (a uniform draw against the sigmoid),
    and the registry's own ``log_softmax`` and ``softplus`` kernels.
    """
    move_logits = output.move_logits.data
    charge_logits = output.charge_logits.data
    moves = move_logits.argmax(axis=-1)
    charges = (charge_logits > 0).astype(np.int64)
    for row, rng in enumerate(rngs):
        if rng is not None:
            logits = move_logits[row : row + 1]
            moves[row] = (logits + rng.gumbel(size=logits.shape)).argmax(axis=-1)[0]
            probs = 1.0 / (1.0 + np.exp(-charge_logits[row : row + 1]))
            charges[row] = (rng.random(probs.shape) < probs)[0]
    log_probs, __ = F.LOG_SOFTMAX.forward(move_logits, axis=-1)
    flat_log_probs = log_probs.reshape(-1, move_logits.shape[-1])
    picked = flat_log_probs[np.arange(len(flat_log_probs)), moves.reshape(-1)]
    move_lp = picked.reshape(moves.shape).sum(axis=-1)
    softplus, __ = F.SOFTPLUS.forward(charge_logits)
    charge_lp = (charge_logits * charges.astype(np.float64) - softplus).sum(axis=-1)
    return moves, charges, move_lp + charge_lp


class CNNActorCritic(nn.Module):
    """Three-conv-layer trunk with layer norm, plus policy and value heads.

    Parameters
    ----------
    channels, grid:
        State tensor geometry (channels, grid, grid).
    num_workers:
        ``W`` — the move and charge heads emit per-worker outputs.
    feature_dim:
        Width of the 1-D state feature ``φ(s_t)``.
    """

    def __init__(
        self,
        channels: int,
        grid: int,
        num_workers: int,
        feature_dim: int = 128,
        rng: Optional[np.random.Generator] = None,
        layer_norm: bool = True,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.num_workers = num_workers
        self.grid = grid
        self.channels = channels
        self.feature_dim = feature_dim
        self.use_layer_norm = layer_norm

        self.conv1 = nn.Conv2d(channels, 8, kernel_size=3, stride=1, padding=1, rng=rng)
        self.conv2 = nn.Conv2d(8, 16, kernel_size=3, stride=2, padding=1, rng=rng)
        self.conv3 = nn.Conv2d(16, 16, kernel_size=3, stride=2, padding=1, rng=rng)
        if layer_norm:
            self.norm1 = nn.ChannelLayerNorm(8)
            self.norm2 = nn.ChannelLayerNorm(16)
            self.norm3 = nn.ChannelLayerNorm(16)

        h, w = grid, grid
        h, w = self.conv1.output_size(h, w)
        h, w = self.conv2.output_size(h, w)
        h, w = self.conv3.output_size(h, w)
        flat = 16 * h * w

        self.fc = nn.Linear(flat, feature_dim, rng=rng)

        #: per-worker feature width: [x/L, y/L, b/b0]
        self.worker_feature_dim = 3
        head_in = feature_dim + num_workers * self.worker_feature_dim
        self.head_trunk = nn.Linear(head_in, feature_dim, rng=rng)
        self.move_head = nn.Linear(
            feature_dim, num_workers * NUM_MOVES, rng=rng,
            weight_init="orthogonal", gain=0.01,
        )
        self.charge_head = nn.Linear(
            feature_dim, num_workers, rng=rng, weight_init="orthogonal", gain=0.01
        )
        # Start with a low charge probability (~12%) so untrained workers
        # explore instead of idling at stations half the time.
        self.charge_head.bias.data[...] = -2.0
        self.value_head = nn.Linear(
            feature_dim, 1, rng=rng, weight_init="orthogonal", gain=1.0
        )

    def _conv_trunk(self, states: nn.Tensor) -> nn.Tensor:
        """(B, C, G, G) -> (B, flat) conv features, flattened per sample."""
        x = self.conv1(states)
        if self.use_layer_norm:
            x = self.norm1(x)
        x = x.relu()
        x = self.conv2(x)
        if self.use_layer_norm:
            x = self.norm2(x)
        x = x.relu()
        x = self.conv3(x)
        if self.use_layer_norm:
            x = self.norm3(x)
        x = x.relu()
        return x.reshape(x.shape[0], -1)

    def features(self, states: nn.Tensor) -> nn.Tensor:
        """The trunk: (B, C, G, G) -> (B, feature_dim) feature ``φ(s_t)``."""
        return self.fc(self._conv_trunk(states)).relu()

    def forward_rows(self, inputs: Dict[str, np.ndarray]) -> Dict[str, nn.Tensor]:
        """The acting forward: every row's bits are those of a batch of one.

        ``inputs`` is :func:`row_inputs`'s dict; the result maps
        ``move_logits``/``charge_logits``/``value`` to tensors.  This is
        the program the rollout (``act_full``, ``B = 1``) and the
        inference service (a coalesced batch) both plan with
        :class:`repro.nn.ForwardPlanner`, so a served row equals the
        offline action bit for bit.  The conv trunk runs stacked — its
        im2col matmuls have ``B × positions`` rows and keep each sample
        in its own row block — and every Linear runs through
        :func:`repro.nn.functional.linear_rows`.

        :meth:`forward` stays the PPO update's program: its plain
        ``(B, in)`` GEMMs are the training contract's bits.
        """
        batch = inputs["states"].shape[0]
        x = self._conv_trunk(nn.Tensor(inputs["states"]))
        phi = F.linear_rows(x, self.fc.weight, self.fc.bias).relu()
        flat = nn.Tensor(inputs["worker_features_flat"])
        head = F.linear_rows(
            nn.concat([phi, flat], axis=1), self.head_trunk.weight, self.head_trunk.bias
        ).relu()
        move_logits = F.linear_rows(
            head, self.move_head.weight, self.move_head.bias
        ).reshape(batch, self.num_workers, NUM_MOVES) + nn.Tensor(inputs["mask_penalty"])
        charge_logits = F.linear_rows(head, self.charge_head.weight, self.charge_head.bias)
        value = F.linear_rows(head, self.value_head.weight, self.value_head.bias)
        return {
            "move_logits": move_logits,
            "charge_logits": charge_logits,
            "value": value.reshape(batch),
        }

    def forward(
        self,
        states: np.ndarray,
        move_mask: Optional[np.ndarray] = None,
        worker_features: Optional[np.ndarray] = None,
        mask_penalty: Optional[np.ndarray] = None,
    ) -> PolicyOutput:
        """Run the network on raw state arrays.

        Parameters
        ----------
        states:
            (B, C, G, G) array (a single (C, G, G) state is auto-batched).
        move_mask:
            Optional (B, W, NUM_MOVES) boolean validity mask; invalid moves
            receive ``MASKED_LOGIT``.
        worker_features:
            Optional (B, W, worker_feature_dim) per-worker features; zeros
            when omitted (the heads then rely on the CNN alone).
        mask_penalty:
            Optional precomputed ``np.where(move_mask, 0.0, MASKED_LOGIT)``
            float array.  The PPO update passes the penalty as a plain
            input so execution-plan capture sees a resolvable leaf
            instead of a per-call temporary; supplying both ``move_mask``
            and ``mask_penalty`` is an error.
        """
        states = np.asarray(states, dtype=np.float64)
        if states.ndim == 3:
            states = states[None]
        batch = states.shape[0]
        phi = self.features(nn.Tensor(states))

        if worker_features is None:
            worker_features = np.zeros(
                (batch, self.num_workers, self.worker_feature_dim)
            )
        else:
            worker_features = np.asarray(worker_features, dtype=np.float64)
            if worker_features.ndim == 2:
                worker_features = worker_features[None]
            expected = (batch, self.num_workers, self.worker_feature_dim)
            if worker_features.shape != expected:
                raise ValueError(
                    f"worker_features shape {worker_features.shape} does not "
                    f"match {expected}"
                )
        flat_features = nn.Tensor(worker_features.reshape(batch, -1))
        head_input = self.head_trunk(nn.concat([phi, flat_features], axis=1)).relu()

        move_logits = self.move_head(head_input).reshape(
            batch, self.num_workers, NUM_MOVES
        )
        if mask_penalty is not None:
            if move_mask is not None:
                raise ValueError("pass either move_mask or mask_penalty, not both")
            move_logits = move_logits + nn.Tensor(mask_penalty)
        elif move_mask is not None:
            move_mask = np.asarray(move_mask, dtype=bool)
            if move_mask.ndim == 2:
                move_mask = move_mask[None]
            if move_mask.shape != (batch, self.num_workers, NUM_MOVES):
                raise ValueError(
                    f"move_mask shape {move_mask.shape} does not match "
                    f"({batch}, {self.num_workers}, {NUM_MOVES})"
                )
            penalty = np.where(move_mask, 0.0, MASKED_LOGIT)
            move_logits = move_logits + nn.Tensor(penalty)

        charge_logits = self.charge_head(head_input)
        value = self.value_head(head_input).reshape(batch)
        return PolicyOutput(move_logits=move_logits, charge_logits=charge_logits, value=value)
