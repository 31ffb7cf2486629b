"""Intra-minibatch data parallelism for the PPO update (DESIGN § 6i).

One employee's minibatch update factors cleanly over batch rows: every
term of the PPO objective is a mean over the batch, so for any partition
of the ``B`` rows into contiguous shards of sizes ``n_0..n_{S-1}``

    grad(mean over B)  ==  sum_k (n_k / B) * grad(mean over shard k)

up to floating-point associativity.  This module holds the pieces every
backend shares so the sharded update is **bitwise identical across
serial, thread, process and socket backends**:

* :func:`normalize_minibatch` — the chief normalizes advantages over the
  *full* minibatch (the exact expression ``_ppo_arrays`` uses), then
  shard gradients are computed with ``normalize_advantages=False``.
  Normalization is the only cross-row coupling in the update, so hoisting
  it is what makes the row partition exact.
* :func:`split_minibatch` — contiguous row shards (``np.array_split``
  boundaries), so shard ``k``'s rows are a deterministic function of
  ``(B, S)`` alone.
* :func:`combine_shard_packs` — scales shard ``k`` by ``w_k = n_k / B``
  and sums with a **fixed-order pairwise tree reduce** over shard
  indices.  The reduce order is part of the numeric contract: every
  backend combines the same shard results in the same order, so the
  combined :class:`~repro.agents.policy.GradientPack` is byte-identical
  no matter which worker computed which shard.
* :func:`compute_sharded_update` — the reference path (serial and thread
  backends): sample-free, shards computed in shard order on one agent.

Sharded bits are **not** the unsharded bits (float addition is not
associative), which is why ``TrainConfig.shard_minibatch`` defaults to 1
and the mode is opt-in; within the sharded mode the four backends agree
bitwise.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import List, Sequence

import numpy as np

from .policy import GradientPack
from .ppo import PPOConfig, PPOStats
from .rollout import MiniBatch

__all__ = [
    "combine_shard_packs",
    "combine_shard_stats",
    "compute_sharded_update",
    "normalize_minibatch",
    "shard_sizes",
    "split_minibatch",
]


def normalize_minibatch(batch: MiniBatch, config: PPOConfig) -> MiniBatch:
    """Full-batch advantage normalization, hoisted out of the shards.

    Applies the exact expression the unsharded update applies inside
    ``_ppo_arrays`` — ``(a - a.mean()) / (a.std() + 1e-8)`` — over the
    *whole* minibatch, so shard workers can run with
    ``normalize_advantages=False`` and still see advantages normalized
    against full-minibatch statistics.
    """
    advantages = np.asarray(batch.advantages, dtype=np.float64).copy()
    if config.normalize_advantages and len(advantages) > 1:
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    return replace(batch, advantages=advantages)


def shard_sizes(total: int, num_shards: int) -> List[int]:
    """Row counts of the contiguous shards (``np.array_split`` boundaries).

    The shard count is clamped to ``total`` so no shard is ever empty —
    an empty minibatch has no defined PPO loss.
    """
    if total < 1:
        raise ValueError(f"cannot shard an empty minibatch (got {total} rows)")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    num_shards = min(num_shards, total)
    base, extra = divmod(total, num_shards)
    return [base + (1 if k < extra else 0) for k in range(num_shards)]


def split_minibatch(batch: MiniBatch, num_shards: int) -> List[MiniBatch]:
    """Split into contiguous row shards (every field has a leading B axis)."""
    sizes = shard_sizes(len(batch), num_shards)
    shards: List[MiniBatch] = []
    start = 0
    for size in sizes:
        stop = start + size
        shards.append(
            MiniBatch(
                **{
                    f.name: getattr(batch, f.name)[start:stop]
                    for f in fields(MiniBatch)
                }
            )
        )
        start = stop
    return shards


def combine_shard_stats(
    stats: Sequence[PPOStats], sizes: Sequence[int]
) -> PPOStats:
    """Row-weighted recombination of per-shard diagnostics.

    Every :class:`PPOStats` field is a mean over batch rows, so the
    full-minibatch value is the ``n_k / B``-weighted mean of the shard
    values — summed left-to-right in shard order (fixed, like the
    gradient reduce).
    """
    total = float(sum(sizes))
    weights = [size / total for size in sizes]

    def weighted(attr: str) -> float:
        acc = 0.0
        for stat, weight in zip(stats, weights):
            acc += weight * getattr(stat, attr)
        return acc

    return PPOStats(
        policy_loss=weighted("policy_loss"),
        value_loss=weighted("value_loss"),
        entropy=weighted("entropy"),
        clip_fraction=weighted("clip_fraction"),
        approx_kl=weighted("approx_kl"),
    )


def _tree_reduce(terms: List[List[np.ndarray]]) -> List[np.ndarray]:
    """Pairwise sum in fixed index order: (0+1), (2+3), ... then recurse.

    The bracketing depends only on the number of shards, never on
    arrival order, so all backends produce identical bits.
    """
    while len(terms) > 1:
        folded: List[List[np.ndarray]] = []
        for left, right in zip(terms[0::2], terms[1::2]):
            folded.append([a + b for a, b in zip(left, right)])
        if len(terms) % 2:
            folded.append(terms[-1])
        terms = folded
    return terms[0]


def combine_shard_packs(
    packs: Sequence[GradientPack], sizes: Sequence[int]
) -> GradientPack:
    """Weighted tree-reduce of per-shard gradients into one contribution.

    Shard ``k`` is scaled by ``w_k = n_k / B`` (the chain rule factor
    relating the shard mean to the full-batch mean), then policy and
    curiosity gradient lists are summed pairwise in shard-index order.
    """
    if len(packs) != len(sizes):
        raise ValueError(f"{len(packs)} shard packs for {len(sizes)} shard sizes")
    if not packs:
        raise ValueError("cannot combine zero shard packs")
    total = float(sum(sizes))
    weights = [size / total for size in sizes]
    policy_terms = [
        [weight * grad for grad in pack.policy]
        for pack, weight in zip(packs, weights)
    ]
    curiosity_terms = [
        [weight * grad for grad in pack.curiosity]
        for pack, weight in zip(packs, weights)
    ]
    return GradientPack(
        policy=_tree_reduce(policy_terms),
        curiosity=(
            _tree_reduce(curiosity_terms) if packs[0].curiosity else []
        ),
        stats=combine_shard_stats([pack.stats for pack in packs], sizes),
    )


def compute_sharded_update(
    agent, batch: MiniBatch, num_shards: int
) -> GradientPack:
    """The reference sharded update: one agent, shards in shard order.

    The serial and thread backends run this directly; the process and
    socket backends distribute the same shards across workers and feed
    the replies through the same :func:`combine_shard_packs`, so all four
    produce identical bytes.
    """
    normalized = normalize_minibatch(batch, agent.ppo)
    shards = split_minibatch(normalized, num_shards)
    packs = [
        agent.compute_gradients(shard, normalize_advantages=False)
        for shard in shards
    ]
    return combine_shard_packs(packs, [len(shard) for shard in shards])
