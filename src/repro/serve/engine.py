"""The policy engine: checkpoint weights in, bitwise joint actions out.

The engine owns the one numerical contract the whole service is built on:
**a coalesced batch must answer every row bitwise-identically to the
offline single-state** :meth:`~repro.agents.policy.PPOWorkerAgent.act_full`.

The engine holds no network math of its own.  It runs the one acting
forward there is, :meth:`~repro.agents.networks.CNNActorCritic.forward_rows`
— the program ``act_full`` plans at ``B = 1`` — over a coalesced batch:
the conv trunk stacked, every Linear as one stacked ``(B, 1, in)``
matmul (:func:`repro.nn.functional.linear_rows`; naively stacking rows
through a ``(B, in)`` GEMM would not reproduce the ``(1, in)`` bits),
and the action of every row chosen in one pass by
:func:`repro.agents.networks.select_actions`, where only sampled rows
draw, each as a batch of one from a fresh ``np.random.default_rng(seed)``
so clients can reproduce any served action offline.  Nothing loops over
rows in Python.

The forward runs under :class:`repro.nn.no_grad` through a
:class:`repro.nn.ForwardPlanner` — one plan per batch-size signature (up
to :data:`MAX_PLANS`), byte-validated against the tape on first capture;
``REPRO_NO_PLANS=1`` serves every batch from the tape.  Hot reload is
``load_state_dict`` (in-place ``param.data[...] =``), which compiled
plans observe automatically because replay reads parameter ``.data``
per call.
"""

from __future__ import annotations

import json
import os
import zipfile
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import nn
from ..agents.networks import (
    CNNActorCritic,
    PolicyOutput,
    row_inputs,
    select_actions,
)
from ..distributed.checkpoint import (
    CheckpointCorruptError,
    _payload_checksum,
    _resolve_load_path,
)
from .protocol import InferError, InferRequest, InferResult, RequestError

__all__ = [
    "PolicyEngine",
    "load_network_state",
    "network_from_state",
]

_NETWORK_PREFIX = "agent.network."

#: Forward plans kept per engine, one per batch size; a batch size past
#: the cap runs on the tape.
MAX_PLANS = 32


def load_network_state(path: os.PathLike, verify: bool = True) -> Dict[str, np.ndarray]:
    """Read a checkpoint's policy-network arrays without building a trainer.

    ``load_checkpoint`` restores a full :class:`ChiefEmployeeTrainer`
    (optimizer moments, employee RNGs, episode counter); serving needs
    none of that.  This reads the ``agent.network.*`` arrays directly and
    still verifies the archive's SHA-256 payload checksum, so a torn or
    corrupted checkpoint is refused instead of served.
    """
    path = _resolve_load_path(path)
    try:
        archive_ctx = np.load(path)
    except (zipfile.BadZipFile, OSError, ValueError) as error:
        raise CheckpointCorruptError(f"unreadable checkpoint {path!r}: {error}")
    with archive_ctx as archive:
        try:
            manifest = json.loads(bytes(archive["__manifest__"]).decode())
            arrays = {key: archive[key] for key in archive.files}
        except (KeyError, ValueError, zipfile.BadZipFile, OSError) as error:
            raise CheckpointCorruptError(
                f"checkpoint {path!r} has no readable manifest: {error}"
            )
    if verify and "checksum" in manifest:
        payload = {k: v for k, v in arrays.items() if k != "__manifest__"}
        actual = _payload_checksum(payload)
        if actual != manifest["checksum"]:
            raise CheckpointCorruptError(
                f"checkpoint {path!r} failed checksum validation "
                f"(expected {manifest['checksum'][:12]}…, got {actual[:12]}…)"
            )
    state = {
        key[len(_NETWORK_PREFIX):]: value.copy()
        for key, value in arrays.items()
        if key.startswith(_NETWORK_PREFIX)
    }
    if not state:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} holds no {_NETWORK_PREFIX}* arrays"
        )
    return state


def _conv_stride2_out(size: int) -> int:
    # Conv2d(kernel=3, stride=2, padding=1): out = (size + 2 - 3) // 2 + 1
    return (size - 1) // 2 + 1


def _state_geometry(state: Dict[str, np.ndarray]) -> Dict[str, int]:
    """The architecture facts recoverable from a saved state dict alone.

    Channels come from ``conv1.weight`` (out, in, kH, kW), the feature
    width from ``fc.weight`` (out, in), the worker count from
    ``charge_head.weight``, and layer norm from the presence of ``norm1``
    keys.  The *grid* is NOT recoverable: the two stride-2 convs floor-
    divide it, so several grids share one ``fc`` input width (e.g. grids
    5–8 all flatten to 64) — it must come from the first request's state.
    """
    try:
        return {
            "channels": int(state["conv1.weight"].shape[1]),
            "feature_dim": int(state["fc.weight"].shape[0]),
            "flat": int(state["fc.weight"].shape[1]),
            "num_workers": int(state["charge_head.weight"].shape[0]),
            "layer_norm": int("norm1.weight" in state),
        }
    except KeyError as error:
        raise CheckpointCorruptError(f"network state missing {error}")


def network_from_state(state: Dict[str, np.ndarray], grid: int) -> CNNActorCritic:
    """Rebuild the policy network a state dict was saved from.

    ``grid`` must be supplied (see :func:`_state_geometry`); a grid whose
    conv arithmetic contradicts ``fc.weight``'s input width is refused.
    """
    geometry = _state_geometry(state)
    half = _conv_stride2_out(_conv_stride2_out(int(grid)))
    if 16 * half * half != geometry["flat"]:
        raise CheckpointCorruptError(
            f"grid {grid} flattens to {16 * half * half} features; the "
            f"checkpoint's fc layer expects {geometry['flat']}"
        )
    network = CNNActorCritic(
        channels=geometry["channels"],
        grid=int(grid),
        num_workers=geometry["num_workers"],
        feature_dim=geometry["feature_dim"],
        rng=np.random.default_rng(0),
        layer_norm=bool(geometry["layer_norm"]),
    )
    network.load_state_dict(state)
    return network


class PolicyEngine:
    """Batched, bitwise-exact inference over one policy network.

    Parameters
    ----------
    state:
        Network state dict (from :func:`load_network_state`).
    generation:
        Monotonic checkpoint-generation stamp attached to every result.

    The forward replays execution plans (:data:`MAX_PLANS` batch sizes)
    and falls back to the tape whenever
    ``fast_path_allowed(forward_only=True)`` refuses — under
    ``REPRO_NO_PLANS=1`` or an installed instrument.
    """

    def __init__(self, state: Dict[str, np.ndarray], generation: int = 0):
        self._geometry = _state_geometry(state)
        # The grid is ambiguous from the state dict alone (see
        # _state_geometry), so the network is built lazily from the first
        # request's state shape.
        self.network: Optional[CNNActorCritic] = None
        self._pending_state: Optional[Dict[str, np.ndarray]] = state
        self.generation = int(generation)
        self._planner: Optional[nn.ForwardPlanner] = None
        self.batches = 0
        self.rows = 0

    def _forward(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        with nn.no_grad():
            return self._planner.step(inputs)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def _ensure_network(self, request: InferRequest) -> None:
        """Build the network from the first request's state geometry."""
        if self.network is not None:
            return
        grid = int(request.state.shape[1])
        try:
            self.network = network_from_state(self._pending_state, grid)
        except CheckpointCorruptError as error:
            raise RequestError(str(error))
        self._pending_state = None
        self._planner = nn.ForwardPlanner(
            self.network.forward_rows, name="serve", max_plans=MAX_PLANS
        )

    def _check_geometry(self, request: InferRequest) -> None:
        net = self.network
        expected_state = (net.channels, net.grid, net.grid)
        if request.state.shape != expected_state:
            raise RequestError(
                f"state shape {request.state.shape} does not match the "
                f"checkpoint's {expected_state}"
            )
        if request.move_mask.shape[0] != net.num_workers:
            raise RequestError(
                f"request has {request.move_mask.shape[0]} workers; the "
                f"checkpoint serves {net.num_workers}"
            )

    def infer_batch(self, requests: Sequence[InferRequest]) -> List[object]:
        """Answer a coalesced batch; each row bitwise-equals ``act_full``.

        Validation is per row: a stray-geometry request yields an
        :class:`InferError` marker in its slot instead of failing the
        whole batch — its co-batched neighbours (other clients' valid
        requests) are forwarded and answered normally.
        """
        if not requests:
            return []
        outcomes: List[object] = [None] * len(requests)
        good: List[int] = []
        for i, request in enumerate(requests):
            try:
                # The network is built lazily from the first row whose
                # geometry yields a valid grid; rows that can't build or
                # match it fail alone.
                self._ensure_network(request)
                self._check_geometry(request)
            except RequestError as error:
                outcomes[i] = InferError(str(error))
            else:
                good.append(i)
        if good:
            results = self._infer_rows([requests[i] for i in good])
            for i, result in zip(good, results):
                outcomes[i] = result
        return outcomes

    def _infer_rows(self, requests: Sequence[InferRequest]) -> List[InferResult]:
        """The stacked forward over geometry-validated rows."""
        outputs = self._forward(
            row_inputs(
                np.stack([r.state for r in requests]),
                np.stack([r.move_mask for r in requests]),
                np.stack([r.worker_features for r in requests]),
            )
        )
        # A fresh default_rng(seed) per sampled request, so a client can
        # reproduce any served action offline.
        moves, charges, log_probs = select_actions(
            PolicyOutput.from_arrays(outputs),
            [None if r.greedy else np.random.default_rng(r.seed) for r in requests],
        )
        generation = self.generation
        results = [
            InferResult(
                moves=row_moves,
                charges=row_charges,
                log_prob=log_prob,
                value=value,
                generation=generation,
                cached=False,
                batch_size=len(requests),
            )
            for row_moves, row_charges, log_prob, value in zip(
                moves, charges, log_probs.tolist(), outputs["value"].tolist()
            )
        ]
        self.batches += 1
        self.rows += len(requests)
        return results

    def reload(self, state: Dict[str, np.ndarray], generation: int) -> None:
        """Swap in new weights (in place — compiled plans stay valid)."""
        if int(generation) <= self.generation:
            raise ValueError(
                f"generation must advance ({generation} <= {self.generation})"
            )
        if self.network is None:
            # Callers (the pool worker's OP_RELOAD) may pass zero-copy
            # slab views; with no network yet the arrays sit in
            # _pending_state until the first request, by which time the
            # parent may have rewritten the slab — copy them now.
            state = {key: np.array(value) for key, value in state.items()}
            self._geometry = _state_geometry(state)
            self._pending_state = state
        else:
            self.network.load_state_dict(state)
        self.generation = int(generation)

    def info(self) -> Dict[str, int]:
        """Served-model facts for the ``info`` protocol message."""
        info = dict(self._geometry)
        info.pop("flat", None)
        info["generation"] = self.generation
        info["grid"] = -1 if self.network is None else self.network.grid
        info["plans"] = int(self._planner is not None)
        return info

    def stats(self) -> Dict[str, int]:
        stats = {"batches": self.batches, "rows": self.rows}
        if self._planner is not None:
            stats.update(self._planner.stats)
        return stats
