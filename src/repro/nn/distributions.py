"""Probability distributions for stochastic policies.

The DRL-CEWS policy head emits a categorical distribution over discrete
route-planning moves and a Bernoulli over the charge decision (Section V).
Both are parameterized by raw logits and provide the differentiable
``log_prob`` and ``entropy`` terms PPO's surrogate objective needs.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .executor import register_stable_array
from .tensor import Tensor

__all__ = ["Categorical", "Bernoulli"]

# Row-index arrays for the log_prob gather, cached per batch length.  The
# PPO update calls log_prob once per minibatch per epoch with a handful of
# distinct batch sizes, so rebuilding np.arange every call is pure waste.
# The arrays are only ever read (used as a fancy index), never written.
_ROW_INDEX_CACHE: dict = {}
_ROW_INDEX_CACHE_MAX = 64


def _plan_rows(n: int) -> np.ndarray:
    """Memoized ``np.arange(n)`` (int64) for gather row indices."""
    rows = _ROW_INDEX_CACHE.get(n)
    if rows is None:
        if len(_ROW_INDEX_CACHE) >= _ROW_INDEX_CACHE_MAX:
            _ROW_INDEX_CACHE.clear()
        # Registered stable so execution plans may bake the array by
        # reference: it is immutable and keyed only by the batch length.
        rows = register_stable_array(np.arange(n))
        _ROW_INDEX_CACHE[n] = rows
    return rows


class Categorical:
    """Categorical distribution over the last axis of ``logits``.

    Parameters
    ----------
    logits:
        Tensor of shape (..., num_actions).  Rows need not be normalized.
    """

    def __init__(self, logits: Tensor):
        self.logits = logits
        self._log_probs = F.log_softmax(logits, axis=-1)

    @property
    def num_actions(self) -> int:
        return self.logits.shape[-1]

    def probs(self) -> np.ndarray:
        """Probabilities as a plain array (detached)."""
        return np.exp(self._log_probs.data)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw integer actions with the Gumbel-max trick (vectorized)."""
        logits = self.logits.data
        gumbel = rng.gumbel(size=logits.shape)
        return np.argmax(logits + gumbel, axis=-1)

    def mode(self) -> np.ndarray:
        """Greedy (most likely) actions — used at evaluation time."""
        return np.argmax(self.logits.data, axis=-1)

    def log_prob(self, actions: np.ndarray) -> Tensor:
        """Log probability of ``actions``, differentiable w.r.t. logits."""
        actions = np.asarray(actions, dtype=np.int64)
        if actions.shape != self.logits.shape[:-1]:
            raise ValueError(
                f"actions shape {actions.shape} does not match batch shape "
                f"{self.logits.shape[:-1]}"
            )
        flat_logp = self._log_probs.reshape(-1, self.num_actions)
        rows = _plan_rows(flat_logp.shape[0])
        picked = flat_logp[rows, actions.reshape(-1)]
        return picked.reshape(actions.shape) if actions.shape else picked

    def entropy(self) -> Tensor:
        """Shannon entropy per batch element."""
        return F.entropy_from_logits(self.logits, axis=-1)

    def kl_divergence(self, other: "Categorical") -> Tensor:
        """KL(self || other) per batch element."""
        p = F.softmax(self.logits, axis=-1)
        return (p * (self._log_probs - other._log_probs)).sum(axis=-1)


class Bernoulli:
    """Bernoulli distribution parameterized by a single logit per element."""

    def __init__(self, logits: Tensor):
        self.logits = logits

    def probs(self) -> np.ndarray:
        """P(outcome = 1) per element (detached)."""
        return 1.0 / (1.0 + np.exp(-self.logits.data))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw 0/1 outcomes."""
        probs = self.probs()
        return (rng.random(probs.shape) < probs).astype(np.int64)

    def mode(self) -> np.ndarray:
        """Most likely outcome per element."""
        return (self.logits.data > 0).astype(np.int64)

    def log_prob(self, outcomes: np.ndarray) -> Tensor:
        """Log P(outcomes); uses the numerically stable softplus form."""
        outcomes = np.asarray(outcomes, dtype=np.float64)
        if outcomes.shape != self.logits.shape:
            raise ValueError(
                f"outcomes shape {outcomes.shape} does not match logits shape "
                f"{self.logits.shape}"
            )
        # log p = x*z - softplus(z), softplus computed stably with the
        # exact smooth gradient (sigmoid).
        z = self.logits
        return z * Tensor(outcomes) - F.softplus(z)

    def entropy(self) -> Tensor:
        """Shannon entropy per element, differentiable w.r.t. logits."""
        # p is treated as a constant (same formula the tape always used);
        # spelling it as a detached sigmoid node keeps the array's
        # provenance visible to execution-plan capture.  ``sigmoid``
        # computes 1/(1+exp(-z)) — bit-identical to ``self.probs()``.
        z = self.logits
        p = z.sigmoid().detach()
        return F.softplus(z) - z * p
