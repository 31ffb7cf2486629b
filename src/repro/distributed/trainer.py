"""Synchronous chief–employee training (Section V-A, Algorithms 1-2).

One **chief** owns the global model and its optimizers.  ``M`` **employees**
each own a structurally identical local model and a local environment.
Every episode proceeds exactly as the pseudocode prescribes:

1. employees copy the global parameters;
2. each employee rolls one episode with its local policy into its replay
   buffer ``D`` (exploration);
3. for each of ``K`` update rounds, every employee samples a minibatch,
   computes gradients w.r.t. its local model, and pushes them to the PPO /
   curiosity gradient buffers; the chief waits for all ``M`` contributions,
   sums them, applies one Adam step to the global model, clears the
   buffers, and notifies the employees to re-copy parameters.

The paper argues for this *synchronous* design over asynchronous A3C-style
updates to avoid policy-lag.  The semantics are sequential-equivalent, so
this module offers three drivers with bitwise-identical results given a
seed (``TrainConfig.backend``):

* ``backend="serial"`` — deterministic, single thread (the default); the
  explore phase steps every employee in lockstep, one batched policy
  forward per time slot;
* ``backend="process"`` — each employee lives in its own worker process
  (:mod:`repro.distributed.procpool`), with weight broadcast and gradient
  return through shared-memory slabs; occupies multiple cores;
* ``backend="socket"`` — the same pool over framed TCP
  (:mod:`repro.distributed.transport`), with heartbeats, reconnect and
  command retransmission; workers may be forked locally or dialed in
  from other hosts (``python -m repro worker``).

Fault tolerance
---------------
The paper's barrier assumes every employee returns a gradient every round;
a single crashed or slow worker would stall it forever, and one NaN
contribution would silently poison the global Adam step.  This trainer
therefore layers a **resilient barrier** on top of the synchronous
semantics:

* per-employee task timeout (``employee_timeout``) with bounded retry and
  exponential backoff (``max_retries`` / ``retry_backoff``);
* a **degraded-quorum mode**: the chief proceeds once
  ``quorum_fraction * M`` contributions arrive, rescaling the summed
  gradient by ``M / count`` so the step magnitude matches the full-barrier
  expectation.  With the default ``quorum_fraction=1.0`` and no faults the
  scale factor is exactly 1 and the histories stay bitwise identical to
  the plain synchronous loop;
* **gradient quarantine** at the buffer (non-finite / norm-exploded
  contributions are rejected before touching the sum; see
  :mod:`repro.distributed.gradient_buffer`);
* a :class:`TrainerHealth` report tracking per-employee crashes, timeouts,
  quarantined gradients, restarts and consecutive failures.  A failed
  employee is *restarted* at the next episode boundary by the ordinary
  re-sync from the global model (its local parameters can never diverge,
  so a fresh copy is a full restart).

Deterministic fault injection (for tests and chaos drills) is wired via
:class:`repro.distributed.faults.FaultInjector`.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import nn
from ..agents.base import EpisodeResult
from ..agents.policy import GradientPack
from ..env.env import CrowdsensingEnv
from ..env.metrics import Metrics
from ..obs.federation import update_employee_lag
from ..obs.flight import auto_dump
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.trace import event as trace_event
from ..obs.trace import span as trace_span
from .faults import EXPLORE_ROUND, FaultInjector, InjectedCrash
from .gradient_buffer import GradientBuffer, GradientRejected
from .procpool import OP_EXPLORE, OP_MINIBATCH, ProcessEmployeePool, WorkerDied

_LOG = get_logger(__name__)

__all__ = [
    "TrainConfig",
    "EpisodeLog",
    "TrainingHistory",
    "EmployeeHealth",
    "TrainerHealth",
    "ChiefEmployeeTrainer",
]


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the distributed training loop.

    Attributes
    ----------
    num_employees:
        ``M`` — employees (paper default: 8).
    episodes:
        Training episodes (each employee contributes one rollout per
        episode).
    k_updates:
        ``K`` — chief update rounds per episode (Algorithm 1, line 17).
    backend:
        Employee execution backend — ``"serial"`` (single thread, the
        default), ``"process"`` (one worker process per employee with
        shared-memory tensor transport; see
        :mod:`repro.distributed.procpool`) or ``"socket"`` (the same pool
        over framed TCP).  All three produce bitwise-identical histories
        and checkpoints for a given seed.
    eval_every:
        Evaluate the global policy greedily every this many episodes
        (0 disables evaluation).
    seed:
        Master seed; employee RNGs derive from it.
    quorum_fraction:
        Fraction of ``M`` gradient contributions the chief requires before
        applying an update.  ``1.0`` (default) is the paper's strict
        barrier; lower values enable degraded-quorum progress under
        employee failures, with the summed gradient rescaled by
        ``M / count`` so the step magnitude is unbiased.
    employee_timeout:
        Per-task straggler timeout in seconds (``0`` disables).  On the
        process and socket backends the chief stops waiting for a late
        worker; on serial the result of an over-budget task is discarded
        after the task ends.
    max_retries:
        How many times a crashed or timed-out employee task is retried
        within the same barrier before the employee is marked failed for
        the episode.
    retry_backoff:
        Base of the exponential backoff between retries, in seconds
        (sleep is ``retry_backoff * 2**(attempt-1)``; ``0`` disables).
    quarantine_max_norm:
        If ``> 0``, gradient contributions whose global L2 norm exceeds
        this are quarantined (non-finite values are always quarantined).
    """

    num_employees: int = 8
    episodes: int = 100
    k_updates: int = 4
    backend: str = "serial"
    eval_every: int = 0
    seed: int = 0
    quorum_fraction: float = 1.0
    employee_timeout: float = 0.0
    max_retries: int = 1
    retry_backoff: float = 0.0
    quarantine_max_norm: float = 0.0
    #: Socket backend only: chief listen address ``(host, port)`` (port 0
    #: picks a free one), worker heartbeat cadence, silence threshold
    #: after which a worker is declared dead, and how many of the highest
    #: employee indices are *external* workers (started via ``python -m
    #: repro worker``) rather than forked locally.
    listen: Tuple[str, int] = ("127.0.0.1", 0)
    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 10.0
    remote_workers: int = 0
    #: Metrics federation: process/socket workers ship metric deltas
    #: piggy-backed on replies and the chief folds them into the main
    #: registry under ``worker``/``host`` labels, plus the
    #: ``repro_employee_lag_seconds`` straggler gauge.  Pure bookkeeping
    #: on values that already exist — disabling it (``--no-federate``)
    #: changes no training result, matching the obs bitwise contract.
    federate: bool = True

    def __post_init__(self) -> None:
        if self.num_employees < 1:
            raise ValueError(f"need at least one employee, got {self.num_employees}")
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")
        if self.k_updates < 1:
            raise ValueError(f"k_updates must be >= 1, got {self.k_updates}")
        if self.backend not in ("serial", "process", "socket"):
            raise ValueError(
                f"backend must be 'serial', 'process' or 'socket', "
                f"got {self.backend!r}"
            )
        if self.eval_every < 0:
            raise ValueError(f"eval_every cannot be negative, got {self.eval_every}")
        if not (0.0 < self.quorum_fraction <= 1.0):
            raise ValueError(
                f"quorum_fraction must be in (0, 1], got {self.quorum_fraction}"
            )
        if self.employee_timeout < 0:
            raise ValueError(
                f"employee_timeout cannot be negative, got {self.employee_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries cannot be negative, got {self.max_retries}")
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff cannot be negative, got {self.retry_backoff}"
            )
        if self.quarantine_max_norm < 0:
            raise ValueError(
                f"quarantine_max_norm cannot be negative, "
                f"got {self.quarantine_max_norm}"
            )
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError(
                f"heartbeat_timeout ({self.heartbeat_timeout}) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval})"
            )
        if not (0 <= self.remote_workers <= self.num_employees):
            raise ValueError(
                f"remote_workers must be in [0, num_employees], "
                f"got {self.remote_workers}"
            )
        if self.remote_workers and self.backend != "socket":
            raise ValueError("remote_workers requires backend='socket'")

    @property
    def quorum_size(self) -> int:
        """Minimum contributions the chief accepts per update round."""
        return max(1, math.ceil(self.quorum_fraction * self.num_employees))


@dataclass
class EpisodeLog:
    """Per-episode training record (mean over contributing employees)."""

    episode: int
    extrinsic_reward: float
    intrinsic_reward: float
    kappa: float
    xi: float
    rho: float
    policy_loss: float
    value_loss: float
    entropy: float
    wall_time: float
    eval_metrics: Optional[Metrics] = None


@dataclass
class TrainingHistory:
    """Everything a training run produced."""

    logs: List[EpisodeLog] = field(default_factory=list)
    total_wall_time: float = 0.0

    def curve(self, key: str) -> List[float]:
        """Per-episode series of one scalar field (e.g. ``"kappa"``)."""
        return [getattr(log, key) for log in self.logs]

    def eval_curve(self, key: str) -> List[tuple[int, float]]:
        """(episode, value) pairs from the periodic greedy evaluations."""
        return [
            (log.episode, getattr(log.eval_metrics, key))
            for log in self.logs
            if log.eval_metrics is not None
        ]

    def final_eval(self) -> Optional[Metrics]:
        """The most recent periodic evaluation, if any ran."""
        for log in reversed(self.logs):
            if log.eval_metrics is not None:
                return log.eval_metrics
        return None

    def extend(self, other: "TrainingHistory") -> "TrainingHistory":
        """Append another history's logs (e.g. after a resumed run)."""
        self.logs.extend(other.logs)
        self.total_wall_time += other.total_wall_time
        return self

    _CSV_FIELDS = (
        "episode",
        "extrinsic_reward",
        "intrinsic_reward",
        "kappa",
        "xi",
        "rho",
        "policy_loss",
        "value_loss",
        "entropy",
        "wall_time",
    )

    def save_csv(self, path) -> None:
        """Write the per-episode logs as CSV (for external plotting)."""
        import csv
        import os

        directory = os.path.dirname(os.fspath(path))
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self._CSV_FIELDS)
            for log in self.logs:
                writer.writerow([getattr(log, field) for field in self._CSV_FIELDS])

    def publish_to(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Re-emit the per-episode logs through a metrics registry.

        The last episode's scalars land in ``repro_episode_*`` gauges and
        the episode count in ``repro_history_episodes``, so the registry
        snapshot is one consistent view of what the history recorded.
        """
        registry = registry if registry is not None else get_registry()
        registry.gauge(
            "repro_history_episodes", "Episodes recorded in the training history"
        ).set(len(self.logs))
        registry.gauge(
            "repro_history_wall_seconds", "Total wall time of the training run"
        ).set(self.total_wall_time)
        if not self.logs:
            return
        last = self.logs[-1]
        for key, name, help_text in (
            ("extrinsic_reward", "repro_episode_reward", "Mean extrinsic reward"),
            ("intrinsic_reward", "repro_episode_intrinsic_reward", "Mean intrinsic reward"),
            ("kappa", "repro_episode_collection_ratio", "Collection ratio kappa"),
            ("xi", "repro_episode_fairness", "Fairness xi"),
            ("rho", "repro_episode_energy_efficiency", "Energy efficiency rho"),
        ):
            registry.gauge(name, help_text).set(float(getattr(last, key)))

    @classmethod
    def load_csv(cls, path) -> "TrainingHistory":
        """Read logs written by :meth:`save_csv` (eval columns excluded)."""
        import csv

        history = cls()
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                history.logs.append(
                    EpisodeLog(
                        episode=int(row["episode"]),
                        extrinsic_reward=float(row["extrinsic_reward"]),
                        intrinsic_reward=float(row["intrinsic_reward"]),
                        kappa=float(row["kappa"]),
                        xi=float(row["xi"]),
                        rho=float(row["rho"]),
                        policy_loss=float(row["policy_loss"]),
                        value_loss=float(row["value_loss"]),
                        entropy=float(row["entropy"]),
                        wall_time=float(row["wall_time"]),
                    )
                )
        return history


# ----------------------------------------------------------------------
# Health reporting
# ----------------------------------------------------------------------
@dataclass
class EmployeeHealth:
    """Fault counters for one employee."""

    crashes: int = 0
    timeouts: int = 0
    rejected_policy_gradients: int = 0
    rejected_curiosity_gradients: int = 0
    restarts: int = 0
    consecutive_failures: int = 0

    @property
    def rejected_gradients(self) -> int:
        """Total quarantined contributions (policy + curiosity)."""
        return self.rejected_policy_gradients + self.rejected_curiosity_gradients


@dataclass
class TrainerHealth:
    """Aggregated fault-tolerance report of one trainer."""

    employees: Dict[int, EmployeeHealth] = field(default_factory=dict)
    degraded_rounds: int = 0
    degraded_episodes: int = 0
    curiosity_skipped_rounds: int = 0

    def employee(self, index: int) -> EmployeeHealth:
        """The (auto-created) per-employee counter block."""
        if index not in self.employees:
            self.employees[index] = EmployeeHealth()
        return self.employees[index]

    @property
    def total_crashes(self) -> int:
        return sum(e.crashes for e in self.employees.values())

    @property
    def total_timeouts(self) -> int:
        return sum(e.timeouts for e in self.employees.values())

    @property
    def total_rejected_gradients(self) -> int:
        return sum(e.rejected_gradients for e in self.employees.values())

    @property
    def total_restarts(self) -> int:
        return sum(e.restarts for e in self.employees.values())

    @property
    def healthy(self) -> bool:
        """True when no fault of any kind has been observed."""
        return (
            self.total_crashes == 0
            and self.total_timeouts == 0
            and self.total_rejected_gradients == 0
            and self.degraded_rounds == 0
        )

    def summary(self) -> Dict[str, int]:
        """Flat counters for logging/CLI output."""
        return {
            "crashes": self.total_crashes,
            "timeouts": self.total_timeouts,
            "rejected_gradients": self.total_rejected_gradients,
            "restarts": self.total_restarts,
            "degraded_rounds": self.degraded_rounds,
            "degraded_episodes": self.degraded_episodes,
            "curiosity_skipped_rounds": self.curiosity_skipped_rounds,
        }

    def publish_to(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Re-emit the fault counters through a metrics registry.

        Gauges are *set* (not incremented), so re-publishing after every
        episode keeps the registry an idempotent view of this report:
        ``repro_health_<counter>`` for the aggregate summary and
        ``repro_health_employee_<counter>{employee=...}`` per employee.
        """
        registry = registry if registry is not None else get_registry()
        for key, value in self.summary().items():
            registry.gauge(
                f"repro_health_{key}", f"TrainerHealth aggregate counter {key!r}"
            ).set(value)
        per_employee = registry.gauge(
            "repro_health_employee_rejected_gradients",
            "Quarantined gradient contributions per employee",
            labelnames=("employee",),
        )
        per_crashes = registry.gauge(
            "repro_health_employee_crashes",
            "Crashes per employee",
            labelnames=("employee",),
        )
        per_restarts = registry.gauge(
            "repro_health_employee_restarts",
            "Restarts per employee",
            labelnames=("employee",),
        )
        for index, employee in sorted(self.employees.items()):
            per_employee.labels(employee=index).set(employee.rejected_gradients)
            per_crashes.labels(employee=index).set(employee.crashes)
            per_restarts.labels(employee=index).set(employee.restarts)


def _trainer_metrics(registry: Optional[MetricsRegistry] = None) -> Dict[str, object]:
    """Get-or-create the live trainer metrics in ``registry``.

    These stay hot during training (locked adds only — no clock reads
    happen inside the registry; durations are measured by the trainer
    with ``time.perf_counter``), so a metrics snapshot at any point
    reflects the run so far.
    """
    registry = registry if registry is not None else get_registry()
    return {
        "rejected": registry.counter(
            "repro_gradients_rejected_total",
            "Gradient contributions quarantined by the chief",
            labelnames=("kind", "employee"),
        ),
        "crashes": registry.counter(
            "repro_employee_crashes_total",
            "Employee task crashes absorbed by the resilient barrier",
            labelnames=("employee",),
        ),
        "timeouts": registry.counter(
            "repro_employee_timeouts_total",
            "Employee straggler timeouts absorbed by the resilient barrier",
            labelnames=("employee",),
        ),
        "restarts": registry.counter(
            "repro_employee_restarts_total",
            "Employee restarts at episode boundaries",
            labelnames=("employee",),
        ),
        "degraded": registry.counter(
            "repro_degraded_rounds_total",
            "Update rounds applied below the full employee barrier",
        ),
        "episodes": registry.counter(
            "repro_episodes_total", "Training episodes completed"
        ),
        "phase_seconds": registry.histogram(
            "repro_phase_seconds",
            "Wall time of one barrier phase (explore or one gradient round)",
            labelnames=("phase",),
            # Federation folds worker-side phase timings into this same
            # metric under fleet labels; chief-side observations leave the
            # extras empty so the plain rendering is unchanged.
            extra_labelnames=("worker", "host"),
        ),
        "barrier_wait": registry.histogram(
            "repro_barrier_wait_seconds",
            "Chief wait time collecting employee results at the barrier",
            labelnames=("phase",),
        ),
        "intrinsic": registry.gauge(
            "repro_intrinsic_reward",
            "Mean per-episode intrinsic (curiosity) reward",
        ),
    }


class _Employee:
    """One in-process employee's local state (serial backend)."""

    def __init__(self, agent, env: CrowdsensingEnv, rng: np.random.Generator):
        self.agent = agent
        self.env = env
        self.rng = rng
        self.rollout = None

    def sync(self, global_agent) -> None:
        self.agent.copy_parameters_from(global_agent)

    def one_minibatch(self, batch_size: int) -> GradientPack:
        batch = next(iter(self.rollout.minibatches(batch_size, self.rng, epochs=1)))
        return self.agent.compute_gradients(batch)


class _EmployeeMirror:
    """Chief-side stand-in for an employee living in a worker process.

    The real agent/env/rollout live across the fork; the chief keeps only
    the **authoritative RNG mirror** (updated from every worker reply, fed
    back on every SYNC and on respawn).  Exposing ``rng`` and a no-op
    ``sync`` keeps the checkpoint machinery
    (:func:`repro.distributed.checkpoint.save_checkpoint` /
    ``load_checkpoint``) byte-compatible across backends: the saved
    employee RNG states are exactly the worker states, and a restore
    reaches the workers through the next episode's weight broadcast.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def sync(self, global_agent) -> None:
        """No-op: process workers sync via the shared-memory broadcast."""


class ChiefEmployeeTrainer:
    """The chief: owns the global agent, optimizers and the training loop.

    Parameters
    ----------
    global_agent:
        The global model (a :class:`~repro.agents.policy.PPOWorkerAgent`,
        :class:`~repro.agents.cews.CEWSAgent`, … or any agent implementing
        the collect/compute-gradients protocol).
    agent_factory:
        ``f(employee_index) -> agent`` building a structurally identical
        local agent for each employee.
    env_factory:
        ``f(employee_index) -> CrowdsensingEnv`` building each employee's
        local environment (same scenario, per the paper's setup).
    config:
        Loop configuration.
    eval_env:
        Optional environment for the periodic greedy evaluations.
    fault_injector:
        Optional :class:`~repro.distributed.faults.FaultInjector` driving
        deterministic crash/straggler/corruption events (tests and chaos
        drills); ``None`` leaves every fault path dormant.
    net_fault_injector:
        Optional
        :class:`~repro.distributed.transport.NetworkFaultInjector`
        dropping/delaying/corrupting frames at the socket-transport layer
        (chaos tests); ignored by the in-process backends.
    """

    def __init__(
        self,
        global_agent,
        agent_factory: Callable[[int], object],
        env_factory: Callable[[int], CrowdsensingEnv],
        config: Optional[TrainConfig] = None,
        eval_env: Optional[CrowdsensingEnv] = None,
        fault_injector: Optional[FaultInjector] = None,
        net_fault_injector=None,
    ):
        self.config = config if config is not None else TrainConfig()
        self.global_agent = global_agent
        self.eval_env = eval_env
        self.fault_injector = fault_injector
        self.net_fault_injector = net_fault_injector
        self.health = TrainerHealth()

        master = np.random.SeedSequence(self.config.seed)
        child_seeds = master.spawn(self.config.num_employees + 1)
        if self.config.backend in ("process", "socket"):
            # Agents/envs are built *inside* the worker processes by the
            # same factories; the chief keeps only the RNG mirrors.  The
            # seed derivation is identical to the in-process backends.
            self.employees = [
                _EmployeeMirror(rng=np.random.default_rng(child_seeds[i]))
                for i in range(self.config.num_employees)
            ]
        else:
            self.employees = [
                _Employee(
                    agent=agent_factory(i),
                    env=env_factory(i),
                    rng=np.random.default_rng(child_seeds[i]),
                )
                for i in range(self.config.num_employees)
            ]
        self._eval_rng = np.random.default_rng(child_seeds[-1])
        self._episodes_done = 0
        self._pending_restart: Set[int] = set()
        #: Last explore-phase time per employee (in-process backends; the
        #: process pool keeps its own ``explore_durations``; serial counts
        #: a member's share of its group, see ``_explore_group``).  Feeds
        #: the ``repro_employee_lag_seconds`` straggler gauge.
        self._explore_durations: Dict[int, float] = {}
        #: The most recent episode's log (for on_episode_end consumers
        #: such as the ASCII dashboard).
        self.last_episode_log: Optional[EpisodeLog] = None

        policy_params = global_agent.policy_parameters()
        curiosity_params = global_agent.curiosity_parameters()
        lr = global_agent.ppo.learning_rate
        self.policy_optimizer = nn.Adam(policy_params, lr=lr)
        self.curiosity_optimizer = (
            nn.Adam(curiosity_params, lr=global_agent.ppo.effective_curiosity_lr)
            if curiosity_params
            else None
        )
        self.ppo_buffer = GradientBuffer(
            len(policy_params),
            shapes=[p.data.shape for p in policy_params],
            max_norm=self.config.quarantine_max_norm,
        )
        self.curiosity_buffer = GradientBuffer(
            len(curiosity_params),
            shapes=[p.data.shape for p in curiosity_params],
            max_norm=self.config.quarantine_max_norm,
        )
        self._proc_pool: Optional[ProcessEmployeePool] = None
        #: Global parameters in slab order: policy first, curiosity after.
        self._param_tensors = list(policy_params) + list(curiosity_params)
        if self.config.backend in ("process", "socket"):
            transport_options: Dict[str, object] = {}
            remote_indices: Sequence[int] = ()
            if self.config.backend == "socket":
                transport_options = {
                    "listen": tuple(self.config.listen),
                    "heartbeat_interval": self.config.heartbeat_interval,
                    "heartbeat_timeout": self.config.heartbeat_timeout,
                    "injector": self.net_fault_injector,
                }
                remote_indices = range(
                    self.config.num_employees - self.config.remote_workers,
                    self.config.num_employees,
                )
            self._proc_pool = ProcessEmployeePool(
                agent_factory,
                env_factory,
                self.config.num_employees,
                shapes=[tuple(p.data.shape) for p in self._param_tensors],
                num_policy_params=len(policy_params),
                initial_rng_states=[
                    e.rng.bit_generator.state for e in self.employees
                ],
                plan=(
                    self.fault_injector.plan
                    if self.fault_injector is not None
                    else None
                ),
                transport="local" if self.config.backend == "process" else "socket",
                transport_options=transport_options,
                remote_indices=remote_indices,
                federate=self.config.federate,
            )
        self._metrics = _trainer_metrics()

    # ------------------------------------------------------------------
    @property
    def episodes_completed(self) -> int:
        """Global episode counter (advances across ``train`` calls)."""
        return self._episodes_done

    # ------------------------------------------------------------------
    # Resilient barrier
    # ------------------------------------------------------------------
    def _note_crash(self, index: int, episode: int, round_index: int, phase: str) -> None:
        self.health.employee(index).crashes += 1
        self._metrics["crashes"].labels(employee=index).inc()
        trace_event(
            "fault.crash", employee=index, episode=episode, round=round_index, phase=phase
        )
        auto_dump("crash", employee=index, episode=episode, phase=phase)
        _LOG.warning(
            "employee %d crashed during %s (episode %d, round %d)",
            index,
            phase,
            episode,
            round_index,
        )

    def _note_timeout(self, index: int, episode: int, round_index: int, phase: str) -> None:
        self.health.employee(index).timeouts += 1
        self._metrics["timeouts"].labels(employee=index).inc()
        trace_event(
            "fault.timeout",
            employee=index,
            episode=episode,
            round=round_index,
            phase=phase,
        )
        _LOG.warning(
            "employee %d timed out during %s (episode %d, round %d)",
            index,
            phase,
            episode,
            round_index,
        )

    def _run_phase(
        self,
        candidates: Sequence[int],
        episode: int,
        round_index: int,
        phase: str,
        batch_size: Optional[int] = None,
    ) -> Tuple[Dict[int, object], Set[int]]:
        """Run one barrier phase over ``candidates`` with retry + timeout.

        Returns ``(results, failed)`` where ``results`` maps employee index
        to the task's return value and ``failed`` holds employees that
        exhausted every retry.  Only injected crashes, straggler timeouts
        and (process backend) real worker deaths are absorbed; genuine
        exceptions propagate unchanged.  ``phase`` is ``"explore"`` or
        ``"gradients"``.  The process pool dispatches on it (the employee
        objects live across a fork); on serial, explore runs the pending
        employees as one lockstep group (:meth:`_explore_group`) and a
        gradient round runs one minibatch per employee in index order.
        """
        config = self.config
        results: Dict[int, object] = {}
        pending = list(candidates)
        lost: Set[int] = set()  # dead workers that cannot retry this phase
        attempt = 0
        phase_start = time.perf_counter()
        while pending and attempt <= config.max_retries:
            if attempt and config.retry_backoff > 0:
                time.sleep(config.retry_backoff * (2 ** (attempt - 1)))
            if self._proc_pool is not None:
                failures = self._run_phase_process(
                    pending, results, lost, episode, round_index, phase, batch_size
                )
            elif phase == "explore":
                failures = self._explore_group(pending, results, episode, round_index)
            else:
                failures = []
                for index in pending:
                    start = time.perf_counter()  # the fault hook counts
                    try:
                        if self.fault_injector is not None:
                            self.fault_injector.before_task(index, episode, round_index)
                        with trace_span(
                            "employee.gradients",
                            employee=index,
                            episode=episode,
                            round=round_index,
                        ):
                            outcome = self.employees[index].one_minibatch(batch_size)
                    except InjectedCrash:
                        self._note_crash(index, episode, round_index, phase)
                        failures.append(index)
                        continue
                    elapsed = time.perf_counter() - start
                    if self._over_budget(index, elapsed, episode, round_index, phase):
                        failures.append(index)
                    else:
                        results[index] = outcome
            pending = failures
            attempt += 1
        if self._proc_pool is not None:
            # Phase-exit drain: an abandoned straggler task may still be
            # running; it must never leak into the next phase's work.
            for index, state in self._proc_pool.drain(range(config.num_employees)):
                # Fold the abandoned task's RNG consumption into the
                # mirror — matching serial, whose over-budget task runs
                # to completion before its result is discarded.
                self.employees[index].rng.bit_generator.state = state
        self._metrics["phase_seconds"].labels(phase=phase).observe(
            time.perf_counter() - phase_start
        )
        return results, set(pending) | lost

    def _over_budget(
        self, index: int, elapsed: float, episode: int, round_index: int, phase: str
    ) -> bool:
        """Serial straggler check: the driver cannot preempt, so an
        over-budget result is discarded after the task ends."""
        timeout = self.config.employee_timeout
        if timeout > 0 and elapsed > timeout:
            self._note_timeout(index, episode, round_index, phase)
            return True
        return False

    def _explore_group(
        self,
        pending: Sequence[int],
        results: Dict[int, object],
        episode: int,
        round_index: int,
    ) -> List[int]:
        """One serial explore attempt: the pending employees as one group.

        Every member's fault hook runs first, in index order; a crashed
        member leaves the group (the next attempt retries it in a new
        group).  The rest roll their episodes in lockstep through the
        lowest-index member's agent — every member holds the parameters
        the last sync broadcast, so any member's network gives the same
        bits — each with its own env and generator.

        A member's elapsed time is its own fault-hook time plus an even
        share of the group's rollout wall time, so it stays the cost of
        one employee's episode: a timeout sized for one rollout keeps
        its meaning however many members the group has.  The timeout is
        checked against it after the fact, and it is what
        ``_explore_durations`` records.
        """
        failures: List[int] = []
        hook_seconds: Dict[int, float] = {}
        for index in pending:
            start = time.perf_counter()
            if self.fault_injector is not None:
                try:
                    self.fault_injector.before_task(index, episode, round_index)
                except InjectedCrash:
                    self._note_crash(index, episode, round_index, "explore")
                    failures.append(index)
                    continue
            hook_seconds[index] = time.perf_counter() - start
        members = sorted(hook_seconds)
        if not members:
            return failures
        employees = [self.employees[index] for index in members]
        start = time.perf_counter()
        with ExitStack() as spans:
            for index in members:
                spans.enter_context(
                    trace_span(
                        "employee.explore",
                        employee=index,
                        episode=episode,
                        round=round_index,
                    )
                )
            episodes = employees[0].agent.collect_episodes(
                [employee.env for employee in employees],
                [employee.rng for employee in employees],
            )
        share = (time.perf_counter() - start) / len(members)
        for index, employee, (rollout, result) in zip(members, employees, episodes):
            employee.rollout = rollout
            elapsed = hook_seconds[index] + share
            self._explore_durations[index] = elapsed
            if self._over_budget(index, elapsed, episode, round_index, "explore"):
                failures.append(index)
            else:
                results[index] = result
        return sorted(failures)

    def _run_phase_process(
        self,
        pending: Sequence[int],
        results: Dict[int, object],
        lost: Set[int],
        episode: int,
        round_index: int,
        phase: str,
        batch_size: Optional[int],
    ) -> List[int]:
        """One attempt of a barrier phase against the process pool.

        Commands go out to every pending worker first, results are
        collected in index order, and the pool's exceptions map onto the
        serial bookkeeping — ``FuturesTimeoutError`` -> timeout (command
        stays in flight, the retry waits for the same task),
        ``InjectedCrash`` -> crash (fired worker-side in ``before_task``,
        RNG mirror untouched),
        :class:`WorkerDied` -> crash + immediate respawn from the mirror.
        A worker that died during a gradient round lost its rollout and
        is marked ``lost`` (failed without retry) for this phase.
        """
        pool = self._proc_pool
        config = self.config
        op = OP_EXPLORE if phase == "explore" else OP_MINIBATCH
        failures: List[int] = []
        for index in pending:
            if not pool.has_in_flight(index):
                pool.submit(index, op, episode, round_index, batch_size=batch_size)
        timeout = config.employee_timeout if config.employee_timeout > 0 else None
        wait_start = time.perf_counter()
        for index in sorted(pending):
            try:
                outcome, rng_state = pool.wait(index, timeout, phase)
            except FuturesTimeoutError:
                self._note_timeout(index, episode, round_index, phase)
                failures.append(index)
            except InjectedCrash:
                self._note_crash(index, episode, round_index, phase)
                failures.append(index)
            except WorkerDied:
                self._note_crash(index, episode, round_index, phase)
                pool.revive(
                    index,
                    [p.data for p in self._param_tensors],
                    self.employees[index].rng.bit_generator.state,
                    episode,
                )
                if op == OP_EXPLORE:
                    failures.append(index)  # the respawn can retry exploration
                else:
                    lost.add(index)  # the fresh process has no rollout
            else:
                results[index] = outcome
                self.employees[index].rng.bit_generator.state = rng_state
        self._metrics["barrier_wait"].labels(phase=phase).observe(
            time.perf_counter() - wait_start
        )
        return failures

    def _note_quarantine(
        self, index: int, episode: int, round_index: int, kind: str
    ) -> None:
        health = self.health.employee(index)
        if kind == "policy":
            health.rejected_policy_gradients += 1
        else:
            health.rejected_curiosity_gradients += 1
        self._metrics["rejected"].labels(kind=kind, employee=index).inc()
        trace_event(
            "fault.quarantine",
            employee=index,
            episode=episode,
            round=round_index,
            kind=kind,
        )
        auto_dump("quarantine", employee=index, episode=episode, kind=kind)
        _LOG.warning(
            "quarantined %s gradient from employee %d (episode %d, round %d)",
            kind,
            index,
            episode,
            round_index,
        )

    def _sync_employees(self, episode: int) -> None:
        """Broadcast the global parameters (Algorithm 1's sync), any backend.

        The process backend also ships each employee's RNG mirror and may
        discover dead workers here; those are respawned immediately and
        recorded as a crash + restart (the respawn *is* the restart).
        """
        if self._proc_pool is not None:
            arrays = [p.data for p in self._param_tensors]
            states = [e.rng.bit_generator.state for e in self.employees]
            respawned = self._proc_pool.sync(arrays, states, episode)
            for index in respawned:
                self._note_crash(index, episode, EXPLORE_ROUND, "sync")
                self.health.employee(index).restarts += 1
                self._metrics["restarts"].labels(employee=index).inc()
                trace_event("fault.restart", employee=index, episode=episode)
        else:
            for employee in self.employees:
                employee.sync(self.global_agent)

    def _require_quorum(self, count: int, what: str, episode: int) -> None:
        required = self.config.quorum_size
        if count < required:
            raise RuntimeError(
                f"episode {episode}: only {count}/{self.config.num_employees} "
                f"employees completed {what}; quorum requires {required} "
                f"(quorum_fraction={self.config.quorum_fraction})"
            )

    # ------------------------------------------------------------------
    # Gradient application
    # ------------------------------------------------------------------
    def _apply_policy_gradients(self, episode: int) -> None:
        with trace_span("chief.apply_gradients", kind="policy", episode=episode):
            grad, count = self.ppo_buffer.drain_vector()
            num_employees = self.config.num_employees
            self._require_quorum(count, "a PPO gradient round", episode)
            if count != num_employees:
                # Degraded quorum: unbias the partial sum so the expected step
                # matches the full-barrier sum of M contributions.
                grad *= num_employees / count
                self.health.degraded_rounds += 1
                self._metrics["degraded"].inc()
                trace_event(
                    "barrier.degraded", episode=episode, count=count, of=num_employees
                )
            nn.clip_grad_vector(
                grad, self.policy_optimizer.params, self.global_agent.ppo.max_grad_norm
            )
            self.policy_optimizer.step_flat(grad)

    def _apply_curiosity_gradients(self, episode: int) -> None:
        if self.curiosity_optimizer is None:
            self.curiosity_buffer.clear()
            return
        if self.curiosity_buffer.count == 0:
            return
        with trace_span("chief.apply_gradients", kind="curiosity", episode=episode):
            grad, count = self.curiosity_buffer.drain_vector()
            num_employees = self.config.num_employees
            if count < self.config.quorum_size:
                # The curiosity model is auxiliary: below quorum we skip the
                # round rather than stall the whole barrier.
                self.health.curiosity_skipped_rounds += 1
                return
            if count != num_employees:
                grad *= num_employees / count
            self.curiosity_optimizer.step_flat(grad)

    # ------------------------------------------------------------------
    # One episode of the synchronous loop
    # ------------------------------------------------------------------
    def _train_one_episode(self, episode: int, batch_size: int) -> EpisodeLog:
        episode_start = time.perf_counter()
        all_indices = list(range(self.config.num_employees))

        # Employees copy the global parameters (Algorithm 1, line 22 /
        # initial sync).  For employees that failed last episode this very
        # re-sync *is* the restart: their entire mutable state is the
        # parameter copy plus a fresh rollout.
        for index in sorted(self._pending_restart):
            self.health.employee(index).restarts += 1
            self._metrics["restarts"].labels(employee=index).inc()
            trace_event("fault.restart", employee=index, episode=episode)
            _LOG.warning(
                "employee %d restarted at episode %d boundary "
                "(consecutive failures: %d)",
                index,
                episode,
                self.health.employee(index).consecutive_failures,
            )
        self._pending_restart.clear()
        with trace_span("phase.sync", episode=episode):
            self._sync_employees(episode)

        # Exploration phase (one worker process per employee on the
        # process/socket backends, one lockstep group on serial).
        self._explore_durations.clear()
        if self._proc_pool is not None:
            self._proc_pool.explore_durations.clear()
        with trace_span("phase.explore", episode=episode):
            explore_results, failed = self._run_phase(
                all_indices, episode, EXPLORE_ROUND, phase="explore"
            )
        if self.config.federate:
            durations = (
                self._proc_pool.explore_durations
                if self._proc_pool is not None
                else self._explore_durations
            )
            stragglers = update_employee_lag(durations)
            for index in stragglers:
                trace_event(
                    "fleet.straggler",
                    employee=index,
                    episode=episode,
                    dur=durations[index],
                )
        active = sorted(explore_results)
        self._require_quorum(len(active), "exploration", episode)
        results: List[EpisodeResult] = [explore_results[i] for i in active]

        # K synchronous update rounds (Algorithm 1 lines 17-23 /
        # Algorithm 2).
        stats_accum = []
        for round_index in range(self.config.k_updates):
            with trace_span("phase.gradients", episode=episode, round=round_index):
                packs, round_failed = self._run_phase(
                    active,
                    episode,
                    round_index,
                    phase="gradients",
                    batch_size=batch_size,
                )
            if round_failed:
                failed |= round_failed
                active = [i for i in active if i not in round_failed]
            for index in sorted(packs):
                pack: GradientPack = packs[index]
                if self.fault_injector is not None:
                    self.fault_injector.corrupt_arrays(
                        index, episode, round_index, pack.policy, "policy"
                    )
                    self.fault_injector.corrupt_arrays(
                        index, episode, round_index, pack.curiosity, "curiosity"
                    )
                accepted = True
                try:
                    self.ppo_buffer.add_vector(pack.policy_vector, employee=index)
                except GradientRejected:
                    self._note_quarantine(index, episode, round_index, "policy")
                    accepted = False
                if pack.curiosity:
                    try:
                        self.curiosity_buffer.add_vector(
                            pack.curiosity_vector, employee=index
                        )
                    except GradientRejected:
                        self._note_quarantine(index, episode, round_index, "curiosity")
                if accepted:
                    stats_accum.append(pack.stats)
            self._apply_policy_gradients(episode)
            self._apply_curiosity_gradients(episode)
            with trace_span("phase.sync", episode=episode, round=round_index):
                self._sync_employees(episode)

        # Failure bookkeeping: contributors reset their streak, everyone
        # else extends it and is restarted at the next episode boundary.
        if failed:
            self.health.degraded_episodes += 1
        for index in all_indices:
            if index in failed:
                self.health.employee(index).consecutive_failures += 1
                self._pending_restart.add(index)
            elif index in self.health.employees:
                self.health.employees[index].consecutive_failures = 0

        eval_metrics = None
        if (
            self.config.eval_every
            and self.eval_env is not None
            and (episode + 1) % self.config.eval_every == 0
        ):
            from ..agents.base import evaluate_policy

            with trace_span("phase.eval", episode=episode):
                eval_metrics = evaluate_policy(
                    self.global_agent, self.eval_env, self._eval_rng
                )

        return EpisodeLog(
            episode=episode,
            extrinsic_reward=float(np.mean([r.extrinsic_reward for r in results])),
            intrinsic_reward=float(np.mean([r.intrinsic_reward for r in results])),
            kappa=float(np.mean([r.metrics.kappa for r in results])),
            xi=float(np.mean([r.metrics.xi for r in results])),
            rho=float(np.mean([r.metrics.rho for r in results])),
            policy_loss=float(np.mean([s.policy_loss for s in stats_accum])),
            value_loss=float(np.mean([s.value_loss for s in stats_accum])),
            entropy=float(np.mean([s.entropy for s in stats_accum])),
            wall_time=time.perf_counter() - episode_start,
            eval_metrics=eval_metrics,
        )

    # ------------------------------------------------------------------
    def train(
        self,
        episodes: Optional[int] = None,
        on_episode_end: Optional[Callable[["ChiefEmployeeTrainer", int], None]] = None,
    ) -> TrainingHistory:
        """Run the full synchronous loop; returns the training history.

        ``on_episode_end(trainer, episode)`` is invoked after each episode
        (used by the checkpointing driver in
        :func:`repro.experiments.training.resume_or_start`); the global
        episode counter advances across successive ``train`` calls so a
        restored trainer continues numbering where the checkpoint left off.
        """
        episodes = episodes if episodes is not None else self.config.episodes
        history = TrainingHistory()
        start = time.perf_counter()
        batch_size = self.global_agent.ppo.batch_size

        for __ in range(episodes):
            episode = self._episodes_done
            with trace_span("episode", episode=episode):
                log = self._train_one_episode(episode, batch_size)
            history.logs.append(log)
            self.last_episode_log = log
            self._episodes_done += 1
            self._metrics["episodes"].inc()
            self._metrics["intrinsic"].set(log.intrinsic_reward)
            if on_episode_end is not None:
                on_episode_end(self, episode)
        history.total_wall_time = time.perf_counter() - start
        history.publish_to()
        self.health.publish_to()
        return history

    def close(self) -> None:
        """Shut down the worker pool and slabs (no-op for the serial driver)."""
        if self._proc_pool is not None:
            self._proc_pool.shutdown()
            self._proc_pool = None

    def __enter__(self) -> "ChiefEmployeeTrainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
