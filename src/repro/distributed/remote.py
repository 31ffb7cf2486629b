"""External employee workers: ``python -m repro worker`` entry logic.

A remote worker is an employee process the chief did *not* fork: it is
started by an operator (possibly on another host), dials the chief's
:class:`~repro.distributed.transport.SocketTransport` listener, and then
serves exactly the same SYNC/EXPLORE/MINIBATCH/SHUTDOWN loop as a forked
worker (:func:`~repro.distributed.procpool.serve_employee`).

Bootstrap happens over the wire instead of over ``fork``: the WELCOME
payload carries everything a forked worker would have received inside
its :class:`~repro.distributed.procpool.WorkerSpec` — parameter shapes,
the policy/curiosity split and the fault plan.  Its RNG state comes, as
a forked worker's does, with every SYNC (the chief's authoritative
mirror).  The agent and environment are rebuilt locally from the same
deterministic factories, so a remote worker is observationally identical
to a forked one.
"""

from __future__ import annotations

from typing import Callable, Tuple

from .procpool import WorkerSpec, serve_employee
from .transport import ANY_GENERATION, EndpointSpec, SocketWorkerEndpoint

__all__ = ["run_remote_worker"]


def run_remote_worker(
    index: int,
    address: Tuple[str, int],
    token: str,
    agent_factory: Callable[[int], object],
    env_factory: Callable[[int], object],
    connect_timeout: float = 30.0,
) -> None:
    """Dial the chief and serve the employee protocol until SHUTDOWN.

    Raises :class:`~repro.distributed.transport.ChannelClosed` when the
    chief is unreachable or refuses the connection (bad token, unknown
    index); returns normally when the chief shuts the pool down or goes
    away for good.
    """
    spec = EndpointSpec(
        kind="socket",
        index=int(index),
        address=(address[0], int(address[1])),
        token=token,
        generation=ANY_GENERATION,
        connect_timeout=float(connect_timeout),
    )
    endpoint = SocketWorkerEndpoint(spec)
    welcome = endpoint.welcome
    worker_spec = WorkerSpec(
        index=int(index),
        agent_factory=agent_factory,
        env_factory=env_factory,
        plan=welcome.get("plan"),
        endpoint=spec,
        shapes=tuple(tuple(int(d) for d in s) for s in welcome["shapes"]),
        num_policy_params=int(welcome["num_policy_params"]),
        federate=bool(welcome.get("federate", False)),
    )
    serve_employee(worker_spec, endpoint)
