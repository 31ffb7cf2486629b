"""Top-level CLI: train, evaluate, report, lint, trace and profile.

Usage::

    python -m repro train --method cews --scale smoke --episodes 50 \\
        --checkpoint runs/cews.npz --history runs/cews.csv
    python -m repro train --backend socket --listen 0.0.0.0:5555 \\
        --remote-workers 2           # chief for a multi-host fleet
    python -m repro worker --connect chief-host:5555 --token <token> \\
        --index 6                    # serve one employee over TCP
    python -m repro evaluate --method cews --scale smoke \\
        --checkpoint runs/cews.npz --episodes 5
    python -m repro report          # stitch results/*.txt into REPORT.md
    python -m repro lint            # reprolint static-analysis gate
    python -m repro trace summary runs/trace   # aggregate a JSONL trace
    python -m repro profile --episodes 2       # per-op autograd hot spots

Observability toggles:

* ``--sanitize`` runs training/evaluation under the runtime autograd
  sanitizer (NaN/dtype checks at every op boundary; ``train`` accepts it
  on ``--backend serial`` only, as it does ``--profile``);
* ``--lockwatch`` runs it under the lock-order sanitizer;
* ``--trace-dir DIR`` records structured spans/events to
  ``DIR/trace.jsonl``;
* ``--profile`` wraps the run in the per-op autograd profiler and prints
  the hot-spot table at the end;
* ``--dashboard N`` renders the ASCII live dashboard every N episodes;
* ``--obs-port N`` serves ``/metrics``, ``/metrics.json``,
  ``/trace/summary`` and ``/healthz`` over HTTP for the duration of the
  run (``python -m repro obs serve`` for ad hoc use);
* ``--flight-dir DIR`` arms the crash flight recorder: recent spans +
  metric snapshots are dumped as a post-mortem bundle on worker
  death/quarantine (``python -m repro obs dump`` / ``obs validate`` to
  trigger/check one by hand);
* ``--no-federate`` turns off worker->chief metrics federation (metric
  deltas piggy-backed on replies, folded under worker/host labels).

All of these only *read* clocks and values, so toggling them never
changes training results.  Figure/table regeneration lives under
``python -m repro.experiments``.

The subcommand registry below is the single source of truth for
``python -m repro --help``: every subcommand appears there with a
one-line description, and unknown subcommands exit with status 2.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method", choices=("cews", "dppo", "edics"), default="cews"
    )
    parser.add_argument("--scale", choices=("smoke", "short", "paper"), default="smoke")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run under the runtime autograd sanitizer (NaN/dtype checks at "
        "every op boundary)",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="record structured spans/events to <dir>/trace.jsonl",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile per-op autograd wall time/FLOPs and print the "
        "hot-spot table at the end",
    )
    parser.add_argument(
        "--lockwatch",
        action="store_true",
        help="run under the lock-order sanitizer (SAN004 order-inversion / "
        "SAN005 long-hold findings)",
    )
    parser.add_argument(
        "--obs-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics, /metrics.json, /trace/summary and /healthz "
        "on 127.0.0.1:PORT for the duration of the run (0 = OS-assigned)",
    )
    parser.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="arm the crash flight recorder: dump recent spans + metric "
        "snapshots to DIR as a post-mortem bundle on crash/quarantine",
    )
    parser.add_argument(
        "--no-federate",
        action="store_true",
        help="disable worker->chief metrics federation (per-worker metric "
        "deltas folded into the chief registry under worker/host labels)",
    )


def _maybe_sanitizer(args):
    """An enabled Sanitizer when ``--sanitize`` asks for one, else None."""
    from .analysis import sanitizer as sanitizer_mod

    if getattr(args, "sanitize", False):
        return sanitizer_mod.Sanitizer().enable()
    return None


def _maybe_lockwatch(args):
    """An enabled LockWatch when ``--lockwatch`` asks for one, else None.

    Enabled *before* the trainer is constructed so every lock the run
    allocates goes through the patched factories.
    """
    from .analysis import lockwatch as lockwatch_mod

    if getattr(args, "lockwatch", False):
        return lockwatch_mod.LockWatch(mode="record").enable()
    return None


def _maybe_tracer(args):
    """An installed Tracer when ``--trace-dir`` names a directory, else None."""
    from .obs import trace as trace_mod

    trace_dir = getattr(args, "trace_dir", None)
    if trace_dir is None:
        return None
    return trace_mod.Tracer(trace_mod.trace_path_for(trace_dir)).install()


def _maybe_profiler(args):
    """An enabled OpProfiler when ``--profile`` asks for one, else None."""
    from .obs import profiler as profiler_mod

    if getattr(args, "profile", False):
        return profiler_mod.OpProfiler().enable()
    return None


def _maybe_flight(args):
    """An installed FlightRecorder when ``--flight-dir`` names one, else None."""
    from .obs import flight as flight_mod

    flight_dir = getattr(args, "flight_dir", None)
    if flight_dir is None:
        return None
    return flight_mod.FlightRecorder(directory=flight_dir).install()


def _maybe_server(args):
    """A started ObsServer when ``--obs-port`` names a port, else None."""
    from .obs import server as server_mod

    port = getattr(args, "obs_port", None)
    if port is None:
        return None
    server = server_mod.ObsServer(port=port).start()
    print(server.summary())
    return server


class _Observability:
    """Enable/disable the requested observability layers around a command.

    The sanitizer and the profiler both patch ``Tensor.backward``, so
    they are enabled sanitizer-first and disabled strictly LIFO —
    each restores exactly the callable it saw.
    """

    def __init__(self, args):
        self._args = args
        self.lockwatch = None
        self.sanitizer = None
        self.tracer = None
        self.profiler = None
        self.flight = None
        self.server = None

    def __enter__(self) -> "_Observability":
        # Lockwatch first: the trainer's locks are allocated when the
        # command body constructs it, and only factories patched before
        # that point produce watched locks.  The flight recorder taps the
        # tracer's sink chain, so it installs after the tracer; the HTTP
        # server goes last so every layer it reports on is already live.
        self.lockwatch = _maybe_lockwatch(self._args)
        self.sanitizer = _maybe_sanitizer(self._args)
        self.tracer = _maybe_tracer(self._args)
        self.profiler = _maybe_profiler(self._args)
        self.flight = _maybe_flight(self._args)
        self.server = _maybe_server(self._args)
        return self

    def __exit__(self, *exc) -> None:
        if self.server is not None:
            print(self.server.summary())
            self.server.stop()
        if self.flight is not None:
            self.flight.uninstall()
            print(self.flight.summary())
        if self.profiler is not None:
            self.profiler.disable()
            print(self.profiler.render_table())
            print(self.profiler.summary())
        if self.tracer is not None:
            self.tracer.uninstall()
            print(self.tracer.summary())
        if self.sanitizer is not None:
            self.sanitizer.disable()
            print(self.sanitizer.summary())
        if self.lockwatch is not None:
            self.lockwatch.disable()
            print(self.lockwatch.summary())
            for finding in self.lockwatch.findings:
                print(finding.render())


def _parse_hostport(value: str):
    """``host:port`` -> ``(host, port)`` (bare ``:port`` binds all interfaces)."""
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"expected HOST:PORT, got {value!r}")
    return (host or "0.0.0.0", int(port))


def _build_trainer(args, episodes=None):
    import dataclasses

    from .distributed import build_trainer
    from .experiments.scales import get_scale
    from .experiments.training import make_ppo_config, make_train_config

    scale = get_scale(args.scale)
    config = scale.scenario()
    train = make_train_config(
        scale,
        episodes=episodes,
        seed=args.seed,
        backend=getattr(args, "backend", "serial"),
    )
    overrides = {
        name: getattr(args, name)
        for name in (
            "quorum_fraction",
            "employee_timeout",
            "max_retries",
            "quarantine_max_norm",
            "remote_workers",
        )
        if getattr(args, name, None) is not None
    }
    if getattr(args, "listen", None) is not None:
        overrides["listen"] = _parse_hostport(args.listen)
    if getattr(args, "no_federate", False):
        overrides["federate"] = False
    if overrides:
        train = dataclasses.replace(train, **overrides)
    trainer = build_trainer(
        args.method,
        config,
        train=train,
        ppo=make_ppo_config(scale),
        seed=args.seed,
    )
    return trainer, scale, config


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_train(args) -> int:
    import signal

    if args.backend != "serial" and (args.profile or args.sanitize):
        # Employees run in forked children on the other backends, so an
        # instrument enabled here would see none of their ops.
        print(
            "python -m repro train: error: --profile and --sanitize see only "
            "this process's ops; use them with --backend serial",
            file=sys.stderr,
        )
        return 2

    from .analysis import SanitizerError
    from .distributed import save_checkpoint
    from .experiments.training import resume_or_start

    owner = os.getpid()

    def interrupt(signum, frame):
        # SIGTERM (what a supervisor sends) takes SIGINT's way out.  Its
        # default action skips ``finally: trainer.close()`` and the
        # pool's atexit hook, leaving employee processes and /dev/shm
        # slabs behind.  Forked employees inherit this handler; for them
        # SIGTERM must stay fatal, or ``Process.terminate()`` raises an
        # exception in the worker instead of stopping it.
        if os.getpid() == owner:
            raise KeyboardInterrupt
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    previous = signal.signal(signal.SIGTERM, interrupt)
    try:
        with _Observability(args):
            try:
                return _run_train(args, save_checkpoint, resume_or_start)
            except SanitizerError as error:
                print(f"sanitizer caught: {error}")
                return 1
    finally:
        signal.signal(signal.SIGTERM, previous)


def _run_train(args, save_checkpoint, resume_or_start) -> int:
    trainer, scale, config = _build_trainer(args, episodes=args.episodes)
    episodes = args.episodes if args.episodes is not None else scale.episodes
    print(
        f"training {args.method} on {config.grid}x{config.grid} "
        f"(P={config.num_pois}, W={config.num_workers}) for {episodes} episodes"
    )
    if trainer.config.backend == "socket":
        transport = trainer._proc_pool.transport
        host, port = transport.address
        print(f"transport: listening on {host}:{port} (token {transport.token})")
        if trainer.config.remote_workers:
            first = trainer.config.num_employees - trainer.config.remote_workers
            for index in range(first, trainer.config.num_employees):
                print(
                    f"  start employee {index} with: python -m repro worker "
                    f"--connect {host}:{port} --token {transport.token} "
                    f"--index {index} --method {args.method} "
                    f"--scale {args.scale} --seed {args.seed}"
                )
    on_end = None
    if getattr(args, "dashboard", None):
        from .obs import Dashboard

        dashboard = Dashboard(every=args.dashboard)

        def on_end(t, episode: int) -> None:
            if t.last_episode_log is not None:
                dashboard.on_episode_end(t.last_episode_log)

    try:
        if args.checkpoint_dir:
            # Crash-safe mode: auto-resume from the newest valid rolling
            # checkpoint and keep checkpointing as we go.
            history = resume_or_start(
                trainer,
                args.checkpoint_dir,
                episodes,
                save_every=args.save_every,
                keep_last=args.keep_last,
                on_episode_end=on_end,
            )
            if not history.logs:
                print(
                    f"checkpoints in {args.checkpoint_dir} already cover "
                    f"{episodes} episodes; nothing to do"
                )
            elif history.logs[0].episode > 0:
                print(f"resumed from episode {history.logs[0].episode}")
        else:
            history = trainer.train(on_episode_end=on_end)
    finally:
        trainer.close()
    if history.logs:
        tail = max(len(history.logs) // 4, 1)
        kappa = float(np.mean(history.curve("kappa")[-tail:]))
        rho = float(np.mean(history.curve("rho")[-tail:]))
        print(
            f"done in {history.total_wall_time:.1f}s; "
            f"tail kappa={kappa:.3f} rho={rho:.3f}"
        )
    if not trainer.health.healthy:
        print(f"health: {trainer.health.summary()}")
    if args.history:
        history.save_csv(args.history)
        print(f"history -> {args.history}")
    if args.checkpoint:
        save_checkpoint(trainer, args.checkpoint)
        print(f"checkpoint -> {args.checkpoint}")
    return 0


def cmd_evaluate(args) -> int:
    from .analysis import SanitizerError
    from .distributed import load_checkpoint
    from .experiments.scales import get_scale
    from .experiments.training import evaluate_agent

    with _Observability(args):
        try:
            return _run_evaluate(args, load_checkpoint, evaluate_agent, get_scale)
        except SanitizerError as error:
            print(f"sanitizer caught: {error}")
            return 1


def _run_evaluate(args, load_checkpoint, evaluate_agent, get_scale) -> int:
    trainer, scale, config = _build_trainer(args)
    if args.checkpoint:
        load_checkpoint(trainer, args.checkpoint)
        print(f"loaded {args.checkpoint}")
    agent = trainer.global_agent
    scale = get_scale(args.scale).with_overrides(eval_episodes=args.episodes)
    metrics = evaluate_agent(
        agent,
        config,
        scale,
        seed=args.seed,
        reward_mode=getattr(agent, "reward_mode", "dense"),
    )
    trainer.close()
    print(
        f"kappa={metrics['kappa']:.3f} xi={metrics['xi']:.3f} "
        f"rho={metrics['rho']:.3f} (mean of {args.episodes} episodes)"
    )
    return 0


def cmd_worker(args) -> int:
    from .distributed.factories import build_worker_factories
    from .distributed.remote import run_remote_worker
    from .distributed.transport import ChannelClosed
    from .experiments.scales import get_scale
    from .experiments.training import make_ppo_config

    scale = get_scale(args.scale)
    config = scale.scenario()
    agent_factory, env_factory = build_worker_factories(
        args.method, config, ppo=make_ppo_config(scale), seed=args.seed
    )
    host, port = _parse_hostport(args.connect)
    print(f"employee {args.index}: dialing chief at {host}:{port}")
    try:
        run_remote_worker(
            index=args.index,
            address=(host, port),
            token=args.token,
            agent_factory=agent_factory,
            env_factory=env_factory,
            connect_timeout=args.connect_timeout,
        )
    except ChannelClosed as error:
        print(f"employee {args.index}: {error}")
        return 1
    print(f"employee {args.index}: session over; exiting")
    return 0


def cmd_report(args) -> int:
    from .experiments.export import write_report

    print(f"wrote {write_report()}")
    return 0


def cmd_lint(args) -> int:
    from .analysis import cli as lint_cli

    return lint_cli.run(args)


def cmd_trace(args) -> int:
    import json

    from .obs import trace as trace_mod

    try:
        records = trace_mod.read_trace(args.path)
    except FileNotFoundError:
        print(f"no trace file at {args.path!r}")
        return 1
    except trace_mod.TraceError as error:
        print(f"invalid trace: {error}")
        return 1
    if args.action == "cat":
        for record in records:
            print(json.dumps(record, sort_keys=True))
        return 0
    # Chief-side synthetic employee.* spans are placeholders for workers
    # whose real spans arrived by a later reply; drop the shadowed ones so
    # the summary never double-counts a phase.
    summary = trace_mod.summarize_trace(trace_mod.dedupe_synthetic(records))
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(trace_mod.render_trace_summary(summary))
    return 0


def cmd_obs(args) -> int:
    import json
    import threading

    from .obs import flight as flight_mod
    from .obs import server as server_mod

    if args.obs_action == "serve":
        with server_mod.ObsServer(port=args.port, host=args.host) as server:
            print(server.summary())
            print("serving until Ctrl-C ...")
            try:
                threading.Event().wait()
            except KeyboardInterrupt:
                print("stopping")
        return 0
    if args.obs_action == "dump":
        recorder = flight_mod.get_flight_recorder()
        if recorder is None:
            # No recorder armed in this process: build a detached one so
            # the dump still captures the current metric snapshot.
            recorder = flight_mod.FlightRecorder(directory=args.flight_dir)
        path = recorder.dump(args.reason)
        print(f"flight bundle -> {path}")
        return 0
    # validate
    status = 0
    for path in args.paths:
        try:
            bundle = flight_mod.validate_bundle(path)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"{path}: INVALID ({error})")
            status = 1
        else:
            print(
                f"{path}: ok (reason={bundle['reason']!r}, "
                f"{len(bundle['spans'])} spans, "
                f"{len(bundle['metrics'])} metric snapshots)"
            )
    return status


def cmd_serve(args) -> int:
    import asyncio
    import os
    import signal

    from .serve import InferenceServer, InlinePool, ServeWorkerPool
    from .serve.engine import load_network_state

    path = args.checkpoint
    if os.path.isdir(path):
        from .distributed.checkpoint import CheckpointManager

        resolved = CheckpointManager(path).latest()
        if resolved is None:
            print(f"no checkpoint found under {path}")
            return 1
        path = resolved
    state = load_network_state(path)
    if args.workers > 0:
        pool = ServeWorkerPool(state, num_workers=args.workers, generation=1)
    else:
        pool = InlinePool(state, generation=1)
    server = InferenceServer(
        pool,
        host=args.host,
        port=args.port,
        http_port=None if args.no_http else args.http_port,
        http_host=args.host,
        max_batch=args.max_batch,
        max_delay=args.max_delay_ms / 1000.0,
        max_pending=args.max_pending,
        cache_size=args.cache_size,
    )

    async def run() -> None:
        # SIGTERM takes SIGINT's way out: cancel this task, so the
        # ``finally`` below reaps the fork workers and their slabs.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        try:
            await server.start()
            print(f"serving {path} (generation {server.generation})")
            print(f"  tcp://{args.host}:{server.port}")
            if server.http_address:
                print(f"  http://{server.http_address}  (/infer /metrics /-/reload)")
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("stopping")
    return 0


def cmd_profile(args) -> int:
    from .obs import OpProfiler

    profiler = OpProfiler().enable()
    try:
        trainer, scale, config = _build_trainer(args, episodes=args.episodes)
        print(
            f"profiling {args.method} on {config.grid}x{config.grid} "
            f"for {args.episodes} episode(s)"
        )
        try:
            trainer.train()
        finally:
            trainer.close()
    finally:
        profiler.disable()
    print(profiler.render_table(limit=args.limit))
    print(profiler.summary())
    return 0


# ----------------------------------------------------------------------
# Subcommand registry — single source of truth for `--help`
# ----------------------------------------------------------------------
def _configure_train(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--episodes", type=int, default=None)
    parser.add_argument("--checkpoint", default=None, help="save .npz here")
    parser.add_argument("--history", default=None, help="save CSV logs here")
    parser.add_argument(
        "--backend",
        choices=("serial", "process", "socket"),
        default="serial",
        help=(
            "employee execution backend: serial (one thread, default), "
            "process (one worker process per employee with shared-memory "
            "tensor transport), socket (worker processes over framed TCP "
            "with heartbeats/reconnect; workers may also dial in from other "
            "hosts, see the `worker` subcommand). Results are "
            "bitwise-identical across all backends for a given seed."
        ),
    )
    parser.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="socket backend: chief listen address (default 127.0.0.1:0 = "
        "loopback, OS-assigned port; the chosen port is logged)",
    )
    parser.add_argument(
        "--remote-workers",
        type=int,
        default=None,
        metavar="N",
        help="socket backend: the N highest employee indices are external "
        "workers started via `python -m repro worker` instead of forked",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="rolling crash-safe checkpoints here; auto-resumes if present",
    )
    parser.add_argument(
        "--save-every",
        type=int,
        default=1,
        help="episodes between rolling checkpoints (with --checkpoint-dir)",
    )
    parser.add_argument(
        "--keep-last",
        type=int,
        default=3,
        help="rolling checkpoints retained (with --checkpoint-dir)",
    )
    parser.add_argument(
        "--quorum-fraction",
        type=float,
        default=None,
        help="fraction of employees whose gradients suffice per round "
        "(default 1.0 = strict barrier)",
    )
    parser.add_argument(
        "--employee-timeout",
        type=float,
        default=None,
        help="per-task straggler timeout in seconds (0 disables)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retries per crashed/timed-out employee task",
    )
    parser.add_argument(
        "--quarantine-max-norm",
        type=float,
        default=None,
        help="quarantine gradient contributions above this L2 norm (0 disables)",
    )
    parser.add_argument(
        "--dashboard",
        type=int,
        nargs="?",
        const=1,
        default=None,
        metavar="N",
        help="render the ASCII live dashboard every N episodes (default 1)",
    )
    parser.set_defaults(func=cmd_train)


def _configure_worker(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method", choices=("cews", "dppo", "edics"), default="cews"
    )
    parser.add_argument("--scale", choices=("smoke", "short", "paper"), default="smoke")
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="must match the chief's --seed (scenario + agent derivation)",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="the chief's socket-transport listen address",
    )
    parser.add_argument(
        "--token",
        required=True,
        help="the pool token printed by the chief at startup",
    )
    parser.add_argument(
        "--index",
        type=int,
        required=True,
        help="employee index to serve (one of the chief's --remote-workers slots)",
    )
    parser.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        help="seconds to keep redialing an unreachable chief",
    )
    parser.set_defaults(func=cmd_worker)


def _configure_evaluate(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--checkpoint", default=None, help="load .npz from here")
    parser.add_argument("--episodes", type=int, default=5)
    parser.set_defaults(func=cmd_evaluate)


def _configure_report(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(func=cmd_report)


def _configure_lint(parser: argparse.ArgumentParser) -> None:
    from .analysis.cli import build_parser as build_lint_parser

    build_lint_parser(parser)
    parser.set_defaults(func=cmd_lint)


def _configure_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "action",
        choices=("summary", "cat"),
        help="'summary' aggregates per-span/per-employee timings; "
        "'cat' prints the validated records one JSON object per line",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default="runs/trace",
        help="trace file or --trace-dir directory (default: runs/trace)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    parser.set_defaults(func=cmd_trace)


def _configure_obs(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="obs_action", required=True)
    serve = sub.add_parser(
        "serve",
        help="serve /metrics, /metrics.json, /trace/summary and /healthz "
        "until Ctrl-C",
    )
    serve.add_argument(
        "--port", type=int, default=0, help="listen port (default 0 = OS-assigned)"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    dump = sub.add_parser(
        "dump", help="write a flight-recorder bundle for this process now"
    )
    dump.add_argument(
        "--flight-dir",
        default="runs/flight",
        help="bundle directory when no recorder is armed (default runs/flight)",
    )
    dump.add_argument(
        "--reason", default="manual", help="reason recorded in the bundle"
    )
    validate = sub.add_parser(
        "validate", help="validate flight-recorder bundle files"
    )
    validate.add_argument("paths", nargs="+", help="bundle JSON files to check")
    parser.set_defaults(func=cmd_obs)


def _configure_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint",
        required=True,
        help="checkpoint .npz, or a CheckpointManager directory (serves latest)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7355, help="framed-TCP port (0 = auto)")
    parser.add_argument("--http-port", type=int, default=7356, help="JSON/HTTP port (0 = auto)")
    parser.add_argument("--no-http", action="store_true", help="disable the HTTP front door")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="inference worker processes (0 = inline, no forks)",
    )
    parser.add_argument("--max-batch", type=int, default=8, help="micro-batch row bound")
    parser.add_argument(
        "--max-delay-ms", type=float, default=2.0,
        help="longest a request waits to be coalesced",
    )
    parser.add_argument("--cache-size", type=int, default=1024, help="action-cache entries (0 disables)")
    parser.add_argument("--max-pending", type=int, default=64, help="admission bound before 503 load-shed")
    parser.set_defaults(func=cmd_serve)


def _configure_profile(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method", choices=("cews", "dppo", "edics"), default="cews"
    )
    parser.add_argument("--scale", choices=("smoke", "short", "paper"), default="smoke")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--episodes", type=int, default=1, help="episodes to run under the profiler"
    )
    parser.add_argument(
        "--limit", type=int, default=15, help="rows in the hot-spot table"
    )
    parser.set_defaults(func=cmd_profile)


#: (name, one-line description, configure) — every subcommand registers
#: here so ``--help`` enumerates them all consistently.
COMMANDS = (
    ("train", "train one method with the chief-employee loop", _configure_train),
    ("worker", "serve one employee over TCP for a socket-backend chief", _configure_worker),
    ("evaluate", "evaluate a trained checkpoint (mean kappa/xi/rho)", _configure_evaluate),
    ("report", "stitch results/*.txt into results/REPORT.md", _configure_report),
    ("lint", "run the reprolint static-analysis gate", _configure_lint),
    ("trace", "summarize or dump a JSONL trace file", _configure_trace),
    ("obs", "serve the fleet HTTP endpoint / manage flight bundles", _configure_obs),
    ("serve", "serve a trained checkpoint as a batched inference service", _configure_serve),
    ("profile", "run a short training under the per-op autograd profiler", _configure_profile),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description="DRL-CEWS reproduction CLI"
    )
    subparsers = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{" + ",".join(name for name, __, __ in COMMANDS) + "}",
    )
    for name, description, configure in COMMANDS:
        configure(subparsers.add_parser(name, help=description, description=description))

    # argparse raises SystemExit(2) for unknown subcommands; `parse_args`
    # keeps that contract (usage + exit 2, never a traceback).
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
