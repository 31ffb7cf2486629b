"""Runtime lock-order sanitizer (``lockwatch``): SAN004 / SAN005.

Lock-order inversions and long holds are caught here, at run time.
When enabled, ``threading.Lock`` / ``threading.RLock`` constructions return
*watched* proxies (``threading.Condition()`` is covered transitively —
it allocates its RLock through the patched factory).  Each proxy
maintains, through the shared :class:`LockWatch`:

* a **per-thread held-set** with acquisition timestamps and stacks;
* a **global happens-before graph** over lock *objects*: acquiring B
  while holding A records the edge A→B; an acquisition that would make
  the graph cyclic is a **SAN004 order-inversion** — two threads that
  interleave badly can deadlock — reported with the acquisition stacks
  of both edge directions;
* **SAN005 long-hold-under-contention**: a hold that exceeded
  ``hold_threshold`` seconds *while another thread was waiting* for the
  same lock (the pattern that starves heartbeat/pump paths).

Contract (same as :class:`~repro.analysis.sanitizer.Sanitizer` and the
profiler): patch-on-enable, zero overhead when off.  Locks created while
the watcher is off are ordinary unwrapped locks; proxies created while
it was on degrade to a single attribute check after ``disable()``.  The
bookkeeping only reads clocks and stacks — it never touches RNGs or
numeric state — so a watched run is bitwise-identical to an unwatched
one.

Fork: a forked child inherits the patched factories and any proxies, but
its bookkeeping must not: call :func:`reset_after_fork` from the worker
entrypoint (``_employee_worker_main`` does) to clear inherited held-sets
and edges.

Toggle: ``python -m repro train --lockwatch``.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "LockWatch",
    "LockWatchError",
    "LockWatchFinding",
    "active",
    "disable",
    "enable",
    "is_enabled",
    "reset_after_fork",
]

_STACK_LIMIT = 12

# This module's file, for trimming our own frames out of provenance.
_SELF_FILE = os.path.abspath(__file__)


@dataclass(frozen=True)
class LockWatchFinding:
    """One runtime lock-discipline violation with stack provenance."""

    code: str  # SAN004 (order-inversion) | SAN005 (long-hold)
    kind: str  # "order-inversion" | "long-hold-under-contention"
    message: str
    stacks: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "kind": self.kind,
            "message": self.message,
            "stacks": list(self.stacks),
        }

    def render(self) -> str:
        body = f"{self.code} [{self.kind}] {self.message}"
        if self.stacks:
            body += "\n" + "\n---\n".join(self.stacks)
        return body


class LockWatchError(RuntimeError):
    """Raised (in ``mode='raise'``) at the first lockwatch finding."""

    def __init__(self, finding: LockWatchFinding):
        super().__init__(finding.render())
        self.finding = finding


def _capture_stack() -> str:
    frames = traceback.extract_stack()
    trimmed = [
        frame
        for frame in frames
        if os.path.abspath(frame.filename) != _SELF_FILE
    ][-_STACK_LIMIT:]
    return "".join(traceback.format_list(trimmed)).rstrip()


@dataclass
class _Hold:
    """One lock currently held by one thread."""

    uid: int
    label: str
    acquired_at: float
    stack: str
    depth: int = 1  # RLock reentrance
    contended: bool = False  # another thread waited during this hold


class _WatchedLock:
    """Proxy around a real Lock/RLock that reports to the LockWatch.

    Implements the full ``Condition``-compatible surface
    (``_is_owned`` / ``_acquire_restore`` / ``_release_save``) so a
    ``threading.Condition`` built on a watched RLock keeps working —
    including held-set bookkeeping across ``wait()``'s release/reacquire.
    """

    def __init__(self, inner, kind: str, watch: "LockWatch", uid: int):
        self._inner = inner
        self._kind = kind  # "Lock" | "RLock"
        self._watch = watch
        self._uid = uid

    # -- core protocol --------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1):
        watch = self._watch
        if not watch.watching:
            return self._inner.acquire(blocking, timeout)
        if not blocking:
            # Try-locks never wait, so they must not mark contention
            # (SAN005 is about holds that starve *blocked* threads).
            got = self._inner.acquire(blocking, timeout)
        else:
            got = self._inner.acquire(False)
            if not got:
                # We are genuinely about to block: only now does the
                # current holder count as contended.
                watch._before_acquire(self)
                got = self._inner.acquire(True, timeout)
        if got:
            try:
                watch._after_acquire(self)
            except LockWatchError:
                # Roll the acquisition back so raise-mode callers (and
                # ``with`` blocks, whose __exit__ never runs when
                # __enter__ raises) do not strand the lock.
                self._inner.release()
                raise
        return got

    def release(self):
        watch = self._watch
        if watch.watching:
            watch._before_release(self)
        return self._inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False

    def locked(self):
        return self._inner.locked()

    # -- Condition compatibility ---------------------------------------
    def _is_owned(self):
        if hasattr(self._inner, "_is_owned"):
            return self._inner._is_owned()
        # Plain Lock fallback (mirrors threading.Condition's own).
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    def _release_save(self):
        watch = self._watch
        if watch.watching:
            watch._release_all_depths(self)
        if hasattr(self._inner, "_release_save"):
            return self._inner._release_save()
        self._inner.release()
        return None

    def _acquire_restore(self, state):
        if hasattr(self._inner, "_acquire_restore"):
            self._inner._acquire_restore(state)
        else:
            self._inner.acquire()
        watch = self._watch
        if watch.watching:
            # RLock._release_save returns (count, owner); restore the
            # full reentrant depth or releases desynchronize the held-set.
            if isinstance(state, tuple) and state and isinstance(state[0], int):
                depth = state[0]
            elif isinstance(state, int):
                depth = state
            else:
                depth = 1
            watch._after_acquire(self, depth=depth)

    def _at_fork_reinit(self):
        # threading._after_fork re-initializes every lock embedded in a
        # surviving Thread/Event/Condition; without this the child dies
        # with "Exception ignored in: _after_fork" and inherited locks
        # stay in their forked (possibly held) state.
        self._inner._at_fork_reinit()
        # The child is single-threaded at this point, so purging the
        # parent's hold records needs no _raw guard (which may itself
        # have been held at fork time).
        for holds in self._watch._held.values():
            for i in range(len(holds) - 1, -1, -1):
                if holds[i].uid == self._uid:
                    del holds[i]

    def __repr__(self):
        return f"<watched {self._kind} uid={self._uid} {self._inner!r}>"


class LockWatch:
    """Install/remove the lock instrumentation (also a context manager).

    Parameters
    ----------
    mode:
        ``"raise"`` aborts at the first finding with
        :class:`LockWatchError`; ``"record"`` (default) accumulates into
        :attr:`findings` and keeps running.
    hold_threshold:
        Seconds a *contended* hold may last before SAN005 fires.
    capture_stacks:
        Stack provenance on every acquisition (the useful default; turn
        off to cheapen long soak runs).
    """

    def __init__(
        self,
        mode: str = "record",
        hold_threshold: float = 1.0,
        capture_stacks: bool = True,
    ):
        if mode not in ("raise", "record"):
            raise ValueError(f"mode must be 'raise' or 'record', got {mode!r}")
        self.mode = mode
        self.hold_threshold = float(hold_threshold)
        self.capture_stacks = capture_stacks
        self.findings: List[LockWatchFinding] = []
        self.watching = False
        self._orig_lock = None
        self._orig_rlock = None
        self._uid_source = 0
        # All shared state below is guarded by a RAW (never-watched)
        # lock so the bookkeeping cannot recurse into itself.
        self._raw = None
        self._held: Dict[int, List[_Hold]] = {}  # thread id -> stack
        # Happens-before edges over lock uids, with the stacks that
        # created them: (outer, inner) -> (outer stack, inner stack).
        self._edges: Dict[Tuple[int, int], Tuple[str, str]] = {}
        self._adjacency: Dict[int, Set[int]] = {}
        self._labels: Dict[int, str] = {}
        self.stats = {"acquires": 0, "releases": 0, "edges": 0}

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------
    def enable(self) -> "LockWatch":
        global _ACTIVE
        if self.watching:
            return self
        if _ACTIVE is not None:
            raise RuntimeError("another LockWatch is already enabled")
        self._orig_lock = threading.Lock
        self._orig_rlock = threading.RLock
        self._raw = self._orig_lock()
        watch = self

        def lock_factory():
            return watch._wrap(watch._orig_lock(), "Lock")

        def rlock_factory():
            return watch._wrap(watch._orig_rlock(), "RLock")

        threading.Lock = lock_factory
        threading.RLock = rlock_factory
        self.watching = True
        _ACTIVE = self
        return self

    def disable(self) -> "LockWatch":
        global _ACTIVE
        if not self.watching:
            return self
        threading.Lock = self._orig_lock
        threading.RLock = self._orig_rlock
        self.watching = False
        if _ACTIVE is self:
            _ACTIVE = None
        return self

    def __enter__(self) -> "LockWatch":
        return self.enable()

    def __exit__(self, *exc) -> None:
        self.disable()

    def _wrap(self, inner, kind: str) -> _WatchedLock:
        with self._raw:
            self._uid_source += 1
            uid = self._uid_source
        proxy = _WatchedLock(inner, kind, self, uid)
        self._labels[uid] = f"{kind}#{uid}"
        return proxy

    def reset_after_fork(self) -> None:
        """Drop bookkeeping inherited through ``fork``.

        The child keeps the patched factories and any proxy objects, but
        held-sets and the order graph describe the parent's threads —
        none of which exist here.  The raw guard lock is re-allocated in
        case the parent forked while a thread held it.
        """
        self._raw = self._orig_lock() if self._orig_lock else threading.Lock()
        self._held = {}
        self._edges = {}
        self._adjacency = {}
        self.findings = []

    # ------------------------------------------------------------------
    # Finding emission
    # ------------------------------------------------------------------
    def _emit(self, finding: LockWatchFinding) -> None:
        self.findings.append(finding)
        if self.mode == "raise":
            raise LockWatchError(finding)

    # ------------------------------------------------------------------
    # Acquire / release hooks (called from the proxies)
    # ------------------------------------------------------------------
    def _before_acquire(self, proxy: _WatchedLock) -> None:
        """Called only when the acquiring thread is about to block."""
        tid = threading.get_ident()
        with self._raw:
            # Contention: someone else currently holds this lock.
            for other_tid, holds in self._held.items():
                if other_tid == tid:
                    continue
                for hold in holds:
                    if hold.uid == proxy._uid:
                        hold.contended = True

    def _after_acquire(self, proxy: _WatchedLock, depth: int = 1) -> None:
        tid = threading.get_ident()
        stack = _capture_stack() if self.capture_stacks else ""
        finding: Optional[LockWatchFinding] = None
        with self._raw:
            self.stats["acquires"] += 1
            holds = self._held.setdefault(tid, [])
            if proxy._kind == "RLock":
                for hold in holds:
                    if hold.uid == proxy._uid:
                        hold.depth += depth
                        return
            new_hold = _Hold(
                uid=proxy._uid,
                label=self._labels.get(proxy._uid, str(proxy._uid)),
                acquired_at=time.monotonic(),
                stack=stack,
                depth=depth,
            )
            for outer in holds:
                if outer.uid == proxy._uid:
                    continue  # reentrant pair already filtered above
                finding = self._record_edge(outer, new_hold) or finding
            holds.append(new_hold)
        if finding is not None:
            if self.mode == "raise":
                # The caller rolls the inner acquisition back; drop the
                # hold record so the held-set matches.
                with self._raw:
                    holds = self._held.get(tid, [])
                    if holds and holds[-1].uid == proxy._uid:
                        holds.pop()
            self._emit(finding)

    def _record_edge(
        self, outer: _Hold, inner: _Hold
    ) -> Optional[LockWatchFinding]:
        """Add outer→inner; a path inner→…→outer means an inversion."""
        key = (outer.uid, inner.uid)
        if key in self._edges:
            return None
        inversion = self._path_stacks(inner.uid, outer.uid)
        self._edges[key] = (outer.stack, inner.stack)
        self._adjacency.setdefault(outer.uid, set()).add(inner.uid)
        self._adjacency.setdefault(inner.uid, set())
        self.stats["edges"] += 1
        if inversion is None:
            return None
        forward = (
            f"thread {threading.get_ident()} acquired "
            f"{self._labels[inner.uid]} while holding {self._labels[outer.uid]}:"
            f"\n{outer.stack}\n--- then ---\n{inner.stack}"
        )
        return LockWatchFinding(
            code="SAN004",
            kind="order-inversion",
            message=(
                f"lock-order inversion: {self._labels[outer.uid]} -> "
                f"{self._labels[inner.uid]} contradicts the established "
                f"order {self._labels[inner.uid]} -> {self._labels[outer.uid]}"
            ),
            stacks=(forward,) + tuple(inversion),
        )

    def _path_stacks(self, src: int, dst: int) -> Optional[List[str]]:
        """Stacks along an existing src→…→dst path (None if unreachable)."""
        parents: Dict[int, int] = {src: src}
        queue = [src]
        while queue:
            node = queue.pop(0)
            if node == dst:
                break
            for nxt in self._adjacency.get(node, ()):
                if nxt not in parents:
                    parents[nxt] = node
                    queue.append(nxt)
        if dst not in parents:
            return None
        # Reconstruct dst <- ... <- src and render each edge's stacks.
        chain = [dst]
        while chain[-1] != src:
            chain.append(parents[chain[-1]])
        chain.reverse()
        stacks: List[str] = []
        for outer_uid, inner_uid in zip(chain, chain[1:]):
            outer_stack, inner_stack = self._edges[(outer_uid, inner_uid)]
            stacks.append(
                f"established edge {self._labels[outer_uid]} -> "
                f"{self._labels[inner_uid]}:\n{outer_stack}\n--- then ---\n"
                f"{inner_stack}"
            )
        return stacks

    def _before_release(self, proxy: _WatchedLock) -> None:
        tid = threading.get_ident()
        finding: Optional[LockWatchFinding] = None
        with self._raw:
            self.stats["releases"] += 1
            holds = self._held.get(tid, [])
            found = False
            for i in range(len(holds) - 1, -1, -1):
                hold = holds[i]
                if hold.uid != proxy._uid:
                    continue
                found = True
                if proxy._kind == "RLock" and hold.depth > 1:
                    hold.depth -= 1
                    return
                held_for = time.monotonic() - hold.acquired_at
                if hold.contended and held_for > self.hold_threshold:
                    finding = LockWatchFinding(
                        code="SAN005",
                        kind="long-hold-under-contention",
                        message=(
                            f"{hold.label} held {held_for:.3f}s while other "
                            f"threads were waiting (threshold "
                            f"{self.hold_threshold:.3f}s) — heartbeat/pump "
                            "paths can miss their deadline"
                        ),
                        stacks=(hold.stack,) if hold.stack else (),
                    )
                del holds[i]
                break
            if not found:
                # Cross-thread release (the plain-Lock signaling idiom:
                # acquired in one thread, released in another).  Drop the
                # acquirer's record — leaving it would attribute every
                # later acquisition by that thread to a phantom hold,
                # fabricating order edges — without SAN005 evaluation:
                # a handoff's duration is not a hold.
                for other_holds in self._held.values():
                    for i in range(len(other_holds) - 1, -1, -1):
                        if other_holds[i].uid == proxy._uid:
                            del other_holds[i]
                            found = True
                            break
                    if found:
                        break
        if finding is not None:
            self._emit(finding)

    def _release_all_depths(self, proxy: _WatchedLock) -> None:
        """Condition.wait: the lock fully leaves the held-set."""
        tid = threading.get_ident()
        with self._raw:
            holds = self._held.get(tid, [])
            for i in range(len(holds) - 1, -1, -1):
                if holds[i].uid == proxy._uid:
                    del holds[i]
                    break

    # ------------------------------------------------------------------
    def summary(self) -> str:
        return (
            f"lockwatch: {self.stats['acquires']} acquisitions across "
            f"{self.stats['edges']} order edges, "
            f"{len(self.findings)} finding(s)"
        )


# ----------------------------------------------------------------------
# Module-level singleton helpers
# ----------------------------------------------------------------------
_ACTIVE: Optional[LockWatch] = None


def active() -> Optional[LockWatch]:
    """The currently enabled lockwatch, if any."""
    return _ACTIVE


def is_enabled() -> bool:
    return _ACTIVE is not None


def enable(**config) -> LockWatch:
    """Enable a fresh module-level lockwatch (idempotent per process)."""
    if _ACTIVE is not None:
        return _ACTIVE
    return LockWatch(**config).enable()


def disable() -> Optional[LockWatch]:
    """Disable the module-level lockwatch; returns it for inspection."""
    watch = _ACTIVE
    if watch is not None:
        watch.disable()
    return watch


def reset_after_fork() -> None:  # reprolint's sanctioned fork re-init
    """Clear bookkeeping inherited through ``fork`` (worker-side)."""
    if _ACTIVE is not None:
        _ACTIVE.reset_after_fork()
