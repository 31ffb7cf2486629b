"""Process-side plumbing: the program's environment, its process tree's
CPU time and memory (from ``/proc``), and the leak checks run after every
workload."""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Set

__all__ = [
    "BENCH_DIR",
    "InvalidRun",
    "Placement",
    "SRC_DIR",
    "THREAD_PINS",
    "adopt_orphans",
    "cpu_seconds",
    "machine",
    "peak_rss_mib",
    "pin_threads",
    "program_env",
    "reap_children",
    "shm_segments",
    "signal_on_parent_death",
    "stop_process",
    "tree_pids",
]

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: Unpinned, the 2-thread OpenBLAS burns 390-440 CPU-ms per 200 ms episode
#: for no wall gain and adds spin noise.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

_TICK = os.sysconf("SC_CLK_TCK")
_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


class InvalidRun(RuntimeError):
    """The measurement cannot be trusted (timeout, generator too busy)."""


def pin_threads() -> None:
    """Pin this process's BLAS pools; call before numpy is imported."""
    os.environ.update(THREAD_PINS)


def program_env() -> Dict[str, str]:
    """Environment of every process the benchmark launches."""
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def machine() -> Dict[str, object]:
    return {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "PYTHONHASHSEED": "0",
        **THREAD_PINS,
    }


def _stat_fields(pid: int) -> List[str]:
    # comm may hold spaces and parentheses: split after the last ')'.
    text = Path(f"/proc/{pid}/stat").read_text()
    return text[text.rindex(")") + 2 :].split()


def tree_pids(root: int) -> List[int]:
    """``root`` and every live descendant (one scan of ``/proc``)."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                parent_of[int(entry)] = int(_stat_fields(int(entry))[1])
            except (OSError, ValueError):
                continue  # exited between listdir and read
    tree = [root]
    for pid in tree:
        tree.extend(p for p, parent in parent_of.items() if parent == pid)
    return tree


def _pin_process(pid: int, cpu: int) -> None:
    for task in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(task), {cpu})


class Placement:
    """Where the program and the benchmark run, for the length of a ``with``.

    Left to the scheduler, the few busy processes of a workload land on the
    box's two CPUs differently from run to run (wake-affine pulls a server
    onto its client's CPU, or not), and that alone moved ``p90_ms`` by 32%
    and ``cpu_ms_per_op`` by 12% between identical runs.  So the layout is
    fixed: the program is born on the first CPU (entering the ``with`` puts
    the benchmark process, whose affinity the program inherits, there);
    once its processes exist, :meth:`spread` leaves the root on the first
    CPU and sends its descendants round-robin from the last CPU down, and
    moves the benchmark process (clock, load generator) to the last CPU
    the program occupies — unless it is itself the root, as in the traced
    pass.  The control kernel samples exactly the CPUs the program
    occupies; with a single-process program that is the CPU the benchmark
    process already sits on, so sampling needs no migration (migrating to
    sample widened ``ops_per_s`` on ``train_serial`` from 5% to 8% in an
    interleaved A/B).
    """

    def __init__(self, control) -> None:
        self.control = control
        self.allowed = os.sched_getaffinity(0)
        self.cpus = sorted(self.allowed)

    def __enter__(self) -> "Placement":
        os.sched_setaffinity(0, {self.cpus[0]})
        self.control.cpus = [self.cpus[0]]
        return self

    def __exit__(self, *exc) -> None:
        os.sched_setaffinity(0, self.allowed)
        self.control.cpus = self.cpus

    def spread(self, root: int) -> List[int]:
        """Call once the program's processes exist; returns the tree."""
        pids = tree_pids(root)
        used = {self.cpus[0]}
        _pin_process(root, self.cpus[0])
        for k, pid in enumerate(pids[1:]):
            cpu = self.cpus[-1 - k % len(self.cpus)]
            _pin_process(pid, cpu)
            used.add(cpu)
        if root != os.getpid():
            os.sched_setaffinity(0, {max(used)})
        self.control.cpus = sorted(used)
        return pids


def cpu_seconds(pids: Iterable[int]) -> float:
    """utime + stime summed over ``pids`` (clock-tick resolution)."""
    ticks = 0
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks / _TICK


def peak_rss_mib(pids: Iterable[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``."""
    total_kib = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


def _alive(pid: int) -> bool:
    try:
        return _stat_fields(pid)[0] != "Z"
    except OSError:
        return False


def shm_segments() -> Set[str]:
    """``repro-shm-*`` segments present in ``/dev/shm`` right now; whatever
    is there after a workload and was not before it, the workload leaked."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro-shm-")}
    except OSError:
        return set()


def adopt_orphans() -> None:
    """Make this process the reaper of every descendant its own parent
    leaves behind (``PR_SET_CHILD_SUBREAPER``).

    A program that uses ``multiprocessing.shared_memory`` owns a
    ``resource_tracker`` child that ends only when it reads EOF on the
    pipe from its parent, so it outlives the program by a few
    milliseconds, an orphan nobody waits for.  Adopted, it is waited for
    like any other child (:func:`stop_process`, :func:`reap_children`) and
    nothing the benchmark started can outlive the benchmark."""
    _LIBC.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def signal_on_parent_death(signum: int):
    """A ``preexec_fn``: the program gets ``signum`` should the benchmark
    die without unwinding (SIGKILL), so even then it is not left serving."""
    return lambda: _LIBC.prctl(_PR_SET_PDEATHSIG, signum, 0, 0, 0)


def _children() -> List[int]:
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if int(_stat_fields(int(entry))[1]) == me:
                    found.append(int(entry))
            except (OSError, ValueError):
                continue
    return found


def _wait_for(pid: int) -> None:
    """Collect ``pid``'s exit status if it is a (possibly adopted) child."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass


def reap_children(grace: float = 2.0) -> List[int]:
    """The last thing the benchmark does, on every path out: end and wait
    for every child it still has, born or adopted.  This process's own
    resource tracker is stopped the way it stops by itself (its pipe is
    closed).  Returns the pids that were still running after ``grace``
    seconds and had to be killed — strays a workload's leak check missed."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace
    running = [p for p in _children() if _alive(p)]
    while running and time.monotonic() < deadline:
        time.sleep(0.02)
        running = [p for p in running if _alive(p)]
    for pid in running:
        try:
            os.kill(pid, 9)
        except OSError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return running


def stop_process(process: subprocess.Popen, pids: List[int], timeout: float = 10.0) -> List[int]:
    """Wait for ``process`` to end (kill it if it will not) and return the
    members of ``pids`` that outlived it — orphans, which are then killed.
    Descendants this process adopted (:func:`adopt_orphans`) are waited
    for, and what a killed process left in ``/dev/shm`` is removed."""
    killed = []
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        killed.append(process.pid)
    deadline = time.monotonic() + 2.0
    survivors = [p for p in pids if p != process.pid and _alive(p)]
    while survivors and time.monotonic() < deadline:
        time.sleep(0.02)
        survivors = [p for p in survivors if _alive(p)]
    for pid in survivors:
        try:
            os.kill(pid, 9)
        except OSError:
            pass
    for pid in pids:
        if pid != process.pid:
            _wait_for(pid)
    dead = {str(pid) for pid in killed + survivors}
    for name in shm_segments():  # repro-shm-<creator pid>-...
        if name.split("-")[2] in dead:
            os.unlink(f"/dev/shm/{name}")
    return survivors
