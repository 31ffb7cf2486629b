"""The control kernel: a small fixed piece of work that tracks host speed.

The shared VM this benchmark runs on slows *everything* by 1.0-1.6x for
seconds to minutes at a time.  Timing this fixed kernel right before and
after every measured segment, and dividing the segment's durations by it,
removes most of that (see README.md, "Normalisation").  The mix below
was chosen because it tracked the slowdown of a training episode at run
level: numpy kernels alone over-shoot (1.20-1.25x when episodes were
1.17-1.20x), a pure-Python loop alone under-shoots (1.10x), and a 4 MB
memcpy did not track at all (r ~ 0.1), so it is left out.

The two vCPUs of that VM slow down *independently* (per-CPU control times
measured 50 ms apart correlate at r ~ 0.03 and differ by up to 37% over a
1.6 s window), so a sample only says something about the CPU it ran on.
:meth:`ControlKernel.measure_ms` therefore pins itself to each CPU the
program may run on in turn and averages them.

This module imports nothing from ``repro``: the yardstick must not change
when the program under test does.
"""

from __future__ import annotations

import os
import time

import numpy as np

__all__ = ["ControlKernel"]


class ControlKernel:
    """Fixed work; :meth:`sample_ms` times one pass (~2.6 ms on a quiet box)."""

    def __init__(self) -> None:
        #: CPUs sampled by :meth:`measure_ms`: the ones this process (and
        #: the program it launches, which inherits them) may run on.
        self.cpus = sorted(os.sched_getaffinity(0))
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((48, 48))
        self._b = rng.standard_normal((48, 48))
        self._x = rng.standard_normal((8, 3, 8, 8))
        self._p = rng.standard_normal((40, 64, 9))
        self._w = rng.standard_normal((64, 9, 16))

    def sample_ms(self) -> float:
        a, b, x, p, w = self._a, self._b, self._x, self._p, self._w
        start = time.perf_counter()
        for _ in range(60):
            a @ b
        for _ in range(60):
            np.tanh(x).sum()
        for _ in range(10):
            np.einsum("bpk,pko->bo", p, w)
        total = 0
        for i in range(10_000):
            total += i
        return (time.perf_counter() - start) * 1e3

    def measure_ms(self, samples: int = 3) -> float:
        """Mean of ``samples`` back-to-back passes on each of ``self.cpus``."""
        if len(self.cpus) == 1:
            return sum(self.sample_ms() for _ in range(samples)) / samples
        allowed = os.sched_getaffinity(0)
        total = 0.0
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                total += sum(self.sample_ms() for _ in range(samples))
        finally:
            os.sched_setaffinity(0, allowed)
        return total / (samples * len(self.cpus))
