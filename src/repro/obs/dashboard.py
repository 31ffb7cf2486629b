"""ASCII live training dashboard (``--dashboard`` on ``repro train``).

Renders, every ``every`` episodes, a terminal snapshot built from the
per-episode logs the trainer hands to its ``on_episode_end`` callback
plus the process-local metrics registry:

* κ / ρ learning curves (:func:`repro.utils.ascii_plot.ascii_line_chart`);
* a one-line extrinsic-reward :func:`~repro.utils.ascii_plot.sparkline`;
* the latest episode's scalars (reward, intrinsic, κ, ξ, ρ, losses);
* per-phase wall time drawn from the ``repro_phase_seconds`` histogram
  the instrumented trainer keeps hot in the registry;
* a fleet table (socket backend only) from the ``repro_fleet_connected``
  / ``repro_fleet_generation`` / ``repro_transport_heartbeat_age_seconds``
  gauges the :class:`~repro.distributed.transport.SocketTransport`
  maintains per employee, plus the metrics federation's
  ``repro_employee_lag_seconds`` straggler gauge (last explore latency
  minus the fleet median).

The dashboard only *reads* — episode logs and registry snapshots — and
writes to its stream; it never touches the model, the env or the RNGs,
so training trajectories are unchanged whether it is on or off.  Output
goes through ``stream.write``, never ``print``, so a caller can redirect
it.
"""

from __future__ import annotations

import re
import sys
from typing import IO, List, Optional

from ..utils.ascii_plot import ascii_line_chart, sparkline
from .metrics import MetricsRegistry, get_registry

__all__ = ["Dashboard"]

#: Extracts the employee index from a labelled series name like
#: ``repro_fleet_connected{employee="2"}``.
_EMPLOYEE_LABEL = re.compile(r'employee="([^"]*)"')


class Dashboard:
    """Periodic ASCII snapshot of a running training loop."""

    def __init__(
        self,
        every: int = 1,
        width: int = 60,
        height: int = 10,
        stream: Optional[IO[str]] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = int(every)
        self.width = int(width)
        self.height = int(height)
        self._stream = stream
        self._registry = registry
        self._logs: List[object] = []

    # ------------------------------------------------------------------
    @property
    def stream(self) -> IO[str]:
        return self._stream if self._stream is not None else sys.stdout

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    # ------------------------------------------------------------------
    def on_episode_end(self, log) -> None:
        """Trainer callback: record the log, render every ``every`` eps."""
        self._logs.append(log)
        if len(self._logs) % self.every == 0:
            self.stream.write(self.render() + "\n")
            flush = getattr(self.stream, "flush", None)
            if flush is not None:
                flush()

    # ------------------------------------------------------------------
    def _curve(self, key: str) -> List[float]:
        return [float(getattr(log, key)) for log in self._logs]

    def _phase_lines(self) -> List[str]:
        histogram = self.registry.get("repro_phase_seconds")
        if histogram is None:
            return []
        snapshot = histogram.snapshot()
        series = snapshot.get("series", {})
        if not series:
            return []
        lines = ["phase wall time:"]
        for name in sorted(series):
            state = series[name]
            count = int(state["count"])
            total = float(state["sum"])
            mean = total / count if count else 0.0
            lines.append(
                f"  {name:<44s} {count:>5d} call(s)  "
                f"total {total:8.3f}s  mean {mean:8.4f}s"
            )
        return lines

    def _gauge_by_employee(self, name: str) -> dict:
        """``employee label -> value`` for one transport gauge."""
        gauge = self.registry.get(name)
        if gauge is None:
            return {}
        series = gauge.snapshot().get("series", {})
        out = {}
        for labelled, value in series.items():
            match = _EMPLOYEE_LABEL.search(labelled)
            if match is not None:
                out[match.group(1)] = value
        return out

    def _fleet_lines(self) -> List[str]:
        connected = self._gauge_by_employee("repro_fleet_connected")
        if not connected:
            return []
        generation = self._gauge_by_employee("repro_fleet_generation")
        heartbeat = self._gauge_by_employee(
            "repro_transport_heartbeat_age_seconds"
        )
        lag = self._gauge_by_employee("repro_employee_lag_seconds")
        lines = ["fleet:"]
        for name in sorted(connected, key=lambda k: (len(k), k)):
            up = float(connected[name]) >= 1.0
            gen = generation.get(name)
            age = heartbeat.get(name)
            gen_text = f"gen {int(gen):>3d}" if gen is not None else "gen   ?"
            age_text = f"hb {float(age):6.2f}s ago" if age is not None else "hb      —"
            # Federation straggler gauge: last explore latency minus the
            # fleet median (positive = slower than the median employee).
            delta = lag.get(name)
            lag_text = f"lag {float(delta):+7.3f}s" if delta is not None else "lag       —"
            lines.append(
                f"  employee {name:<4s} {'up  ' if up else 'DOWN'}  "
                f"{gen_text}  {age_text}  {lag_text}"
            )
        return lines

    def render(self) -> str:
        """The full dashboard snapshot as one string."""
        if not self._logs:
            return "dashboard: no episodes yet"
        last = self._logs[-1]
        parts: List[str] = []
        episode = int(getattr(last, "episode", len(self._logs) - 1))
        parts.append(
            f"=== repro dashboard · episode {episode} "
            f"({len(self._logs)} logged) ==="
        )
        parts.append(
            "reward {reward:+.3f}  intrinsic {intr:.4f}  kappa {kappa:.3f}  "
            "xi {xi:.3f}  rho {rho:.4f}".format(
                reward=float(last.extrinsic_reward),
                intr=float(last.intrinsic_reward),
                kappa=float(last.kappa),
                xi=float(last.xi),
                rho=float(last.rho),
            )
        )
        parts.append(
            "policy loss {pl:+.4f}  value loss {vl:.4f}  entropy {ent:.4f}".format(
                pl=float(last.policy_loss),
                vl=float(last.value_loss),
                ent=float(last.entropy),
            )
        )
        spark = sparkline(self._curve("extrinsic_reward"), width=self.width)
        if spark:
            parts.append(f"reward  {spark}")
        if len(self._logs) >= 2:
            parts.append(
                ascii_line_chart(
                    {"kappa": self._curve("kappa"), "rho": self._curve("rho")},
                    width=self.width,
                    height=self.height,
                    title="collection ratio / energy efficiency",
                )
            )
        parts.extend(self._phase_lines())
        parts.extend(self._fleet_lines())
        return "\n".join(parts)
