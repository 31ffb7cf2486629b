#!/usr/bin/env python3
"""The repo's one benchmark.  See README.md beside this file.

    python bench/run.py                         # all four workloads, end to end
    python bench/run.py --workload serve_unique --seed 3 --seconds 25
    python bench/run.py --workload train_serial --trace 1   # per-layer ledger
    python bench/run.py --repeat 5              # repeatability table
    python bench/run.py --selftest              # normalisation self-test
    python bench/run.py --calibrate             # print a control_ref_ms for this box

Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
for the last workload run.  Exit code is non-zero when any output check
failed or the measurement was invalid.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from proc import (  # noqa: E402
    SRC_DIR,
    InvalidRun,
    adopt_orphans,
    machine,
    pin_threads,
    reap_children,
)

pin_threads()  # before numpy loads its BLAS

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
CALIBRATION = json.loads((BENCH_DIR / "calibration.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
OUT_DIR = BENCH_DIR / "out"
SETUPS = 5


def _emit(title: str, values: dict, units: dict) -> None:
    print(f"  {title}")
    for name, value in values.items():
        unit = units.get(name, {}).get("unit", "")
        text = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
        print(f"    {name:<40} {text:>14} {unit}")


class Bench:
    """Shared state of one invocation: the control kernel, its reference,
    and inputs already generated for a seed."""

    def __init__(self) -> None:
        from control import ControlKernel

        self.control = ControlKernel()
        self.control.measure_ms(20)  # warm caches and the allocator
        self.control_ref_ms = float(CALIBRATION["control_ref_ms"])
        self._serve_inputs: dict = {}
        self.train_logs: dict = {}

    def serve_inputs(self, name: str, seed: int):
        import serve
        from inputs import make_serve_inputs

        spec = serve.WORKLOADS[name]
        key = (seed, spec["states"])
        if key not in self._serve_inputs:
            self._serve_inputs[key] = make_serve_inputs(
                seed, OUT_DIR, spec["states"], spec["verify_every"]
            )
        return self._serve_inputs[key]

    def end_to_end(self, name: str, seed: int, seconds: float, setups: int) -> dict:
        if name.startswith("train_"):
            from train import run_train

            backend = name.split("_", 1)[1]
            result = run_train(
                backend, seed, seconds, setups, self.control, self.control_ref_ms,
                reference_logs=self.train_logs.get(seed) if backend == "process" else None,
            )
            if backend == "serial":
                self.train_logs[seed] = result["logs"]
            return result
        from serve import run_serve

        return run_serve(
            name, self.serve_inputs(name, seed), seed, seconds, setups,
            self.control, self.control_ref_ms,
        )


def _watchdog(signum, frame):
    raise InvalidRun("watchdog: the workload did not finish in time")


def run_workload(bench: Bench, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print its metrics; return the contract's result."""
    started = time.perf_counter()
    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    # A wedged program must not wedge the benchmark: the alarm unwinds
    # through the ``with`` blocks that own the program's processes.
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(int(max(150, 3 * seconds + 60)))
    try:
        if trace:
            from ledger import traced_pass

            result = traced_pass(bench, name, seed, seconds, OUT_DIR)
            names = PER_LAYER
        else:
            result = bench.end_to_end(name, seed, seconds, SETUPS)
            names = END_TO_END
    finally:
        signal.alarm(0)
    metrics = result["metrics"]
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise SystemExit(f"{name}: metrics missing from the run: {missing}")
    _emit("per-layer" if trace else "end-to-end", {n: metrics[n] for n in names}, names)
    for section in ("harness", "live", "detail"):  # end-to-end passes only
        if section in result:
            _emit(section, result[section], PER_LAYER)
    for note in result.get("notes", []):
        print(f"  note: {note}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"wall={time.perf_counter() - started:.1f}s")
    return {
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            n: {"value": float(metrics[n]), "unit": names[n]["unit"]} for n in names
        },
        "harness": result.get("harness", {}),
    }


def repeat(bench: Bench, workloads, seed: int, seconds: float, times: int) -> int:
    """Run everything ``times`` times back to back; print the spread of
    every workload x end-to-end metric against its bound."""
    from stats import spread

    runs = {w: [] for w in workloads}
    failed = 0
    for k in range(times):
        for name in workloads:
            result = run_workload(bench, name, seed + k, seconds, trace=False)
            failed += result["failed"]
            runs[name].append(result)
    lines = [
        f"K = {times} back-to-back runs, seeds {seed}..{seed + times - 1}, "
        f"{seconds:g} s measured per run.",
        "",
        "| workload | metric | unit | min | median | max | (max-min)/median "
        "| IQR/median | first 2 vs last 2 | bound | ok |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    ok_all = True
    for name in workloads:
        series = {m: [r["metrics"][m]["value"] for r in runs[name]] for m in END_TO_END}
        series["harness.raw_ops_per_s"] = [
            r["harness"]["harness.raw_ops_per_s"] for r in runs[name]
        ]
        for metric, values in series.items():
            s = spread(values)
            # Medians of the first two runs against the last two: drift.
            drift = abs(sum(values[:2]) - sum(values[-2:])) / 2 / s["median"]
            bound = END_TO_END.get(metric, {}).get("bound")
            ok = ""
            if bound is not None:
                ok = "yes" if s["range_share"] <= bound and drift <= bound / 2 else "NO"
            ok_all &= ok != "NO"
            unit = END_TO_END.get(metric, {"unit": "1/s"})["unit"]
            lines.append(
                f"| {name} | {metric} | {unit} | {s['min']:.5g} | {s['median']:.5g} "
                f"| {s['max']:.5g} | {s['range_share']:.3f} | {s['iqr_share']:.3f} "
                f"| {drift:.3f} | {'' if bound is None else bound} | {ok} |"
            )
    print("\n".join(lines))
    (OUT_DIR / "repeatability.md").write_text("\n".join(lines) + "\n")
    (OUT_DIR / "repeatability.json").write_text(json.dumps(runs, indent=1))
    print(f"every spread within its bound: {ok_all}; failed ops: {failed}")
    return 0 if ok_all and failed == 0 else 1


def calibrate(bench: Bench) -> int:
    import numpy as np

    samples = [bench.control.sample_ms() for __ in range(2000)]
    print(json.dumps({"control_ref_ms": round(float(np.percentile(samples, 10)), 4),
                      "p50_ms": float(np.percentile(samples, 50)),
                      "machine": machine()}, indent=1))
    return 0


def _terminated(signum, frame):
    sys.exit(128 + signum)  # unwinds through the ``with`` blocks and main()'s sweep


def main(argv=None) -> int:
    """Whatever happens inside, no process the benchmark started (or a
    program it started left behind) is alive or unwaited-for afterwards."""
    adopt_orphans()
    signal.signal(signal.SIGTERM, _terminated)
    result = None
    try:
        code, result = _main(argv)
    finally:
        strays = reap_children()
    if strays:
        print(f"processes left running by a workload, killed: {strays}", file=sys.stderr)
        return code or 1
    if result is not None:
        print(json.dumps(result))
    return code


def _main(argv):
    """``(exit code, the contract's result line or None)``."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="1 = the separate traced pass (per-layer ledger)")
    parser.add_argument("--repeat", type=int, default=0, metavar="K")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args(argv)

    if args.selftest:
        import runpy

        selftest = BENCH_DIR / "tests" / "test_normalisation.py"
        return runpy.run_path(str(selftest))["run_all"](), None
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC_DIR}/repro is missing", file=sys.stderr)
        return 2, None
    sys.path.insert(1, str(SRC_DIR))
    OUT_DIR.mkdir(exist_ok=True)
    bench = Bench()
    if args.calibrate:
        return calibrate(bench), None
    print(f"machine: {json.dumps(machine())}  control_ref_ms={bench.control_ref_ms}")
    if args.repeat:
        return repeat(bench, args.workload, args.seed, args.seconds, args.repeat), None

    failed = 0
    result = None
    try:
        for name in args.workload:
            result = run_workload(bench, name, args.seed, args.seconds, bool(args.trace))
            failed += result["failed"]
    except InvalidRun as error:
        print(f"invalid run: {error}", file=sys.stderr)
        return 3, None
    result.pop("harness")
    return (1 if failed else 0), result


if __name__ == "__main__":
    sys.exit(main())
