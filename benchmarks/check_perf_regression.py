#!/usr/bin/env python
"""Compare a fresh pytest-benchmark run against the committed baseline.

Usage (what the CI ``perf`` job runs)::

    pytest benchmarks/test_substrate_micro.py --benchmark-only \
        --benchmark-json=bench.json -q
    python benchmarks/check_perf_regression.py bench.json

A benchmark regresses when its fresh mean exceeds ``threshold`` times the
baseline mean (default 1.5x — generous on purpose: shared CI runners are
noisy, and the point of the gate is catching the order-of-magnitude
regressions that re-introduce per-call index construction or tape
allocation, not 10% jitter).  Benchmarks present on only one side are
reported but never fail the run, so adding a microbenchmark does not
require regenerating the baseline in the same change.

Exit status: 0 when every shared benchmark is within threshold, 1
otherwise.  A fresh run made up *entirely* of new benchmarks (nothing
shared with the baseline) passes — that is what the first run of a new
bench file looks like — but an empty run is still an error.  Pass
``--update`` to fold the fresh means into the baseline file (new
benchmarks are added, existing ``mean_s`` entries are refreshed, extra
per-benchmark fields are preserved); do that only alongside a change
whose slowdown is understood and accepted.  The baseline also records
the pre-PR-4 means so the optimization trajectory stays auditable.

``--obs`` switches to the observability-overhead gate: the positional
argument is then a ``bench_obs_overhead.py --json`` dump and the check
fails when its ``full_over_plain`` ratio exceeds the threshold — i.e.
when the full fleet telemetry stack (tracer + federation + HTTP server
+ flight recorder) costs more than ``threshold``x the uninstrumented
run at smoke scale.

``--minibatch`` switches to the execution-plan gate: the positional
argument is then a ``bench_minibatch_scaling.py --json`` dump and the
check fails when the planned update is not at least
2x faster than the *recorded PR-4 tape mean* in ``BENCH_4.json``,
modulo the same noise ``threshold`` every other gate gets.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_4.json"


def load_baseline(path: Path) -> dict:
    payload = json.loads(path.read_text())
    if "benchmarks" not in payload or not isinstance(payload["benchmarks"], dict):
        raise SystemExit(f"{path}: not a baseline file (missing 'benchmarks' map)")
    return payload["benchmarks"]


def load_current(path: Path) -> dict:
    """Means from a raw ``--benchmark-json`` dump, keyed by test name."""
    payload = json.loads(path.read_text())
    benches = payload.get("benchmarks")
    if not isinstance(benches, list):
        raise SystemExit(f"{path}: not a pytest-benchmark JSON dump")
    return {b["name"]: float(b["stats"]["mean"]) for b in benches}


def update_baseline(path: Path, current: dict) -> None:
    """Fold fresh means into the baseline file (added or refreshed).

    New benchmarks gain a minimal ``{"mean_s": ...}`` entry; existing
    entries keep their extra fields (median, rounds, pre-PR-4 columns)
    and only have ``mean_s`` replaced.
    """
    payload = json.loads(path.read_text())
    benches = payload.setdefault("benchmarks", {})
    for name, mean in sorted(current.items()):
        benches.setdefault(name, {})["mean_s"] = mean
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def check_obs_overhead(path: Path, threshold: float) -> int:
    """Gate the fleet-telemetry overhead measured by bench_obs_overhead.py."""
    payload = json.loads(path.read_text())
    overhead = payload.get("obs_overhead")
    if not isinstance(overhead, dict) or "full_over_plain" not in overhead:
        raise SystemExit(f"{path}: not a bench_obs_overhead.py dump")
    layers = overhead.get("layers", {})
    width = max((len(name) for name in layers), default=4)
    print(f"obs overhead check vs plain (threshold {threshold:g}x)")
    plain = float(layers.get("plain", {}).get("mean_s", 0.0)) or None
    for name, cell in layers.items():
        mean = float(cell["mean_s"])
        ratio = f"  x{mean / plain:5.2f}" if plain else ""
        print(f"  {name:<{width}}  {mean * 1e3:8.1f}ms{ratio}")
    ratio = float(overhead["full_over_plain"])
    if ratio > threshold:
        print(
            f"obs overhead check: full stack is x{ratio:.2f} the plain run, "
            f"over the {threshold:g}x budget — profile the obs hot path "
            "before shipping (span emission, delta collection, fold).",
            file=sys.stderr,
        )
        return 1
    print(f"obs overhead check: full/plain x{ratio:.2f} within {threshold:g}x")
    return 0


#: The taped PPO minibatch update as recorded before the executor landed;
#: the tentpole contract is "planned update >= 2x faster than this".
TAPE_BASELINE_BENCH = "test_ppo_minibatch_loss_and_backward"


def check_minibatch(path: Path, baseline_path: Path, threshold: float) -> int:
    """Gate the execution-plan speedup measured by bench_minibatch_scaling.py."""
    payload = json.loads(path.read_text())
    micro = payload.get("micro")
    if not isinstance(micro, dict) or "plan" not in micro:
        raise SystemExit(f"{path}: not a bench_minibatch_scaling.py dump")
    baseline = load_baseline(baseline_path)
    if TAPE_BASELINE_BENCH not in baseline:
        raise SystemExit(
            f"{baseline_path}: missing {TAPE_BASELINE_BENCH} (pass the "
            "BENCH_4-style baseline that records the pre-executor tape mean)"
        )
    cell = baseline[TAPE_BASELINE_BENCH]
    # pre_pr9_mean_s is the frozen pre-executor tape mean; mean_s keeps
    # moving as the baseline is regenerated, and must not move this goalpost.
    tape_base = float(cell.get("pre_pr9_mean_s", cell["mean_s"]))
    width = max(len(name) for name in micro)
    print(f"minibatch plan check vs {baseline_path.name} (threshold {threshold:g}x)")
    for name, cell in sorted(micro.items()):
        mean = float(cell["mean_s"])
        print(
            f"  {name:<{width}}  {mean * 1e3:8.3f}ms"
            f"  x{tape_base / mean:5.2f} vs recorded tape"
        )
    plan_mean = float(micro["plan"]["mean_s"])
    # The 2x contract, with the usual noise allowance for slower runners.
    if plan_mean * 2.0 > tape_base * threshold:
        print(
            f"minibatch plan check: planned update {plan_mean * 1e3:.3f}ms is "
            f"only x{tape_base / plan_mean:.2f} the recorded tape mean "
            f"({tape_base * 1e3:.3f}ms) — below the 2x contract (threshold-"
            f"adjusted); the fast path has rotted or fell back to the tape.",
            file=sys.stderr,
        )
        return 1
    print(
        f"minibatch plan check: planned update is x{tape_base / plan_mean:.2f} "
        f"the recorded tape mean (2x contract holds)"
    )
    return 0


def check_serve(path: Path, threshold: float) -> int:
    """Gate the serving-path contracts measured by bench_serve.py.

    Two machine-relative contracts (meaningful on any box):

    * micro-batching sustains >= 2x the RPS of the singles-forced server
      at the highest offered concurrency, and
    * the forward-only execution plan beats the tape on the stacked
      policy forward.

    Both get the usual noise ``threshold`` allowance for slow shared
    runners.  Cache and worker-scaling cells are reported, never gated —
    they are honest measurements of the workload mix and core count that
    ran them.
    """
    payload = json.loads(path.read_text())
    serve = payload.get("serve")
    micro = payload.get("micro")
    if not isinstance(serve, dict) or not isinstance(micro, dict):
        raise SystemExit(f"{path}: not a bench_serve.py dump")

    failures = 0
    print(f"serve check (threshold {threshold:g}x)")
    for concurrency, cell in sorted(
        serve.get("sweep", {}).items(), key=lambda kv: int(kv[0])
    ):
        print(
            f"  load c={concurrency:>2}  {float(cell['rps']):8.1f} rps"
            f"  p50 {float(cell['p50_ms']):6.2f}ms"
            f"  p99 {float(cell['p99_ms']):6.2f}ms"
        )

    batched = float(serve["batched"]["rps"])
    unbatched = float(serve["unbatched"]["rps"])
    concurrency = serve["batched"]["concurrency"]
    ratio = batched / unbatched
    # The 2x contract, with the usual noise allowance for slower runners.
    if batched * threshold < unbatched * 2.0:
        print(
            f"serve check: batched server sustains only x{ratio:.2f} the "
            f"unbatched RPS at concurrency {concurrency} ({batched:.1f} vs "
            f"{unbatched:.1f}) — below the 2x contract (threshold-adjusted); "
            "micro-batching has stopped coalescing or the stacked forward "
            "has rotted.",
            file=sys.stderr,
        )
        failures += 1
    else:
        print(
            f"serve check: batched x{ratio:.2f} unbatched at concurrency "
            f"{concurrency} (2x contract holds)"
        )

    plan = float(micro["plan_forward"]["mean_s"])
    tape = float(micro["tape_forward"]["mean_s"])
    if plan > tape * threshold:
        print(
            f"serve check: planned policy forward {plan * 1e3:.3f}ms is "
            f"slower than the tape {tape * 1e3:.3f}ms (threshold-adjusted) — "
            "the forward-only fast path has rotted or fell back to the tape.",
            file=sys.stderr,
        )
        failures += 1
    else:
        print(
            f"serve check: planned forward x{tape / plan:.2f} the tape "
            f"({plan * 1e3:.3f}ms vs {tape * 1e3:.3f}ms)"
        )

    cache = payload.get("cache", {})
    if "speedup_cache_on" in cache:
        print(
            f"  cache on/off x{float(cache['speedup_cache_on']):.2f} "
            "(not gated)"
        )
    cores = payload.get("machine", {}).get("cores")
    for name, cell in sorted(payload.get("worker_scaling", {}).items()):
        extra = (
            f"  x{float(cell['speedup_vs_inline']):5.2f} vs inline"
            if "speedup_vs_inline" in cell
            else ""
        )
        print(
            f"  workers {name} on {cores} core(s)  "
            f"{float(cell['mean_s']) * 1e3:8.3f}ms{extra} (not gated)"
        )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="fresh --benchmark-json output")
    parser.add_argument(
        "--obs", action="store_true",
        help="treat the positional argument as a bench_obs_overhead.py dump "
        "and gate its full_over_plain ratio against the threshold",
    )
    parser.add_argument(
        "--minibatch", action="store_true",
        help="treat the positional argument as a bench_minibatch_scaling.py "
        "dump and gate the planned update's 2x-vs-recorded-tape contract",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="treat the positional argument as a bench_serve.py dump and "
        "gate the batched-vs-unbatched 2x RPS contract plus the "
        "forward-plan-beats-tape micro",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help=f"committed baseline (default: {DEFAULT_BASELINE.name})",
    )
    parser.add_argument(
        "--threshold", type=float, default=1.5,
        help="fail when current mean > threshold * baseline mean (default 1.5)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="write the fresh means into the baseline file and exit 0 "
        "(use only alongside an understood, accepted slowdown)",
    )
    args = parser.parse_args(argv)

    if args.obs:
        return check_obs_overhead(args.current, args.threshold)
    if args.minibatch:
        return check_minibatch(args.current, args.baseline, args.threshold)
    if args.serve:
        return check_serve(args.current, args.threshold)

    baseline = load_baseline(args.baseline)
    current = load_current(args.current)

    if not current:
        print(
            f"perf check: {args.current} contains no benchmarks — "
            "did the bench run fail?",
            file=sys.stderr,
        )
        return 1

    if args.update:
        update_baseline(args.baseline, current)
        print(
            f"perf check: wrote {len(current)} benchmark mean(s) into "
            f"{args.baseline.name}"
        )
        return 0

    shared = sorted(set(baseline) & set(current))
    new = sorted(set(current) - set(baseline))
    gone = sorted(set(baseline) - set(current))

    failures = []
    width = max(len(name) for name in set(current) | set(baseline))
    print(f"perf check vs {args.baseline.name} (threshold {args.threshold:g}x)")
    for name in shared:
        base_mean = float(baseline[name]["mean_s"])
        cur_mean = current[name]
        ratio = cur_mean / base_mean
        flag = "OK" if ratio <= args.threshold else "REGRESSED"
        if flag != "OK":
            failures.append(name)
        print(
            f"  {name:<{width}}  baseline {base_mean * 1e3:8.3f}ms"
            f"  current {cur_mean * 1e3:8.3f}ms  x{ratio:5.2f}  {flag}"
        )
    for name in new:
        print(
            f"  {name:<{width}}  current {current[name] * 1e3:8.3f}ms"
            "  new (no baseline)"
        )
    for name in gone:
        print(f"  {name:<{width}}  (in baseline but not measured this run)")

    if failures:
        print(
            f"perf check: {len(failures)} benchmark(s) regressed beyond "
            f"{args.threshold:g}x: {', '.join(failures)}\n"
            "If the slowdown is understood and accepted, regenerate the "
            "baseline with the same pytest flags and re-run this script "
            f"with --update --baseline {args.baseline.name}.",
            file=sys.stderr,
        )
        return 1
    if not shared:
        print(
            f"perf check: all {len(new)} benchmark(s) are new (no baseline); "
            "record them with --update once their numbers settle"
        )
        return 0
    print(f"perf check: {len(shared)} benchmark(s) within threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
