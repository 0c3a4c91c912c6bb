#!/usr/bin/env python3
"""Benchmark regression gate — diff BENCH_*.json against committed baselines.

CI's ``bench`` job runs the pinned quick-mode bench subset (which writes
``benchmarks/results/BENCH_*.json``) and then this gate, which compares
every trajectory against its committed twin in
``benchmarks/results/baseline/``:

* **latency fields** (any numeric field named ``seconds`` or ending in
  ``_seconds``): the median across the file's points must not exceed the
  baseline median by more than ``--threshold`` (default 25%).  An
  absolute floor (default 1 ms) suppresses noise on sub-millisecond
  medians — a 0.1ms -> 0.14ms wobble on a shared runner is not a
  regression.
* **speedup fields** (``speedup`` / ``*_speedup``): the median must not
  drop below ``threshold``'s mirror image (base x 0.75 by default) —
  this is what catches "the cache stopped hitting" even when absolute
  latencies drift together.

A baseline with no matching result fails (a bench silently disappeared);
a result with no baseline is reported but passes (a new bench — refresh
the baselines to start gating it).

Refreshing baselines (after an intentional perf change)::

    REPRO_BENCH_QUICK=1 python -m pytest benchmarks/bench_scm_scaling.py \
        benchmarks/bench_tdqm_vs_dnf.py benchmarks/bench_mediator.py \
        benchmarks/bench_cache.py benchmarks/bench_analysis.py \
        benchmarks/bench_resilience.py benchmarks/bench_serve.py \
        --benchmark-disable -q
    python tools/bench_gate.py --update-baseline
    git add benchmarks/results/baseline/

See docs/performance.md for the full procedure and field semantics.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO / "benchmarks" / "results"
BASELINE_DIR = RESULTS_DIR / "baseline"

#: Sub-millisecond medians wobble on shared runners; ignore deltas below this.
DEFAULT_ABS_FLOOR = 0.001  # seconds


def _is_latency_field(name: str) -> bool:
    return name == "seconds" or name.endswith("_seconds")


def _is_speedup_field(name: str) -> bool:
    return name == "speedup" or name.endswith("_speedup")


def _field_medians(payload: dict) -> dict[str, float]:
    """Median per gated numeric field across a trajectory's points."""
    series: dict[str, list[float]] = {}
    for point in payload.get("points", []):
        for name, value in point.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if _is_latency_field(name) or _is_speedup_field(name):
                series.setdefault(name, []).append(float(value))
    return {name: statistics.median(values) for name, values in series.items()}


def _load(path: pathlib.Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def compare_file(
    baseline: pathlib.Path,
    result: pathlib.Path,
    threshold: float,
    abs_floor: float,
) -> list[str]:
    """Human-readable failure messages for one baseline/result pair."""
    base = _field_medians(_load(baseline))
    new = _field_medians(_load(result))
    failures = []
    for name, base_value in sorted(base.items()):
        if name not in new:
            failures.append(f"{result.name}: field {name!r} vanished from results")
            continue
        new_value = new[name]
        if _is_latency_field(name):
            limit = base_value * (1.0 + threshold)
            if new_value > limit and (new_value - base_value) > abs_floor:
                failures.append(
                    f"{result.name}: {name} regressed "
                    f"{base_value * 1e3:.3f}ms -> {new_value * 1e3:.3f}ms "
                    f"(+{(new_value / base_value - 1) * 100:.0f}%, "
                    f"limit +{threshold * 100:.0f}%)"
                )
        else:  # speedup: lower is worse
            limit = base_value * (1.0 - threshold)
            if new_value < limit:
                failures.append(
                    f"{result.name}: {name} dropped "
                    f"{base_value:.2f}x -> {new_value:.2f}x "
                    f"(limit {limit:.2f}x)"
                )
    return failures


def update_baseline() -> int:
    BASELINE_DIR.mkdir(parents=True, exist_ok=True)
    copied = 0
    for path in sorted(RESULTS_DIR.glob("BENCH_*.json")):
        shutil.copy2(path, BASELINE_DIR / path.name)
        copied += 1
    print(f"bench-gate: baseline refreshed from {copied} BENCH_*.json file(s)")
    return 0 if copied else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed relative regression (0.25 = 25%%)",
    )
    parser.add_argument(
        "--abs-floor",
        type=float,
        default=DEFAULT_ABS_FLOOR,
        help="ignore latency deltas smaller than this many seconds",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="copy current BENCH_*.json results over the baselines and exit",
    )
    args = parser.parse_args(argv)

    if args.update_baseline:
        return update_baseline()

    baselines = sorted(BASELINE_DIR.glob("BENCH_*.json"))
    if not baselines:
        print(
            f"bench-gate: no baselines in {BASELINE_DIR}; "
            "run with --update-baseline first",
            file=sys.stderr,
        )
        return 1

    failures: list[str] = []
    compared = 0
    for baseline in baselines:
        result = RESULTS_DIR / baseline.name
        if not result.exists():
            failures.append(
                f"{baseline.name}: baseline exists but the bench run produced "
                "no result (bench removed or failed?)"
            )
            continue
        compared += 1
        failures.extend(
            compare_file(baseline, result, args.threshold, args.abs_floor)
        )

    baseline_names = {p.name for p in baselines}
    for result in sorted(RESULTS_DIR.glob("BENCH_*.json")):
        if result.name not in baseline_names:
            print(f"bench-gate: note: {result.name} has no baseline (not gated)")

    if failures:
        print(f"bench-gate: FAIL ({len(failures)} regression(s)):", file=sys.stderr)
        for message in failures:
            print(f"  - {message}", file=sys.stderr)
        print(
            "\nIf the change is intentional, refresh the baselines "
            "(see docs/performance.md):\n"
            "  python tools/bench_gate.py --update-baseline",
            file=sys.stderr,
        )
        return 1
    print(f"bench-gate: OK ({compared} trajectories within threshold)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
