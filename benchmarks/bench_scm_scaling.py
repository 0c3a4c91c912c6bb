"""C1: Section 4.4's claim — SCM runs in time ~linear in N, P, R.

Sweeps the number of query constraints N (at fixed rule count) and the
number of rules R (at fixed N), timing Algorithm SCM including the rule
prematch.  The recorded table shows time growing roughly linearly — the
time-per-unit column should stay flat — while the quadratic M term stays
invisible because realistic matchings are sparse.  Each sweep also
writes a machine-readable ``BENCH_scm_scaling_*.json`` trajectory
(wall-clock plus the matcher's own work counters) via the obs harness.
"""

import pytest
from obs_harness import BenchRecorder, best_of, median_of, sweep, traced

from repro.core.matching import Matcher
from repro.core.scm import scm, scm_translate
from repro.workloads.generator import simple_conjunction, synthetic_spec, vocabulary

N_SWEEP = sweep((4, 8, 16, 32, 64, 128), quick=(4, 16, 64))
R_SWEEP = sweep((5, 10, 20, 40, 80), quick=(5, 20, 80))
INDEX_RULES = sweep((400,), quick=(200,))[0]


def _spec_with_rules(r_count: int):
    attrs = vocabulary(r_count)
    return synthetic_spec([], singletons=attrs, name=f"K_{r_count}")


def test_scm_linear_in_n(benchmark, report):
    spec = _spec_with_rules(128)
    rows = ["   N    time(ms)   time/N (us)"]
    times = {}
    recorder = BenchRecorder("scm_scaling_n", "Section 4.4: SCM time vs N (R = 128)")
    for n in N_SWEEP:
        query = simple_conjunction(vocabulary(n), 0)
        elapsed = best_of(lambda q=query: scm(q, spec.matcher()))
        _, counters = traced(lambda q=query: scm(q, spec.matcher()))
        times[n] = elapsed
        rows.append(f"{n:>4}    {elapsed * 1e3:8.3f}   {elapsed / n * 1e6:10.2f}")
        recorder.add(
            n=n,
            seconds=elapsed,
            matchings=counters.get("matcher.matchings", 0),
            suppressed=counters.get("scm.submatchings_suppressed", 0),
        )
    recorder.write(rules=128)
    report("Section 4.4: SCM time vs N (R = 128 rules)", rows)
    # Shape check: doubling N should not cost anything near quadratic.
    lo, hi = min(N_SWEEP), max(N_SWEEP)
    assert times[hi] < times[lo] * (hi / lo) ** 1.7

    query = simple_conjunction(vocabulary(32), 0)
    benchmark(lambda: scm(query, spec.matcher()))


def test_scm_linear_in_r(benchmark, report):
    query = simple_conjunction(vocabulary(16), 0)
    rows = ["   R    time(ms)   time/R (us)"]
    times = {}
    recorder = BenchRecorder("scm_scaling_r", "Section 4.4: SCM time vs R (N = 16)")
    for r in R_SWEEP:
        spec = _spec_with_rules(r)
        elapsed = best_of(lambda s=spec: scm(query, s.matcher()))
        _, counters = traced(lambda s=spec: scm(query, s.matcher()))
        times[r] = elapsed
        rows.append(f"{r:>4}    {elapsed * 1e3:8.3f}   {elapsed / r * 1e6:10.2f}")
        recorder.add(
            r=r,
            seconds=elapsed,
            rules_tried=counters.get("matcher.rules_tried", 0),
            matchings=counters.get("matcher.matchings", 0),
        )
    recorder.write(constraints=16)
    report("Section 4.4: SCM time vs R (N = 16 constraints)", rows)
    lo, hi = min(R_SWEEP), max(R_SWEEP)
    assert times[hi] < times[lo] * (hi / lo) ** 1.7

    spec = _spec_with_rules(40)
    benchmark(lambda: scm(query, spec.matcher()))


def test_indexed_vs_linear_dispatch(benchmark, report):
    """Compiled dispatch vs the linear oracle: a wide library, a narrow query.

    A realistic worst case for the naive matcher — R singleton rules, a
    query touching 8 attributes — where the linear ``Matcher(spec.rules)``
    walk (the paper's Fig. 4 as written) discards R - 8 rules one at a
    time.  ``spec.matcher()`` finds the same 8 candidates from the
    compiled rule index and runs each through its compiled closure, in the
    steady state a serving worker reaches after its first request (index
    and closures built, closure memos warm).  The SCM results are
    bit-identical (asserted here, property-tested in
    tests/test_compile_properties.py) and the dispatch is required to be
    at least 2x faster.
    """
    spec = _spec_with_rules(INDEX_RULES)
    query = simple_conjunction(vocabulary(8), 0)
    spec.compiled_index().precompile()  # built at load time, not in the timed region

    # A fresh matcher per call: each run computes its own prematch M_p.
    linear = median_of(lambda: scm(query, Matcher(spec.rules)), repeat=9)
    indexed = median_of(lambda: scm(query, spec.matcher()), repeat=9)
    speedup = linear / indexed

    # Bit-identity: the whole SCMResult (mapping, matchings, exactness).
    assert scm_translate(query, Matcher(spec.rules)) == scm_translate(
        query, spec.matcher()
    )

    _, lin_counters = traced(lambda: scm(query, Matcher(spec.rules)))
    _, idx_counters = traced(lambda: scm(query, spec.matcher()))
    recorder = BenchRecorder(
        "scm_index", f"Compiled rule index vs linear scan (R = {INDEX_RULES}, N = 8)"
    )
    recorder.add(
        rules=INDEX_RULES,
        n=8,
        linear_seconds=linear,
        indexed_seconds=indexed,
        speedup=round(speedup, 2),
        linear_rules_tried=lin_counters.get("matcher.rules_tried", 0),
        indexed_rules_tried=idx_counters.get("matcher.rules_tried", 0),
        rules_skipped=idx_counters.get("perf.index.rules_skipped", 0),
    )
    recorder.write()
    report(
        f"Compiled rule index vs linear scan (R = {INDEX_RULES}, N = 8)",
        [
            f"  linear  : {linear * 1e3:8.3f} ms  "
            f"({lin_counters.get('matcher.rules_tried', 0)} rules tried)",
            f"  indexed : {indexed * 1e3:8.3f} ms  "
            f"({idx_counters.get('matcher.rules_tried', 0)} rules tried)",
            f"  speedup : {speedup:.1f}x",
        ],
    )
    assert speedup >= 2.0, f"indexed dispatch only {speedup:.2f}x faster"

    benchmark(lambda: scm(query, spec.matcher()))


@pytest.mark.parametrize("pairs", [0, 4, 8])
def test_scm_with_dependencies(benchmark, pairs):
    """The quadratic M term: pair rules add matchings without blowing up."""
    attrs = vocabulary(16)
    groups = [(attrs[2 * i], attrs[2 * i + 1]) for i in range(pairs // 2)]
    spec = synthetic_spec(groups, singletons=attrs, name=f"K_dep_{pairs}")
    query = simple_conjunction(attrs, 0)
    benchmark(lambda: scm(query, spec.matcher()))
