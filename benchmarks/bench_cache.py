"""C6: the hot-path translation cache and the batch API (repro.perf).

Mediators re-translate the same handful of queries over and over — every
``answer_mediated`` call rebuilds the filter plan, and interactive
clients repeat whole queries verbatim.  :class:`repro.perf.TranslationCache`
memoizes whole TDQM results keyed by the query's canonical fingerprint
and the specification's content digest, so a repeat costs one normalize +
fingerprint + dict lookup instead of a full prematch/PSafe/SCM run.

This bench pins that claim: warm-cache translation must be at least 2x
faster than uncached translation (in practice it is orders of magnitude),
and the batch API must not be slower than the equivalent per-query loop.
Results go to ``BENCH_cache.json``; the CI gate watches both the raw
latencies and the recorded speedup.
"""

from obs_harness import BenchRecorder, median_of, sweep

from repro.core.parser import parse_query
from repro.core.tdqm import tdqm_translate
from repro.perf import TranslationCache, translate_batch
from repro.rules import MappingSpecification, builtin_specifications
from repro.workloads.generator import chain_query, synthetic_spec, vocabulary

#: Realistic mediator workload: the bookstore queries every bench reuses.
BOOK_QUERIES = [
    '[ln = "Clancy"] and [fn = "Tom"]',
    "[pyear = 1997] and [pmonth = 5]",
    '([ln = "Clancy"] or [ln = "Klancy"]) and [fn = "Tom"]',
    '([kwd contains www] or ([ln = "Smith"] and [fn = "John"])) and [pyear = 1997]',
]


def _workload():
    """(spec, queries): a synthetic spec plus structurally rich queries."""
    n = sweep((10,), quick=(8,))[0]
    spec = synthetic_spec([], singletons=vocabulary(2 * n), name="K_cache")
    queries = [chain_query(k) for k in range(4, n + 1, 2)]
    return spec, queries


def test_warm_cache_speedup(benchmark, report):
    """A cache hit must beat re-translation by at least 2x."""
    spec, queries = _workload()
    cache = TranslationCache()
    for query in queries:  # populate
        cache.tdqm(query, spec)
    assert cache.stats.misses == len(queries)

    uncached = median_of(
        lambda: [tdqm_translate(q, spec) for q in queries], repeat=7
    )
    warm = median_of(lambda: [cache.tdqm(q, spec) for q in queries], repeat=7)
    speedup = uncached / warm
    assert cache.stats.misses == len(queries)  # every timed run was all hits

    # Bit-identity: a hit returns exactly what translation would.
    for query in queries:
        assert cache.tdqm(query, spec).mapping == tdqm_translate(query, spec).mapping

    recorder = BenchRecorder(
        "cache", "repro.perf: warm-cache translation vs uncached"
    )
    recorder.add(
        queries=len(queries),
        uncached_seconds=uncached,
        warm_seconds=warm,
        speedup=round(speedup, 2),
    )
    recorder.write()
    report(
        "repro.perf: warm-cache translation vs uncached",
        [
            f"  uncached : {uncached * 1e3:8.3f} ms  ({len(queries)} queries)",
            f"  warm     : {warm * 1e3:8.3f} ms",
            f"  speedup  : {speedup:.1f}x",
        ],
    )
    assert speedup >= 2.0, f"warm cache only {speedup:.2f}x faster"

    benchmark(lambda: [cache.tdqm(q, spec) for q in queries])


def test_batch_translation(benchmark, report):
    """translate_batch: shared normalization beats the naive loop.

    The batch run parses/normalizes/fingerprints each query once for all
    sources and reuses one cache, so a batch with repeats degenerates to
    dict lookups.  Gate: the batch path must not be slower than the
    per-query loop on the same workload (identical results asserted).
    """
    specs = {
        name: spec
        for name, spec in builtin_specifications().items()
        if name in ("K_Amazon", "K_map")
    }
    repeats = sweep((20,), quick=(10,))[0]
    queries = [parse_query(text) for text in BOOK_QUERIES] * repeats

    def loop():
        return [
            {name: tdqm_translate(q, spec) for name, spec in specs.items()}
            for q in queries
        ]

    def batch():
        return translate_batch(queries, specs, cache=TranslationCache())

    loop_seconds = median_of(loop, repeat=5)
    batch_seconds = median_of(batch, repeat=5)
    speedup = loop_seconds / batch_seconds

    loop_results, batch_results = loop(), batch()
    for per_loop, per_batch in zip(loop_results, batch_results):
        for name in specs:
            assert per_loop[name].mapping == per_batch[name].mapping
            assert per_loop[name].exact == per_batch[name].exact

    recorder = BenchRecorder(
        "cache_batch", "repro.perf: translate_batch vs per-query loop"
    )
    recorder.add(
        queries=len(queries),
        unique_queries=len(BOOK_QUERIES),
        sources=len(specs),
        loop_seconds=loop_seconds,
        batch_seconds=batch_seconds,
        speedup=round(speedup, 2),
    )
    recorder.write()
    report(
        "repro.perf: translate_batch vs per-query loop",
        [
            f"  loop   : {loop_seconds * 1e3:8.3f} ms  "
            f"({len(queries)} queries x {len(specs)} sources)",
            f"  batch  : {batch_seconds * 1e3:8.3f} ms",
            f"  speedup: {speedup:.1f}x",
        ],
    )
    assert speedup >= 2.0, f"batch path only {speedup:.2f}x faster"

    benchmark(batch)


def test_cache_invalidation_cost(report):
    """A changed rule set invalidates logically — old entries just never hit."""
    spec, queries = _workload()
    cache = TranslationCache()
    for query in queries:
        cache.tdqm(query, spec)
    before = cache.stats
    from repro.core.matching import Rule

    template = spec.rules[0]
    late = Rule(
        name="late-rule",
        patterns=template.patterns,
        emit=template.emit,
        exact=False,
    )
    grown = MappingSpecification(spec.name, spec.target, (*spec.rules, late))
    # Same name, new digest: the old entries are unreachable — re-asking misses.
    cache.tdqm(queries[0], grown)
    after = cache.stats
    assert after.misses == before.misses + 1
    report(
        "repro.perf: content-digest invalidation",
        [
            f"  entries before the change : {before.size}",
            f"  misses with one more rule : {after.misses - before.misses} (forced rebuild)",
        ],
    )
