"""Concurrency regression tests: shared cache, single-flight, tracer handoff.

ISSUE 5's headline bugfixes: the :class:`~repro.perf.TranslationCache`
LRU core is lock-guarded and single-flighted, and a :class:`~repro.obs.Tracer`
records exactly (no lost spans or counter updates) across a thread-pool
fan-out via :func:`repro.obs.bind`.  These tests hammer both from many
threads and assert the bookkeeping is *exact*, not just "did not crash".
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parser import parse_query
from repro.core.tdqm import tdqm_translate
from repro.mediator import synthetic_federation
from repro.obs import trace as obs
from repro.perf import TranslationCache
from repro.resilience import ResilienceConfig, RetryPolicy
from repro.workloads.generator import chain_query, synthetic_spec, vocabulary

N_THREADS = 8
N_ROUNDS = 40


def _workload(n_queries: int = 12):
    spec = synthetic_spec([], singletons=vocabulary(2 * n_queries), name="K_conc")
    queries = [chain_query(k) for k in range(4, 4 + n_queries)]
    return spec, queries


class TestCacheStress:
    """≥8 threads on one shared cache: stats exact, LRU bounded, results right."""

    def test_shared_cache_exact_bookkeeping(self):
        spec, queries = _workload()
        serial = {i: tdqm_translate(q, spec) for i, q in enumerate(queries)}
        cache = TranslationCache(maxsize=len(queries) // 2)  # force eviction churn
        start = threading.Barrier(N_THREADS)
        results: list[list] = [[] for _ in range(N_THREADS)]

        def worker(tid: int) -> None:
            start.wait()
            for round_ in range(N_ROUNDS):
                i = (tid + round_) % len(queries)
                results[tid].append((i, cache.tdqm(queries[i], spec)))

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            list(pool.map(worker, range(N_THREADS)))

        stats = cache.stats
        lookups = N_THREADS * N_ROUNDS
        assert stats.hits + stats.misses == lookups  # no lost/torn updates
        assert stats.size <= cache.maxsize
        assert len(cache) <= cache.maxsize
        assert stats.misses >= 1 and stats.hits >= 1
        # Every concurrent translation is bit-identical to the serial run.
        for per_thread in results:
            assert len(per_thread) == N_ROUNDS  # every request got a response
            for i, result in per_thread:
                assert result.mapping == serial[i].mapping
                assert result.exact == serial[i].exact

    def test_concurrent_invalidate_and_lookup(self):
        spec, queries = _workload(8)
        cache = TranslationCache(maxsize=64)
        stop = threading.Event()

        def invalidator() -> None:
            while not stop.is_set():
                cache.invalidate(spec)
                cache.invalidate()

        chaos = threading.Thread(target=invalidator)
        chaos.start()
        try:
            with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
                list(
                    pool.map(
                        lambda tid: [
                            cache.tdqm(queries[(tid + r) % len(queries)], spec)
                            for r in range(N_ROUNDS)
                        ],
                        range(N_THREADS),
                    )
                )
        finally:
            stop.set()
            chaos.join()
        stats = cache.stats
        assert stats.hits + stats.misses == N_THREADS * N_ROUNDS
        assert stats.size <= cache.maxsize


class TestSingleFlight:
    """N concurrent misses on one fingerprint run one translation, not N."""

    def _stampede(self, n_threads: int) -> None:
        spec, queries = _workload(2)
        cache = TranslationCache()
        release = threading.Event()
        calls: list[int] = []
        real = tdqm_translate

        def slow_translate(query, spec_):
            calls.append(1)
            release.wait(timeout=10.0)
            return real(query, spec_)

        out: list[object] = [None] * n_threads

        def requester(tid: int) -> None:
            out[tid] = cache.tdqm(queries[0], spec)

        with mock.patch("repro.core.tdqm.tdqm_translate", side_effect=slow_translate):
            threads = [
                threading.Thread(target=requester, args=(tid,))
                for tid in range(n_threads)
            ]
            for t in threads:
                t.start()
            # Followers count a hit *before* waiting on the flight, so the
            # stats tell us deterministically when everyone has joined.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                s = cache.stats
                if s.hits + s.misses >= n_threads:
                    break
                time.sleep(0.001)
            release.set()
            for t in threads:
                t.join(timeout=10.0)

        assert sum(calls) == 1  # one leader translated; N-1 followers waited
        first = out[0]
        assert all(result is first for result in out)  # identical object
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits == n_threads - 1
        assert stats.coalesced == n_threads - 1

    def test_stampede_coalesces(self):
        self._stampede(N_THREADS)

    @settings(max_examples=8, deadline=None)
    @given(n_threads=st.integers(min_value=2, max_value=12))
    def test_property_identical_object_for_all_waiters(self, n_threads: int):
        self._stampede(n_threads)

    def test_leader_failure_propagates_and_is_not_cached(self):
        spec, queries = _workload(2)
        cache = TranslationCache()

        def boom(query, spec_):
            raise RuntimeError("translation exploded")

        with mock.patch("repro.core.tdqm.tdqm_translate", side_effect=boom):
            with pytest.raises(RuntimeError):
                cache.tdqm(queries[0], spec)
        assert len(cache) == 0
        # The failure was not memoized: the next call translates for real.
        ok = cache.tdqm(queries[0], spec)
        assert ok.mapping == tdqm_translate(queries[0], spec).mapping


class TestTracerHandoff:
    """No span loss and exact counters across a worker pool (obs.bind)."""

    def test_bound_workers_record_into_parent_trace(self):
        n_jobs = 12
        with obs.tracing("t") as tracer:
            with obs.span("fanout"):
                handoffs = [obs.bind("job", index=i) for i in range(n_jobs)]

                def work(entry):
                    i, handoff = entry
                    with handoff:
                        with obs.span("inner"):
                            obs.count("work.done")
                            obs.count("work.units", i)
                        obs.gauge_max("work.high", i)

                with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
                    list(pool.map(work, enumerate(handoffs)))

        fanout = tracer.root.find("fanout")
        assert fanout is not None
        jobs = [s for s in fanout.children if s.name == "job"]
        assert len(jobs) == n_jobs  # zero spans lost
        # Deterministic placement: bind-call order, not scheduler order.
        assert [s.attrs["index"] for s in jobs] == list(range(n_jobs))
        for span in jobs:
            assert [c.name for c in span.children] == ["inner"]
            assert span.elapsed >= 0.0
        assert tracer.counters["work.done"] == n_jobs
        assert tracer.counters["work.units"] == sum(range(n_jobs))
        assert tracer.gauges["work.high"] == n_jobs - 1

    def test_bind_without_tracer_is_noop(self):
        handoff = obs.bind("job")
        with handoff:  # must not raise or install anything
            assert obs.current_tracer() is None
            obs.count("dropped")
        assert obs.current_tracer() is None

    def test_concurrent_counts_are_exact(self):
        per_thread = 2000
        with obs.tracing("t") as tracer:
            handoffs = [obs.bind("w") for _ in range(N_THREADS)]

            def bump(handoff):
                with handoff:
                    for _ in range(per_thread):
                        obs.count("n")

            with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
                list(pool.map(bump, handoffs))
        assert tracer.counters["n"] == N_THREADS * per_thread  # no lost updates


class TestResilientFanOutTracing:
    """The fan-out pool no longer drops worker spans/counters."""

    def test_fanout_records_every_source_call(self):
        config = ResilienceConfig(
            retry=RetryPolicy(retries=0, jitter=0.0), max_workers=8
        )
        mediator = synthetic_federation(resilience=config)
        query = parse_query("[v0.a0 = 2] and [v1.a1 = 3] and [v2.a2 = 4]")
        with obs.tracing("t") as tracer:
            answer = mediator.answer_mediated(query)
        assert answer.complete
        assert tracer.counters["resilience.calls"] == 3
        fanout = tracer.root.find("mediator.fanout")
        assert fanout is not None
        calls = [s for s in fanout.children if s.name == "mediator.call"]
        assert [s.attrs["source"] for s in calls] == ["S0", "S1", "S2"]
        # Worker latency gauges survived the pool boundary.
        assert any(name.startswith("resilience.S") for name in tracer.gauges)
