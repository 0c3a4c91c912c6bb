"""C8: the load-serving layer (repro.serve) under closed-loop client load.

The ROADMAP's serving story: many client threads against one shared
:class:`~repro.serve.MediationService` must beat the naive
one-translation-per-request handler, because the shared
:class:`~repro.perf.TranslationCache` (and its single-flight on
concurrent misses) collapses the (heavily repeated) paper workload into
dict lookups.

This bench pins that claim with closed-loop workers — each worker fires
its next request the moment the previous one returns, the canonical
saturation model for a service:

* **served** — N workers round-robin the paper queries against one
  shared service (warm steady state);
* **uncached** — the same workers, schedule, and service machinery, but
  with the shared translation cache removed, so every request pays a
  full parse + TDQM translation, the way a cacheless handler would.
  Holding the serving layer constant isolates the variable under test:
  the shared cache, not the admission-control bookkeeping.

Gate: the shared-cache service must clear 2x over per-request
translation (in practice far more), with **zero lost or duplicated
responses** and exact cache accounting.  Results go to
``BENCH_serve.json`` for the CI regression gate.
"""

import itertools
import json
import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

from obs_harness import BenchRecorder, best_of, median_of, sweep

from repro.core.parser import parse_query
from repro.core.tdqm import tdqm_translate
from repro.mediator import bookstore_mediator
from repro.obs.metrics import MetricsRegistry, installed
from repro.obs.stats import builtin_mediator
from repro.serve import (
    ClusterConfig,
    ClusterServer,
    MediationService,
    ServiceConfig,
    handle_line,
    serve_tcp,
)

#: The paper workload: Example 1/2 plus Qbook — the exact query mix an
#: Example-1 mediator serves, from trivial lookups to the partitioned
#: rewrite of Section 4 (the expensive one the cache amortizes).
BOOK_QUERIES = [
    '[ln = "Clancy"] and [fn = "Tom"]',
    "[pyear = 1997] and [pmonth = 5]",
    '([ln = "Clancy"] or [ln = "Klancy"]) and [fn = "Tom"]',
    '([kwd contains www] or ([ln = "Smith"] and [fn = "John"])) and [pyear = 1997]',
    # Qbook (Section 4): the partition {C1}, {C2, C3} rewrite.
    '(([ln = "Smith"] and [fn = "John"]) or [kwd contains www] or'
    ' [kwd contains web]) and [pyear = 1997] and'
    ' ([pmonth = 5] or [pmonth = 6])',
]


def _closed_loop(handler, n_workers: int, rounds: int) -> list[list]:
    """Run ``handler(text)`` from ``n_workers`` closed-loop client threads.

    Each worker issues its next request as soon as the previous response
    arrives; returns the per-worker response lists (for the lost/dup
    audit).
    """
    responses: list[list] = [[] for _ in range(n_workers)]
    barrier = threading.Barrier(n_workers)

    def worker(tid: int) -> None:
        barrier.wait()
        for round_ in range(rounds):
            text = BOOK_QUERIES[(tid + round_) % len(BOOK_QUERIES)]
            responses[tid].append(handler(text))

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        list(pool.map(worker, range(n_workers)))
    return responses


def test_serve_throughput(benchmark, report):
    """Shared-cache serving must beat per-request translation by 2x."""
    n_workers = sweep((8,), quick=(4,))[0]
    rounds = sweep((60,), quick=(25,))[0]
    total = n_workers * rounds

    config = ServiceConfig(max_concurrency=n_workers, queue_depth=total)
    mediator = bookstore_mediator("amazon")
    spec = mediator.specs["Amazon"]
    service = MediationService(mediator, config)

    # The control: identical service, shared cache removed — every
    # request re-runs the full translation pipeline.
    uncached_mediator = bookstore_mediator("amazon")
    uncached_mediator.translation_cache = None
    uncached = MediationService(uncached_mediator, config)

    # Warm-up: populate the cache and audit one full load for losses.
    audit = _closed_loop(service.translate, n_workers, rounds)
    assert all(len(per) == rounds for per in audit)  # zero lost responses
    serial = {
        text: tdqm_translate(parse_query(text), spec) for text in BOOK_QUERIES
    }
    for per_worker in audit:
        for served in per_worker:
            assert set(served) == {"Amazon"}  # zero cross-request bleed
    stats = service.stats()
    assert stats["requests"] == stats["completed"] == total
    assert stats["rejected"] == 0 and stats["errors"] == 0
    cache = stats["cache"]
    # Exact accounting: one spec, so one lookup per request, no lost updates.
    assert cache["hits"] + cache["misses"] == stats["requests"]

    served_seconds = median_of(
        lambda: _closed_loop(service.translate, n_workers, rounds), repeat=5
    )
    uncached_seconds = median_of(
        lambda: _closed_loop(uncached.translate, n_workers, rounds), repeat=5
    )
    speedup = uncached_seconds / served_seconds

    # Bit-identity: the served mapping is exactly the serial pipeline's.
    for text in BOOK_QUERIES:
        assert service.translate(text)["Amazon"].mapping == serial[text].mapping

    recorder = BenchRecorder(
        "serve", "repro.serve: shared-cache service vs per-request translation"
    )
    recorder.add(
        workers=n_workers,
        requests=total,
        uncached_seconds=uncached_seconds,
        served_seconds=served_seconds,
        speedup=round(speedup, 2),
    )
    recorder.write()
    report(
        "repro.serve: closed-loop load, shared service vs cacheless handler",
        [
            f"  uncached : {uncached_seconds * 1e3:8.3f} ms  "
            f"({total} requests, {n_workers} workers)",
            f"  served   : {served_seconds * 1e3:8.3f} ms",
            f"  speedup  : {speedup:.1f}x",
            f"  coalesced: {cache['coalesced']}  "
            f"(cache hits {cache['hits']}, misses {cache['misses']})",
        ],
    )
    assert speedup >= 2.0, f"shared-cache service only {speedup:.2f}x faster"

    benchmark(lambda: _closed_loop(service.translate, n_workers, rounds))


def test_serve_telemetry_overhead(report):
    """Continuous telemetry must not tax the hot path beyond 5%.

    The metrics registry is fed by the same ``obs`` hooks the service
    already calls, so the marginal cost per request is a handful of
    lock-guarded dict updates.  This bench pins the contract from the
    observability docs: a registry-enabled service serves the warm
    closed-loop workload within 5% of the identical service with
    telemetry off.  Measurements interleave off/on pairs (best-of-N
    each) and the assertion takes the best of a few attempts, so a
    scheduler hiccup on a shared runner cannot fail the gate spuriously.
    """
    n_workers = sweep((8,), quick=(4,))[0]
    rounds = sweep((40,), quick=(20,))[0]
    config = ServiceConfig(max_concurrency=n_workers, queue_depth=n_workers * rounds)

    plain = MediationService(bookstore_mediator("amazon"), config)
    registry = MetricsRegistry()
    metered = MediationService(
        bookstore_mediator("amazon"), config, metrics=registry
    )

    # Warm both caches so the measured loops are the steady hot path.
    _closed_loop(plain.translate, n_workers, rounds)
    with installed(registry):
        _closed_loop(metered.translate, n_workers, rounds)

    attempts: list[tuple[float, float, float]] = []
    for _ in range(4):
        off_seconds = best_of(
            lambda: _closed_loop(plain.translate, n_workers, rounds), repeat=3
        )
        with installed(registry):
            on_seconds = best_of(
                lambda: _closed_loop(metered.translate, n_workers, rounds), repeat=3
            )
        attempts.append((on_seconds / off_seconds, off_seconds, on_seconds))
        if attempts[-1][0] <= 1.05:
            break
    ratio, off_seconds, on_seconds = min(attempts)

    # Guard against measuring a no-op: the registry really was fed.
    assert registry.counter_total("serve.requests") > 0
    assert registry.histogram("serve.translate.latency").count > 0

    recorder = BenchRecorder(
        "serve_telemetry", "repro.serve: telemetry-on vs telemetry-off hot path"
    )
    recorder.add(
        workers=n_workers,
        requests=n_workers * rounds,
        telemetry_off_seconds=off_seconds,
        telemetry_on_seconds=on_seconds,
        overhead_ratio=round(ratio, 4),
    )
    recorder.write()
    report(
        "repro.serve: continuous-telemetry overhead on the warm hot path",
        [
            f"  telemetry off: {off_seconds * 1e3:8.3f} ms",
            f"  telemetry on : {on_seconds * 1e3:8.3f} ms",
            f"  overhead     : {(ratio - 1) * 100:+.1f}%  (budget +5%)",
        ],
    )
    assert ratio <= 1.05, f"telemetry overhead {(ratio - 1) * 100:.1f}% exceeds 5%"


def test_serve_overload_rejection_is_fast(report):
    """An Overloaded rejection must cost microseconds, not a translation."""
    from repro.serve import Overloaded

    mediator = bookstore_mediator("amazon")
    service = MediationService(
        mediator, ServiceConfig(max_concurrency=1, queue_depth=0)
    )
    release = threading.Event()
    entered = threading.Event()
    real = mediator.answer_mediated

    def slow_answer(query, strict=None):
        entered.set()
        release.wait(timeout=30.0)
        return real(query, strict=strict)

    mediator.answer_mediated = slow_answer  # type: ignore[method-assign]
    occupant = threading.Thread(
        target=lambda: service.mediate(BOOK_QUERIES[0]), daemon=True
    )
    occupant.start()
    assert entered.wait(timeout=30.0)

    rejections = 0

    def reject_once():
        nonlocal rejections
        try:
            service.mediate(BOOK_QUERIES[1])
        except Overloaded:
            rejections += 1

    rejection_seconds = median_of(reject_once, repeat=20)
    release.set()
    occupant.join(timeout=30.0)
    assert rejections == 20  # every probe was shed, none queued
    report(
        "repro.serve: O(1) admission-control rejection",
        [f"  rejection: {rejection_seconds * 1e6:8.1f} us"],
    )
    # Shedding must be far cheaper than serving (sub-millisecond).
    assert rejection_seconds < 0.001

# ---------------------------------------------------------------------------
# Multi-process scaling: the sharded cluster vs one GIL-bound process
# ---------------------------------------------------------------------------


def _scaling_batch(tag: str, n_clients: int, rounds: int) -> list[list[str]]:
    """One batch of translation-heavy queries, unique per (client, round).

    Every query text is distinct (the ``tag`` keeps batches distinct
    across measurement runs too), so every request is a cache miss that
    pays a full partitioned TDQM translation in the worker.  That is the
    work process shards parallelize; a warm cache-hit workload would be
    a dict lookup per request and measure only front-end framing.
    """
    batch: list[list[str]] = []
    for cid in range(n_clients):
        queries = []
        for round_ in range(rounds):
            i = cid * rounds + round_
            queries.append(
                f'(([ln = "{tag}L{i}"] and [fn = "F{i}"]) or [kwd contains www]'
                ' or [kwd contains web]) and [pyear = 1997]'
                " and ([pmonth = 5] or [pmonth = 6])"
            )
        batch.append(queries)
    return batch


def _tcp_closed_loop(address, batch: list[list[str]]) -> list[list[str]]:
    """Closed-loop TCP clients against one JSON-lines server.

    Each client owns one connection and fires its next request the moment
    the previous response line arrives; returns per-client raw response
    lines (for the lost-response and bit-identity audits).
    """
    n_clients = len(batch)
    responses: list[list[str]] = [[] for _ in range(n_clients)]
    barrier = threading.Barrier(n_clients)

    def client(cid: int) -> None:
        with socket.create_connection(address, timeout=120.0) as conn:
            handle = conn.makefile("rw", encoding="utf-8")
            barrier.wait()
            for round_, text in enumerate(batch[cid]):
                handle.write(
                    json.dumps(
                        {"id": round_, "op": "translate", "query": text},
                        sort_keys=True,
                    )
                    + "\n"
                )
                handle.flush()
                responses[cid].append(handle.readline().rstrip("\n"))

    with ThreadPoolExecutor(max_workers=n_clients) as pool:
        list(pool.map(client, range(n_clients)))
    return responses


def _reference_responses(batch: list[list[str]]) -> dict[tuple[int, int], str]:
    """The bit-exact single-process response for every (client, round)."""
    service = MediationService(builtin_mediator({"K_Amazon"}), ServiceConfig())
    expected: dict[tuple[int, int], str] = {}
    for cid, queries in enumerate(batch):
        for round_, text in enumerate(queries):
            line = json.dumps(
                {"id": round_, "op": "translate", "query": text}, sort_keys=True
            )
            expected[(cid, round_)] = handle_line(service, line)
    return expected


def _audit(responses, expected, batch: list[list[str]]) -> None:
    """Zero lost responses; every byte identical to single-process."""
    assert all(len(per) == len(queries) for per, queries in zip(responses, batch))
    for cid, per_client in enumerate(responses):
        for round_, line in enumerate(per_client):
            assert line == expected[(cid, round_)], (cid, round_, line[:120])


def test_serve_cluster_scaling(report):
    """Shared-nothing process shards must scale past the GIL ceiling.

    One GIL-bound process serves the closed-loop TCP workload; the
    cluster spreads the identical workload shape across worker processes,
    each request to the least-loaded one.  Every query text is unique —
    each request pays a full TDQM translation, the work that shards
    parallelize — and each measurement run gets a fresh batch so the
    translation cache never converts the workload into dict lookups
    mid-sweep.  Correctness is
    asserted unconditionally — zero lost responses, byte-identical
    answers on the audited batch, exact aggregated stats — on any
    machine.  The throughput floors (>=1.7x at 2 workers, >=3x at 4)
    need real parallelism, so they are asserted only when the host has
    more cores than workers (a 1-core container cannot speed anything
    up by adding processes; the recorded trajectory still feeds the CI
    regression gate).
    """
    n_clients = sweep((16,), quick=(8,))[0]
    rounds = sweep((40,), quick=(15,))[0]
    worker_counts = sweep((2, 4), quick=(2,))
    repeat = sweep((5,), quick=(3,))[0]
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        cores = os.cpu_count() or 1

    batch_counter = itertools.count()

    def fresh_batch() -> list[list[str]]:
        return _scaling_batch(f"u{next(batch_counter)}", n_clients, rounds)

    service_config = ServiceConfig(
        max_concurrency=n_clients, queue_depth=n_clients * rounds
    )

    # Baseline: one process behind the same TCP framing.
    single = MediationService(builtin_mediator({"K_Amazon"}), service_config)
    server = serve_tcp(single, port=0)
    address = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        audit_batch = fresh_batch()
        _audit(
            _tcp_closed_loop(address, audit_batch),
            _reference_responses(audit_batch),
            audit_batch,
        )
        batches = iter([fresh_batch() for _ in range(repeat)])
        single_seconds = median_of(
            lambda: _tcp_closed_loop(address, next(batches)), repeat=repeat
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30.0)

    recorder = BenchRecorder(
        "serve_cluster",
        "repro.serve.cluster: process shards vs one GIL-bound process",
    )
    lines = [
        f"  single   : {single_seconds * 1e3:8.3f} ms  "
        f"({n_clients * rounds} requests, {n_clients} clients, {cores} cores)"
    ]

    for workers in worker_counts:
        config = ClusterConfig(
            spec_names=("K_Amazon",),
            processes=workers,
            service=service_config,
            snapshot_interval=0.0,
        )
        with ClusterServer(config) as cluster:
            audit_batch = fresh_batch()
            _audit(
                _tcp_closed_loop(cluster.address, audit_batch),
                _reference_responses(audit_batch),
                audit_batch,
            )
            batches = iter([fresh_batch() for _ in range(repeat)])
            cluster_seconds = median_of(
                lambda: _tcp_closed_loop(cluster.address, next(batches)),
                repeat=repeat,
            )
            # Exact aggregated accounting: every translate line landed on
            # exactly one shard and was counted exactly once.
            with socket.create_connection(cluster.address, timeout=30.0) as conn:
                handle = conn.makefile("rw", encoding="utf-8")
                handle.write(json.dumps({"op": "stats"}) + "\n")
                handle.flush()
                stats = json.loads(handle.readline())["stats"]
        issued = n_clients * rounds * (1 + repeat)
        assert stats["requests"] == issued, (stats["requests"], issued)
        shard_requests = [
            entry["stats"]["requests"]
            for entry in stats["shards"]
            if "stats" in entry
        ]
        assert sum(shard_requests) == issued
        assert stats["errors"] == 0 and stats["rejected"] == 0
        assert stats["frontend"]["worker_deaths"] == 0

        speedup = single_seconds / cluster_seconds
        recorder.add(
            **{
                "workers": workers,
                "clients": n_clients,
                "requests": n_clients * rounds,
                "cores": cores,
                "single_seconds": single_seconds,
                "cluster_seconds": cluster_seconds,
                f"cluster{workers}_speedup": round(speedup, 2),
            }
        )
        lines.append(
            f"  {workers} workers: {cluster_seconds * 1e3:8.3f} ms  "
            f"(speedup {speedup:.2f}x)"
        )
        floor = {2: 1.7, 4: 3.0}.get(workers)
        if floor is not None and cores > workers:
            assert speedup >= floor, (
                f"{workers}-worker cluster only {speedup:.2f}x over one process "
                f"(floor {floor}x on {cores} cores)"
            )
        elif floor is not None:
            lines.append(
                f"             (floor {floor}x not asserted: {cores} core(s))"
            )

    recorder.write()
    report("repro.serve.cluster: multi-process scaling sweep", lines)
