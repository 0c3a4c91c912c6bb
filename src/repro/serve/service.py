"""MediationService: a concurrent front door over one Mediator.

Many client threads call :meth:`~MediationService.translate` /
:meth:`~MediationService.mediate` against one shared service.  The
service layers two serving disciplines over the mediation pipeline:

* **Admission control** — at most ``max_concurrency`` requests execute
  at once (a semaphore) and at most ``queue_depth`` more may wait; a
  request beyond that is rejected *immediately* with :class:`Overloaded`
  rather than queued without bound — the fast-failure contract a client
  with its own deadline needs.
* **Batching** — :meth:`translate_batch` routes a list of queries
  through :func:`repro.perf.translate_batch` under one admission slot,
  sharing normalization, fingerprints, and compiled rule indexes across
  the whole batch.

Concurrent identical work is shared one layer down: every translation
goes through the mediator's :class:`~repro.perf.TranslationCache`,
keyed by spec name, content digest and query fingerprint, and
concurrent misses on one key run a single translation (single-flight).
Keying on the spec's identity is what keeps a request admitted after a
:meth:`~MediationService.reload_spec` from joining work started under
the retired rules.

Everything is observable: the service emits ``serve.*`` counters and
queue-depth/latency gauges through :mod:`repro.obs`, and
:meth:`~MediationService.stats` returns exact local counters (no lost
updates — every mutation happens under the service lock).  Construct
with a :class:`~repro.obs.metrics.MetricsRegistry` (``repro serve
--metrics``) and the service additionally feeds process-lifetime
telemetry: per-operation latency histograms and a bounded slow-query
log keyed by canonical fingerprint, served live through the
``metrics`` / ``sources`` / ``slowlog`` / ``health`` protocol ops.
The registry also receives every ``serve.*`` counter via the obs tee,
so the service never counts the same event twice.

The wire layer (JSON-lines over stdin or TCP) lives in
:mod:`repro.serve.server`; semantics and tuning in ``docs/serving.md``.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.ast import Query
from repro.core.errors import TranslationError, VocabMapError
from repro.core.normalize import normalize
from repro.core.parser import parse_query
from repro.obs import trace as obs
from repro.perf.fingerprint import query_fingerprint

if TYPE_CHECKING:
    from repro.core.tdqm import TranslationResult
    from repro.mediator.mediator import MediatedAnswer, Mediator
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.snapshot import SnapshotTimer

__all__ = ["MediationService", "Overloaded", "ServiceConfig"]


class Overloaded(VocabMapError):
    """The service is at capacity; the request was rejected, not queued.

    Raised *before* any work happens, so rejection is O(1) — a client
    should back off and retry, or shed the request.  Carries the
    ``limit`` (admitted-request bound) that was hit.
    """

    def __init__(self, message: str, limit: int = 0):
        super().__init__(message)
        self.limit = limit


@dataclass(frozen=True)
class ServiceConfig:
    """Admission-control knobs for one :class:`MediationService`."""

    #: Requests executing concurrently (semaphore width).
    max_concurrency: int = 8
    #: Requests allowed to wait beyond the executing ones; total
    #: admitted = ``max_concurrency + queue_depth``, the rest are
    #: rejected with :class:`Overloaded`.
    queue_depth: int = 64

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {self.max_concurrency}"
            )
        if self.queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {self.queue_depth}")

    @property
    def admission_limit(self) -> int:
        """Max requests admitted (executing + queued) at any instant."""
        return self.max_concurrency + self.queue_depth


class MediationService:
    """A thread-safe serving layer over one :class:`~repro.mediator.Mediator`.

    Share one instance across all client threads — the whole point is
    the shared translation cache and the shared admission budget.
    """

    def __init__(
        self,
        mediator: "Mediator",
        config: ServiceConfig | None = None,
        *,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.mediator = mediator
        self.config = config or ServiceConfig()
        self.metrics = metrics
        #: The timer persisting this service's cache, when it runs one;
        #: the ``snapshot`` protocol op writes through it.
        self.snapshot_timer: "SnapshotTimer | None" = None
        self._slots = threading.Semaphore(self.config.max_concurrency)
        self._lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._admitted = 0
        self._requests = 0
        self._completed = 0
        self._rejected = 0
        self._errors = 0
        self._reloads = 0
        self._queue_high_water = 0
        self._latency_total = 0.0
        self._latency_max = 0.0

    # -- admission control ----------------------------------------------------

    @contextmanager
    def _admitted_request(
        self, op: str = "request", info: dict | None = None
    ) -> Iterator[None]:
        """Admit one request or raise :class:`Overloaded`; track latency.

        ``op`` labels the per-operation latency histogram when a metrics
        registry is attached; the operation may deposit its canonical
        ``fingerprint`` (and optionally the ``query`` text) into ``info``
        once :meth:`_prepare` has run, which routes the request into the
        slow-query log.
        """
        limit = self.config.admission_limit
        with self._lock:
            if self._admitted >= limit:
                self._rejected += 1
                obs.count("serve.rejected")
                raise Overloaded(
                    f"service at capacity ({limit} requests admitted); "
                    "back off and retry",
                    limit=limit,
                )
            self._admitted += 1
            self._requests += 1
            depth = self._admitted
            self._queue_high_water = max(self._queue_high_water, depth)
        obs.count("serve.requests")
        obs.gauge_max("serve.queue_high_water", depth)
        started = time.perf_counter()
        try:
            yield
        except Exception:
            with self._lock:
                self._errors += 1
            obs.count("serve.errors")
            raise
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self._admitted -= 1
                self._completed += 1
                self._latency_total += elapsed
                self._latency_max = max(self._latency_max, elapsed)
            obs.gauge_max("serve.latency_ms", round(elapsed * 1e3, 3))
            if self.metrics is not None:
                self.metrics.record_request(
                    op,
                    elapsed,
                    fingerprint=info.get("fingerprint") if info else None,
                    query=info.get("query") if info else None,
                )

    @contextmanager
    def _execution_slot(self) -> Iterator[None]:
        """One of the ``max_concurrency`` execution slots (blocking)."""
        self._slots.acquire()
        try:
            yield
        finally:
            self._slots.release()

    # -- request preparation --------------------------------------------------

    def _prepare(self, query: "Query | str") -> tuple[Query, str]:
        """Parse/normalize once; the fingerprint keys the cache lookup."""
        parsed = parse_query(query) if isinstance(query, str) else query
        prepared = normalize(parsed)
        return prepared, query_fingerprint(prepared, normalized=True)

    # -- operations -----------------------------------------------------------

    def translate(
        self, query: "Query | str", sources: Sequence[str] | None = None
    ) -> "dict[str, TranslationResult]":
        """Translate one query for every (or the named) sources.

        Repeat requests hit the mediator's
        :class:`~repro.perf.TranslationCache`, and concurrent identical
        misses share one translation there; a mediator without a cache
        translates every request.  Returns ``{source name:
        TranslationResult}``.
        """
        info: dict = {}
        with self._admitted_request("translate", info):
            prepared, fingerprint = self._prepare(query)
            info["fingerprint"] = fingerprint
            if isinstance(query, str):
                info["query"] = query
            names = sorted(sources if sources is not None else self.mediator.specs)
            with self._execution_slot(), obs.span("serve.translate"):
                specs = self.mediator.specs
                unknown = set(names) - set(specs)
                if unknown:
                    raise TranslationError(
                        f"translate: unknown sources {sorted(unknown)}"
                    )
                cache = self.mediator.translation_cache
                out: "dict[str, TranslationResult]" = {}
                for name in names:
                    spec = specs[name]
                    spec.compiled_index()
                    # _prepare already normalized and fingerprinted the query.
                    if cache is None:
                        from repro.core.tdqm import tdqm_translate

                        out[name] = tdqm_translate(prepared, spec)
                    else:
                        out[name] = cache.tdqm_prepared(prepared, fingerprint, spec)
                return out

    def mediate(
        self, query: "Query | str", *, strict: bool | None = None
    ) -> "MediatedAnswer":
        """Answer one query through the full Eq. 2 pipeline.

        Every request scans its sources itself; the mediation plan (the
        per-source translations, the residue filter, its compiled
        predicate) comes from the shared cache, built once per query.
        """
        info: dict = {}
        with self._admitted_request("mediate", info):
            prepared, fingerprint = self._prepare(query)
            info["fingerprint"] = fingerprint
            if isinstance(query, str):
                info["query"] = query
            with self._execution_slot(), obs.span("serve.mediate"):
                return self.mediator.answer_mediated(prepared, strict=strict)

    def translate_batch(
        self,
        queries: Sequence["Query | str"],
        sources: Sequence[str] | None = None,
    ) -> "list[dict[str, TranslationResult]]":
        """Translate many queries under one admission slot (batch path).

        Routes through the shared cache's batch API, so normalization
        and fingerprints are computed once per query and compiled rule
        indexes once per specification.
        """
        with self._admitted_request("batch"), self._execution_slot():
            with obs.span("serve.batch", queries=len(queries)):
                return self.mediator.translate_many(list(queries), sources=sources)

    # -- hot reload -----------------------------------------------------------

    def reload_spec(self, new_spec) -> dict:
        """Atomically swap one specification under the running service.

        Every source currently served through a spec named
        ``new_spec.name`` is repointed at ``new_spec``: the mediator's
        spec table is *replaced wholesale* (never mutated in place), so
        a request that already captured the old table — or the old spec
        object itself — completes against the rule set it started with,
        while every request admitted after the swap sees only the new
        one.  The new spec's rule closures are compiled *before* the
        swap and the shared :class:`~repro.perf.TranslationCache`
        sections for the spec are invalidated after it (entries keyed
        under the old digest are unreachable either way;
        invalidation reclaims their slots eagerly and keeps the
        counters exact).

        A reload to an identical rule set (same
        :attr:`~repro.rules.MappingSpecification.content_digest`) is a
        no-op that preserves cache warmth.  Returns a report dict;
        raises :class:`VocabMapError` when no served source uses a spec
        of that name.
        """
        with self._reload_lock:
            specs = self.mediator.specs
            sources = sorted(
                source for source, spec in specs.items() if spec.name == new_spec.name
            )
            if not sources:
                served = sorted({spec.name for spec in specs.values()})
                raise VocabMapError(
                    f"reload: no served source uses specification "
                    f"{new_spec.name!r}; serving {served}"
                )
            old_spec = specs[sources[0]]
            report = {
                "spec": new_spec.name,
                "sources": sources,
                "previous_digest": old_spec.content_digest,
                "digest": new_spec.content_digest,
                "rules": len(new_spec.rules),
            }
            if old_spec.content_digest == new_spec.content_digest:
                report.update(changed=False, invalidated=0)
                return report
            new_spec.compiled_index().precompile()
            replacement = dict(specs)
            for source in sources:
                replacement[source] = new_spec
            # The swap: one attribute store, atomic under the GIL.
            self.mediator.specs = replacement
            cache = self.mediator.translation_cache
            invalidated = cache.invalidate(new_spec.name) if cache is not None else 0
            with self._lock:
                self._reloads += 1
            obs.count("serve.reloads")
            report.update(changed=True, invalidated=invalidated)
            return report

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        """Exact service counters plus the shared cache's snapshot."""
        with self._lock:
            completed = self._completed
            snapshot = {
                "requests": self._requests,
                "completed": completed,
                "rejected": self._rejected,
                "errors": self._errors,
                "reloads": self._reloads,
                "in_flight": self._admitted,
                "queue_high_water": self._queue_high_water,
                "latency_mean_ms": round(
                    (self._latency_total / completed) * 1e3, 3
                ) if completed else 0.0,
                "latency_max_ms": round(self._latency_max * 1e3, 3),
                "max_concurrency": self.config.max_concurrency,
                "queue_depth": self.config.queue_depth,
            }
        cache = self.mediator.translation_cache
        snapshot["cache"] = cache.stats.to_dict() if cache is not None else None
        return snapshot

    def _require_metrics(self) -> "MetricsRegistry":
        if self.metrics is None:
            raise VocabMapError(
                "continuous telemetry is disabled; "
                "construct MediationService(metrics=...) or run "
                "`repro serve --metrics`"
            )
        return self.metrics

    def metrics_snapshot(self) -> dict:
        """The full registry snapshot, with cache gauges refreshed.

        Counters/histograms accumulate continuously via the obs tee;
        cache *effectiveness* (hit rate, occupancy) is a derived ratio,
        so it is computed here from the shared cache's exact stats and
        published as gauges at snapshot time.
        """
        registry = self._require_metrics()
        cache = self.mediator.translation_cache
        if cache is not None:
            stats = cache.stats.to_dict()
            registry.gauge("perf.cache.hit_rate", stats["hit_rate"])
            registry.gauge("perf.cache.size", stats["size"])
            registry.gauge("perf.cache.maxsize", stats["maxsize"])
        return registry.snapshot()

    def scorecards(self) -> list[dict]:
        """Per-source scorecards (latency percentiles, errors, breaker)."""
        return self._require_metrics().scorecards_snapshot()

    def slowlog(self, n: int = 10) -> list[dict]:
        """The ``n`` slowest query fingerprints seen so far, worst first."""
        return self._require_metrics().slowlog_top(n)

    def health(self) -> dict:
        """Cheap liveness summary; works with or without a registry.

        ``status`` is ``"ok"`` unless a source's circuit breaker is not
        closed (``"degraded"``) — the signal a load balancer or the
        ``repro top`` header needs without the full snapshot cost.
        """
        stats = self.stats()
        out = {
            "status": "ok",
            "metrics_enabled": self.metrics is not None,
            "in_flight": stats["in_flight"],
            "requests": stats["requests"],
            "rejected": stats["rejected"],
            "errors": stats["errors"],
            "sources": {},
        }
        if self.metrics is not None:
            out["uptime_seconds"] = round(self.metrics.uptime(), 3)
            for card in self.metrics.scorecards_snapshot():
                state = card["breaker_state"]
                out["sources"][card["source"]] = {
                    "breaker_state": state,
                    "error_rate": card["error_rate"],
                }
                if state is not None and state != "closed":
                    out["status"] = "degraded"
        return out
