"""LRU translation cache — memoized whole-query translations and plans.

A mediator serving heavy traffic re-translates the same canonical
queries against the same specifications constantly.  Translation is pure
(a function of the normalized query and the specification's rule set),
so whole results can be memoized:

* **Key** — ``(algorithm, specification name, content digest, query
  fingerprint)``; the algorithm tag is always ``"tdqm"``.  A
  specification is immutable and its content digest
  (:attr:`~repro.rules.MappingSpecification.content_digest`) is its
  identity, the same in every process, so a different rule set (a
  hot-reloaded replacement, another worker's spec) always lands on
  different keys.  The fingerprint collapses ∧/∨ commutativity and join
  orientation (see :mod:`repro.perf.fingerprint`).
* **Value** — the full :class:`~repro.core.tdqm.TranslationResult`,
  shared by reference (results are immutable in practice: never mutate
  a cached result).
* **Eviction** — least-recently-used beyond ``maxsize`` entries.

The same LRU holds **mediation plans** (:meth:`TranslationCache.plan`):
everything of Eq. 2 except the source rows, which is a pure function of
the query and the served specifications.  A plan key is ``("plan",
mediator scope, ((source, spec name, content digest), ...),
fingerprint)``.  Plans share ``maxsize`` and the counters with
translations; :meth:`~TranslationCache.invalidate` drops every plan
whose key names the spec, and :meth:`~TranslationCache.export_entries`
(the snapshot source) skips plans — they hold compiled closures and are
rebuilt from the warm translations on their first request.

The cache is **thread-safe**: an internal :class:`threading.RLock`
guards the LRU order, the counters, and eviction, so one cache can be
shared by a resilient mediator's fan-out pool and by
:class:`repro.serve.MediationService` client threads.  Concurrent
misses on the *same* key are **single-flighted**: the first thread (the
leader) runs the translation while the others wait and receive the
identical result object — N concurrent misses cost one translation,
not N.  A follower counts as a hit (it was served from the in-flight
computation), so ``hits + misses == lookups`` holds exactly under any
interleaving.

Counters (``perf.cache.hits`` / ``misses`` / ``evictions`` /
``invalidations`` / ``coalesced``) are exported through :mod:`repro.obs`
whenever a tracer is active, and are always available locally via
:attr:`TranslationCache.stats`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, TypeVar

from repro.core.ast import Query
from repro.core.normalize import normalize
from repro.obs import trace as obs
from repro.perf.fingerprint import query_fingerprint
from repro.rules.spec import MappingSpecification

if TYPE_CHECKING:
    from repro.core.tdqm import TranslationResult

__all__ = ["CacheStats", "TranslationCache", "translate_batch"]

#: Translation key: ("tdqm", spec name, spec content digest, query fingerprint);
#: plan key: ("plan", scope, ((source, spec name, digest), ...), fingerprint).
_Key = tuple

_PLAN = "plan"

_MISS = object()

_T = TypeVar("_T")


class _InFlight:
    """One in-progress computation: the leader resolves, followers wait."""

    __slots__ = ("_done", "_value", "_error")

    def __init__(self) -> None:
        self._done = threading.Event()
        self._value: object = None
        self._error: BaseException | None = None

    def resolve(self, value: object) -> None:
        self._value = value
        self._done.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def wait(self) -> object:
        self._done.wait()
        if self._error is not None:
            raise self._error
        return self._value


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache's counters."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    maxsize: int
    #: Lookups served by joining another thread's in-flight translation
    #: (a subset of ``hits``).
    coalesced: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return 0.0 if total == 0 else self.hits / total

    def to_dict(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "coalesced": self.coalesced,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": round(self.hit_rate, 4),
        }


class TranslationCache:
    """An LRU memo of whole translations and mediation plans (see module docstring).

    One cache may serve any number of specifications; keys embed the
    specification name *and* content digest, so a replaced rule set
    invalidates logically (its entries become unreachable) while
    :meth:`invalidate` reclaims the memory eagerly.  All public entry
    points are thread-safe, and concurrent misses on one key run a
    single translation (single-flight).
    """

    def __init__(self, maxsize: int = 1024):
        if maxsize < 1:
            raise ValueError(f"TranslationCache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.RLock()
        self._entries: OrderedDict[_Key, object] = OrderedDict()
        self._inflight: dict[_Key, _InFlight] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._coalesced = 0

    # -- bookkeeping -----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        """A consistent snapshot of hit/miss/eviction/size counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                size=len(self._entries),
                maxsize=self.maxsize,
                coalesced=self._coalesced,
            )

    def invalidate(self, spec: MappingSpecification | str | None = None) -> int:
        """Eagerly drop entries for ``spec`` (by name), or all when ``None``.

        Digest-keyed entries of a replaced rule set are already
        unreachable; this reclaims their slots.  The entries of a spec
        are its translations and every plan whose key names it.  Returns
        the number of entries dropped.
        """
        with self._lock:
            if spec is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                name = spec if isinstance(spec, str) else spec.name
                stale = [key for key in self._entries if _filed_under(key, name)]
                for key in stale:
                    del self._entries[key]
                dropped = len(stale)
            self._invalidations += dropped
        if dropped:
            obs.count("perf.cache.invalidations", dropped)
        return dropped

    # -- the LRU core ----------------------------------------------------------

    def _store_locked(self, key: _Key, value: object) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self._evictions += 1
            obs.count("perf.cache.evictions")

    def _get_or_compute(self, key: _Key, compute: Callable[[], object]) -> object:
        """Hit, join an in-flight computation, or lead one (single-flight).

        Exactly one thread (the leader) runs ``compute`` per concurrent
        key; followers block until it resolves and receive the identical
        object.  The leader counts the miss, each follower counts a hit
        (plus ``perf.cache.coalesced``), so ``hits + misses == lookups``.
        A failed computation propagates to the leader *and* every
        follower, and is not cached.
        """
        leader = False
        with self._lock:
            entry = self._entries.get(key, _MISS)
            if entry is not _MISS:
                self._entries.move_to_end(key)
                self._hits += 1
                obs.count("perf.cache.hits")
                return entry
            flight = self._inflight.get(key)
            if flight is None:
                leader = True
                flight = self._inflight[key] = _InFlight()
                self._misses += 1
                obs.count("perf.cache.misses")
            else:
                # Follower: served by the leader's in-flight translation.
                self._hits += 1
                self._coalesced += 1
                obs.count("perf.cache.hits")
                obs.count("perf.cache.coalesced")
        if not leader:
            return flight.wait()
        try:
            value = compute()
        except BaseException as exc:
            with self._lock:
                self._inflight.pop(key, None)
            flight.fail(exc)
            raise
        with self._lock:
            self._store_locked(key, value)
            self._inflight.pop(key, None)
        flight.resolve(value)
        return value

    # -- export / import (snapshot support) ------------------------------------

    def export_entries(self, limit: int | None = None) -> list[tuple[_Key, object]]:
        """The hottest translation entries, most-recently-used first.

        The snapshot layer (:mod:`repro.serve.snapshot`) persists these
        so a restarted worker starts warm.  Plans are not exported: they
        hold compiled closures, and a restarted worker rebuilds each from
        the restored translations on its first request.  ``limit`` bounds
        the export to the hottest translations.  The export is a
        consistent point-in-time copy: keys and value references are
        captured under the cache lock, and cached values are immutable by
        contract.
        """
        with self._lock:
            items = [item for item in self._entries.items() if item[0][0] != _PLAN]
        items.reverse()  # OrderedDict iterates cold-first; snapshots want hot-first
        return items if limit is None else items[:limit]

    def import_entry(self, key: _Key, value: object) -> bool:
        """Seed one entry without touching the hit/miss counters.

        Restores from a snapshot must not distort the serving
        statistics, so an import is neither a hit nor a miss (evictions
        beyond ``maxsize`` still count — they are real).  An entry
        already present wins over the import (the live entry is newer);
        returns whether the entry was stored.
        """
        with self._lock:
            if key in self._entries:
                return False
            self._store_locked(key, value)
            return True

    # -- cached translation entry points --------------------------------------

    def tdqm(self, query: Query, spec: MappingSpecification) -> "TranslationResult":
        """Cached :func:`repro.core.tdqm.tdqm_translate` for ``query``."""
        prepared = normalize(query)
        return self.tdqm_prepared(
            prepared, query_fingerprint(prepared, normalized=True), spec
        )

    def tdqm_prepared(
        self, normalized_query: Query, fingerprint: str, spec: MappingSpecification
    ) -> "TranslationResult":
        """Cached TDQM where the caller pre-normalized and fingerprinted.

        The batch path uses this to share normalization and fingerprinting
        across every specification a query is translated for.
        """
        from repro.core.tdqm import tdqm_translate

        key = ("tdqm", spec.name, spec.content_digest, fingerprint)
        return self._get_or_compute(  # type: ignore[return-value]
            key, lambda: tdqm_translate(normalized_query, spec)
        )

    def plan(
        self,
        scope: object,
        specs: Mapping[str, MappingSpecification],
        fingerprint: str,
        build: Callable[[], _T],
    ) -> _T:
        """The mediation plan for ``fingerprint``, built once per key.

        ``scope`` names the mediator (plans also depend on its views,
        view virtuals and sources), ``specs`` is the source → spec table
        the plan is built from.  A plan lookup counts like a translation
        lookup, is single-flighted the same way, and a ``build`` that
        raises stores nothing.
        """
        served = tuple(
            (source, spec.name, spec.content_digest)
            for source, spec in sorted(specs.items())
        )
        return self._get_or_compute(  # type: ignore[return-value]
            (_PLAN, scope, served, fingerprint), build
        )


def _filed_under(key: _Key, name: str) -> bool:
    """Is ``key`` filed under the spec called ``name``?"""
    if key[0] == _PLAN:
        return any(spec_name == name for _, spec_name, _ in key[2])
    return key[1] == name


def translate_batch(
    queries: Sequence[Query],
    specs: Mapping[str, MappingSpecification],
    cache: TranslationCache | None = None,
) -> "list[dict[str, TranslationResult]]":
    """Translate many queries for many specifications, sharing the setup.

    Normalization and fingerprinting run once per query (not once per
    (query, spec) pair), each specification's compiled rule index is
    built once up front, and all translations funnel through one
    :class:`TranslationCache` — so duplicate queries in the batch, and
    queries seen by an earlier batch using the same cache, cost a lookup.

    Returns one ``{spec name: TranslationResult}`` dict per input query,
    in input order.
    """
    cache = cache if cache is not None else TranslationCache()
    with obs.span("translate_batch", queries=len(queries), specs=len(specs)):
        prepared = [normalize(query) for query in queries]
        fingerprints = [query_fingerprint(q, normalized=True) for q in prepared]
        out: list[dict[str, TranslationResult]] = [{} for _ in prepared]
        for name in sorted(specs):
            spec = specs[name]
            spec.compiled_index()  # build once, before the query loop
            for i, (query, fingerprint) in enumerate(zip(prepared, fingerprints)):
                out[i][name] = cache.tdqm_prepared(query, fingerprint, spec)
        return out
