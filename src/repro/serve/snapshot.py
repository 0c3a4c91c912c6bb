"""Warm-start cache snapshots: persist hot translations across restarts.

A long-lived worker accumulates a :class:`~repro.perf.TranslationCache`
working set worth far more than its memory cost — the ROADMAP's serving
target is many restarts (deploys, rebalances, crashes) against the same
query stream.  This module snapshots the hottest cached translations to
a JSON file and restores them on start, so a restarted worker answers
its first requests from cache instead of re-translating the whole
working set.  The cache's mediation plans are not exported (they hold
compiled closures); the first ``mediate`` of a query after a restart
rebuilds its plan from the restored translations.

Staleness is the whole problem: a snapshot written against yesterday's
rule set must never be served against today's.  Each section carries
the **content digest** of its specification
(:attr:`~repro.rules.MappingSpecification.content_digest`), the same
identity the cache keys on, and :func:`restore_snapshot` restores a
section only when the live specification's digest matches.  On a
mismatch the restore discards that specification's entries and counts
them in the :class:`RestoreReport`.

A specification loaded from a declarative payload digests the whole
payload, so any edit to it discards the section.  One built in Python
digests its rule surface (rule names, constraint patterns, docs, and
static exactness flags): a behavioral change hidden inside a rule's
emit/condition closures without any declarative change is not
detectable — rename the rule (or touch its doc) when changing rule
semantics, exactly as the vocabulary-lifecycle workflow prescribes.

Snapshot files are written atomically (temp file + ``os.replace``) so a
crash mid-write leaves the previous snapshot intact, and every restore
validates the format tag before touching the cache.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.json_io import query_from_json, query_to_json
from repro.core.tdqm import TdqmStats, TranslationResult
from repro.obs import trace as obs
from repro.perf.cache import TranslationCache
from repro.rules.spec import MappingSpecification

if TYPE_CHECKING:
    from repro.mediator.mediator import Mediator

__all__ = [
    "SNAPSHOT_FORMAT",
    "RestoreReport",
    "SnapshotReport",
    "SnapshotTimer",
    "restore_snapshot",
    "snapshot_payload",
    "specs_by_name",
    "write_snapshot",
]

#: Bump when the payload layout changes; restores reject other formats.
SNAPSHOT_FORMAT = 1

_KIND = "repro.serve.cache-snapshot"

#: Per-target-path write locks: two writers racing on one snapshot path
#: (the periodic timer vs. a signal-triggered final export, or any direct
#: caller) serialize here instead of interleaving temp-file writes.
_WRITE_LOCKS: dict[str, threading.Lock] = {}
_WRITE_LOCKS_GUARD = threading.Lock()


def _path_lock(target: Path) -> threading.Lock:
    key = str(target)
    with _WRITE_LOCKS_GUARD:
        lock = _WRITE_LOCKS.get(key)
        if lock is None:
            lock = _WRITE_LOCKS[key] = threading.Lock()
        return lock


def specs_by_name(
    specs: Mapping[str, MappingSpecification],
) -> dict[str, MappingSpecification]:
    """Re-key a mediator's spec table by *specification* name.

    :attr:`~repro.mediator.Mediator.specs` is keyed by **source** name
    (``"Amazon"``), but cache keys — and therefore snapshot sections —
    carry the specification's own name (``"K_Amazon"``).  Every snapshot
    call site wants this mapping.
    """
    return {spec.name: spec for spec in specs.values()}


@dataclass(frozen=True)
class SnapshotReport:
    """Outcome of one :func:`write_snapshot` / :func:`snapshot_payload`."""

    path: str | None
    entries: int
    specs: int
    #: Entries skipped because their key's digest no longer matches the
    #: live specification (logically dead weight) or names a
    #: specification the caller did not supply.
    skipped_stale: int
    skipped_unknown: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RestoreReport:
    """Outcome of one :func:`restore_snapshot`."""

    path: str
    restored: int
    #: Per-spec discards: digest mismatch (the rule set changed since
    #: the snapshot) and specs the live mediator does not serve.
    discarded_stale: int
    discarded_unknown: int
    #: Entries whose key was already live in the cache (restore never
    #: overwrites newer state).
    skipped_present: int
    stale_specs: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = asdict(self)
        out["stale_specs"] = list(self.stale_specs)
        return out


def snapshot_payload(
    cache: TranslationCache,
    specs: Mapping[str, MappingSpecification],
    *,
    limit: int | None = None,
) -> tuple[dict, SnapshotReport]:
    """The JSON payload for the hottest ``limit`` translations of ``cache``.

    Only entries keyed under each live specification's digest are
    exported — anything else is unreachable garbage awaiting eviction,
    not state worth persisting.  Mediation plans are never exported and
    count as neither stale nor unknown.
    """
    sections: dict[str, dict] = {}
    entries = 0
    skipped_stale = 0
    skipped_unknown = 0
    for key, value in cache.export_entries(limit):
        algo, spec_name, digest, fingerprint = key
        spec = specs.get(spec_name)
        if spec is None:
            skipped_unknown += 1
            continue
        if digest != spec.content_digest or not isinstance(value, TranslationResult):
            skipped_stale += 1
            continue
        section = sections.setdefault(
            spec_name, {"digest": spec.content_digest, "entries": []}
        )
        section["entries"].append(
            {
                "algo": algo,
                "fingerprint": fingerprint,
                "mapping": query_to_json(value.mapping),
                "exact": value.exact,
                "stats": asdict(value.stats),
            }
        )
        entries += 1
    payload = {
        "format": SNAPSHOT_FORMAT,
        "kind": _KIND,
        "created": time.time(),
        "specs": sections,
    }
    report = SnapshotReport(
        path=None,
        entries=entries,
        specs=len(sections),
        skipped_stale=skipped_stale,
        skipped_unknown=skipped_unknown,
    )
    return payload, report


def write_snapshot(
    path: str | os.PathLike[str],
    cache: TranslationCache,
    specs: Mapping[str, MappingSpecification],
    *,
    limit: int | None = None,
) -> SnapshotReport:
    """Atomically write a snapshot of ``cache`` to ``path``.

    The payload lands in a *uniquely named* sibling temp file first and
    is moved into place with ``os.replace``, so readers never observe a
    torn file and a crash mid-write preserves the previous snapshot.
    Concurrent writers to the same target serialize on a per-path lock —
    a fixed temp name would let two writers (e.g. the periodic
    :class:`SnapshotTimer` racing a signal-triggered final export)
    truncate each other's temp file between write and rename.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with _path_lock(target), obs.span("serve.snapshot.write", path=str(target)):
        payload, report = snapshot_payload(cache, specs, limit=limit)
        fd, temp_name = tempfile.mkstemp(
            dir=str(target.parent), prefix=target.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(payload, sort_keys=True) + "\n")
            os.replace(temp_name, target)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
    obs.count("serve.snapshot.writes")
    obs.count("serve.snapshot.exported_entries", report.entries)
    return SnapshotReport(
        path=str(target),
        entries=report.entries,
        specs=report.specs,
        skipped_stale=report.skipped_stale,
        skipped_unknown=report.skipped_unknown,
    )


def _restore_entry(
    cache: TranslationCache, spec: MappingSpecification, entry: dict
) -> bool:
    result = TranslationResult(
        mapping=query_from_json(entry["mapping"]),
        exact=bool(entry["exact"]),
        stats=TdqmStats(**entry["stats"]),
    )
    key = (entry["algo"], spec.name, spec.content_digest, entry["fingerprint"])
    return cache.import_entry(key, result)


def restore_snapshot(
    path: str | os.PathLike[str],
    cache: TranslationCache,
    specs: Mapping[str, MappingSpecification],
) -> RestoreReport:
    """Restore a snapshot into ``cache``, discarding stale sections.

    Entries are keyed under each live specification's digest, exactly
    as the cache keys its own, so the normal invalidation machinery
    applies from the moment they land.  A section whose digest no longer
    matches the live rule set is discarded and reported in
    :attr:`RestoreReport.stale_specs`.
    """
    source = Path(path)
    raw = json.loads(source.read_text(encoding="utf-8"))
    if not isinstance(raw, dict) or raw.get("kind") != _KIND:
        raise ValueError(f"{source}: not a {_KIND} file")
    if raw.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(
            f"{source}: snapshot format {raw.get('format')!r} is not "
            f"the supported format {SNAPSHOT_FORMAT}"
        )
    restored = 0
    discarded_stale = 0
    discarded_unknown = 0
    skipped_present = 0
    stale_specs: list[str] = []
    with obs.span("serve.snapshot.restore", path=str(source)):
        for spec_name, section in sorted(raw.get("specs", {}).items()):
            entries = section.get("entries", [])
            spec = specs.get(spec_name)
            if spec is None:
                discarded_unknown += len(entries)
                continue
            if section.get("digest") != spec.content_digest:
                discarded_stale += len(entries)
                stale_specs.append(spec_name)
                continue
            for entry in entries:
                if _restore_entry(cache, spec, entry):
                    restored += 1
                else:
                    skipped_present += 1
    obs.count("serve.snapshot.restores")
    obs.count("serve.snapshot.restored_entries", restored)
    if discarded_stale:
        obs.count("serve.snapshot.discarded_stale", discarded_stale)
    return RestoreReport(
        path=str(source),
        restored=restored,
        discarded_stale=discarded_stale,
        discarded_unknown=discarded_unknown,
        skipped_present=skipped_present,
        stale_specs=tuple(stale_specs),
    )


class SnapshotTimer:
    """Periodic + on-stop snapshots of one mediator's cache, on a daemon thread.

    Both the cluster workers and single-process ``repro serve
    --snapshot-dir`` use this: start it after restoring, stop it on
    shutdown (the stop writes a final snapshot, so a clean exit always
    persists the freshest working set).  An ``interval`` of zero disables
    the periodic timer but keeps the final on-stop snapshot.

    Each write reads the mediator's cache and its live spec table, so
    after a hot reload the timer exports under the new spec's digest and
    holds no reference to the retired one.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        mediator: "Mediator",
        *,
        interval: float = 30.0,
        limit: int | None = None,
    ):
        if interval < 0:
            raise ValueError(f"snapshot interval must be >= 0, got {interval}")
        if limit is not None and limit < 0:
            raise ValueError(f"snapshot limit must be >= 0, got {limit}")
        if mediator.translation_cache is None:
            raise ValueError("snapshots need a mediator with a translation cache")
        self.path = Path(path)
        self.mediator = mediator
        self.interval = interval
        self.limit = limit
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def write_now(self) -> SnapshotReport:
        """Write one snapshot now; :func:`write_snapshot` serializes writers per path."""
        cache = self.mediator.translation_cache
        assert cache is not None  # checked at construction
        return write_snapshot(
            self.path, cache, specs_by_name(self.mediator.specs), limit=self.limit
        )

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.write_now()

    def start(self) -> "SnapshotTimer":
        if self.interval > 0 and self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="snapshot-timer", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> SnapshotReport:
        """Stop the timer and write the final snapshot."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        return self.write_now()
