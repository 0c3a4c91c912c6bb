"""repro.serve.snapshot: warm-start cache persistence and staleness.

The contract under test: a snapshot written from one cache restores into
a fresh cache such that every restored fingerprint answers **bit-
identically** to the original translation — unless the specification's
rule set changed in between, in which case the stale section must be
discarded wholesale (a restored-but-wrong translation would silently
corrupt every response for that fingerprint).
"""

from __future__ import annotations

import copy
import hashlib
import json
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import Rule
from repro.core.parser import parse_query
from repro.core.tdqm import tdqm_translate
from repro.mediator import bookstore_mediator
from repro.perf import TranslationCache
from repro.rules import MappingSpecification, spec_from_dict
from repro.serve import MediationService
from repro.serve.snapshot import (
    SNAPSHOT_FORMAT,
    SnapshotTimer,
    restore_snapshot,
    snapshot_payload,
    specs_by_name,
    write_snapshot,
)
from repro.workloads.generator import random_query, random_spec, vocabulary

ATTRS = vocabulary(8)

query_seeds = st.integers(min_value=0, max_value=10_000)
spec_seeds = st.integers(min_value=0, max_value=200)


#: One declarative payload.  ``edited`` changes one field of its rule
#: and nothing else — none of these edits touches the rule surface
#: (name, doc, patterns, condition count, static exactness).
PAYLOAD = {
    "name": "K_Amazon",
    "target": "Amazon",
    "rules": [
        {
            "name": "R_ln",
            "match": [{"attr": "ln", "op": "=", "bind": "L"}],
            "where": [{"cond": "value_is", "vars": ["L"]}],
            "let": [{"var": "N", "fn": "str", "args": ["$L"]}],
            "emit": {"attr": "author", "op": "=", "value": "$N"},
            "exact": True,
            "doc": "ln -> author",
        }
    ],
}

EDITS = {
    "emit": lambda rule: rule["emit"].update(attr="creator"),
    "let": lambda rule: rule["let"][0].update(fn="upper"),
    "where": lambda rule: rule["where"][0].update(cond="attr_is"),
}


def code_table_payload(key: object) -> dict:
    """A spec whose one rule maps ``code`` through the table ``{key: "hit"}``."""
    return {
        "name": "K_Amazon",
        "target": "Amazon",
        "rules": [
            {
                "name": "R_code",
                "match": [{"attr": "code", "op": "=", "bind": "C"}],
                "let": [{"var": "T", "table": {key: "hit"}, "key": "$C"}],
                "emit": {"attr": "t", "op": "=", "value": "$T"},
                "exact": True,
            }
        ],
    }


def edited(field: str) -> dict:
    payload = copy.deepcopy(PAYLOAD)
    EDITS[field](payload["rules"][0])
    return payload


def without_first_rule(spec: MappingSpecification) -> MappingSpecification:
    """The same-name spec with one rule fewer: a changed rule set."""
    return MappingSpecification(spec.name, spec.target, spec.rules[1:])


def warm(cache: TranslationCache, spec, seeds):
    """Translate one random query per seed through ``cache``."""
    queries = [
        random_query(ATTRS, seed=seed, n_constraints=5, max_depth=3) for seed in seeds
    ]
    return {q: cache.tdqm(q, spec) for q in queries}


def serving(cache: TranslationCache | None, *specs) -> SimpleNamespace:
    """The two attributes of a mediator a :class:`SnapshotTimer` reads."""
    return SimpleNamespace(
        specs={spec.target: spec for spec in specs}, translation_cache=cache
    )


class TestSpecDigest:
    def test_stable_across_identical_specs(self):
        assert (
            random_spec(ATTRS, pair_count=3, seed=7).content_digest
            == random_spec(ATTRS, pair_count=3, seed=7).content_digest
        )

    def test_sensitive_to_rule_removal(self):
        spec = random_spec(ATTRS, pair_count=3, seed=7)
        assert without_first_rule(spec).content_digest != spec.content_digest

    def test_sensitive_to_rule_addition(self):
        spec = random_spec(ATTRS, pair_count=3, seed=7)
        donor = random_spec(ATTRS, pair_count=1, seed=123).rules[0]
        donated = Rule(
            name="donated",
            patterns=donor.patterns,
            emit=donor.emit,
            conditions=donor.conditions,
            exact=donor.exact,
        )
        grown = MappingSpecification(spec.name, spec.target, (*spec.rules, donated))
        assert grown.content_digest != spec.content_digest

    @pytest.mark.parametrize("field", sorted(EDITS))
    def test_payload_edit_changes_digest(self, field):
        # The rule surface is unchanged; only the payload digest sees it.
        assert spec_from_dict(edited(field)).content_digest != (
            spec_from_dict(PAYLOAD).content_digest
        )

    def test_python_payload_digests_like_its_json(self):
        # A Python caller's tuples and sets load, and digest like the
        # JSON the same payload arrives as through the registry.
        assert spec_from_dict(json.loads(json.dumps(PAYLOAD))).content_digest == (
            spec_from_dict(PAYLOAD).content_digest
        )
        as_json = copy.deepcopy(PAYLOAD)
        as_json["rules"][0]["where"] = [
            {"cond": "attr_in", "var": "L", "allowed": ["isbn", "ln"]}
        ]
        pythonic = copy.deepcopy(as_json)
        pythonic["rules"] = tuple(pythonic["rules"])
        pythonic["rules"][0]["where"] = (
            {"cond": "attr_in", "var": "L", "allowed": {"ln", "isbn"}},
        )
        assert spec_from_dict(pythonic).content_digest == (
            spec_from_dict(as_json).content_digest
        )

    def test_payload_json_cannot_sort_still_loads(self):
        # Mixed-type table keys, from a Python caller: json cannot sort
        # them, and the payload still loads with a digest of its own.
        mixed = copy.deepcopy(PAYLOAD)
        mixed["rules"][0]["let"] = [
            {"var": "N", "table": {1: "one", "Clancy": "C"}, "key": "$L"}
        ]
        digest = spec_from_dict(mixed).content_digest
        assert digest == spec_from_dict(copy.deepcopy(mixed)).content_digest
        assert digest != spec_from_dict(PAYLOAD).content_digest

    def test_table_key_type_is_part_of_the_digest(self):
        # {1: "hit"} and {"1": "hit"} write the same JSON, but a `let`
        # table looks its key up by type: [code = 1] translates to
        # [t = "hit"] under the first and to true under the second.
        int_keyed, str_keyed = code_table_payload(1), code_table_payload("1")
        assert spec_from_dict(int_keyed).content_digest != (
            spec_from_dict(str_keyed).content_digest
        )
        query = parse_query("[code = 1]")
        assert str(tdqm_translate(query, spec_from_dict(int_keyed)).mapping) == '[t = "hit"]'
        assert str(tdqm_translate(query, spec_from_dict(str_keyed)).mapping) == "true"

    def test_str_keyed_payload_digests_as_its_json(self):
        # Every key a JSON payload can carry is a string; those digests
        # are the canonical JSON's, as before.
        payload = code_table_payload("1")
        canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
        assert spec_from_dict(payload).content_digest == hashlib.sha256(canonical).hexdigest()


class TestSnapshotRoundTrip:
    def test_restore_preserves_hits_bit_identically(self, tmp_path):
        spec = random_spec(ATTRS, pair_count=3, seed=1)
        source = TranslationCache()
        originals = warm(source, spec, range(6))
        path = tmp_path / "shard.json"
        report = write_snapshot(path, source, {spec.name: spec})
        assert report.entries > 0

        target = TranslationCache()
        restore = restore_snapshot(path, target, {spec.name: spec})
        assert restore.restored == report.entries
        assert restore.discarded_stale == 0

        for query, original in originals.items():
            hit = target.tdqm(query, spec)
            direct = tdqm_translate(query, spec)
            assert hit.mapping == original.mapping == direct.mapping
            assert hit.exact == original.exact
            assert hit.stats == original.stats
        # Every lookup above was answered from the restored entries.
        assert target.stats.hits == len(originals)
        assert target.stats.misses == 0

    def test_restore_skips_entries_already_present(self, tmp_path):
        spec = random_spec(ATTRS, pair_count=2, seed=2)
        cache = TranslationCache()
        warm(cache, spec, range(4))
        path = tmp_path / "shard.json"
        write_snapshot(path, cache, {spec.name: spec})
        restore = restore_snapshot(path, cache, {spec.name: spec})
        assert restore.restored == 0
        assert restore.skipped_present > 0

    def test_changed_rule_set_discards_section(self, tmp_path):
        spec = random_spec(ATTRS, pair_count=3, seed=3)
        cache = TranslationCache()
        warm(cache, spec, range(5))
        path = tmp_path / "shard.json"
        report = write_snapshot(path, cache, {spec.name: spec})

        changed = without_first_rule(spec)
        fresh = TranslationCache()
        restore = restore_snapshot(path, fresh, {changed.name: changed})
        assert restore.restored == 0
        assert restore.discarded_stale == report.entries
        assert restore.stale_specs == (spec.name,)
        assert fresh.stats.size == 0

    def test_emit_only_edit_discards_section(self, tmp_path):
        # A restart onto an edited payload must never serve the old
        # emission: the section goes, and the first lookup recomputes.
        spec = spec_from_dict(PAYLOAD)
        query = parse_query('[ln = "Clancy"]')
        cache = TranslationCache()
        cache.tdqm(query, spec)
        path = tmp_path / "shard.json"
        report = write_snapshot(path, cache, {spec.name: spec})
        assert report.entries == 1

        live = spec_from_dict(edited("emit"))
        fresh = TranslationCache()
        restore = restore_snapshot(path, fresh, {live.name: live})
        assert (restore.restored, restore.discarded_stale) == (0, 1)
        assert restore.stale_specs == (live.name,)
        answer = fresh.tdqm(query, live)
        assert answer.mapping == tdqm_translate(query, live).mapping
        assert "creator" in str(answer.mapping)
        assert fresh.stats.hits == 0

    def test_unknown_spec_sections_are_discarded(self, tmp_path):
        spec = random_spec(ATTRS, pair_count=2, seed=5)
        cache = TranslationCache()
        warm(cache, spec, range(3))
        path = tmp_path / "shard.json"
        report = write_snapshot(path, cache, {spec.name: spec})
        other = random_spec(ATTRS, pair_count=2, seed=6)
        restore = restore_snapshot(path, TranslationCache(), {other.name: other})
        assert restore.restored == 0
        assert restore.discarded_unknown == report.entries

    def test_limit_bounds_the_export(self, tmp_path):
        spec = random_spec(ATTRS, pair_count=2, seed=7)
        cache = TranslationCache()
        warm(cache, spec, range(8))
        path = tmp_path / "shard.json"
        report = write_snapshot(path, cache, {spec.name: spec}, limit=3)
        assert report.entries <= 3
        restore = restore_snapshot(path, TranslationCache(), {spec.name: spec})
        assert restore.restored == report.entries

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text(json.dumps({"kind": "something-else"}), encoding="utf-8")
        with pytest.raises(ValueError, match="not a"):
            restore_snapshot(path, TranslationCache(), {})
        path.write_text(
            json.dumps({"kind": "repro.serve.cache-snapshot", "format": 999}),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="format"):
            restore_snapshot(path, TranslationCache(), {})

    def test_payload_format_tag(self):
        payload, _ = snapshot_payload(TranslationCache(), {})
        assert payload["format"] == SNAPSHOT_FORMAT
        assert payload["kind"] == "repro.serve.cache-snapshot"


class TestSnapshotTimer:
    def test_stop_writes_final_snapshot(self, tmp_path):
        spec = random_spec(ATTRS, pair_count=2, seed=8)
        cache = TranslationCache()
        warm(cache, spec, range(3))
        path = tmp_path / "shard.json"
        timer = SnapshotTimer(path, serving(cache, spec), interval=0).start()
        assert not path.exists()  # interval 0: no periodic thread
        report = timer.stop()
        assert path.exists()
        assert report.entries > 0

    def test_write_now_is_atomic_on_disk(self, tmp_path):
        spec = random_spec(ATTRS, pair_count=2, seed=9)
        cache = TranslationCache()
        warm(cache, spec, range(2))
        path = tmp_path / "deep" / "shard.json"
        timer = SnapshotTimer(path, serving(cache, spec), interval=0)
        timer.write_now()
        assert path.exists()
        assert not path.with_name(path.name + ".tmp").exists()

    def test_rejects_negative_interval(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotTimer(tmp_path / "s.json", serving(TranslationCache()), interval=-1)

    def test_rejects_negative_limit(self, tmp_path):
        # A negative limit would slice off the coldest entries silently.
        with pytest.raises(ValueError, match="limit"):
            SnapshotTimer(tmp_path / "s.json", serving(TranslationCache()), limit=-1)

    def test_rejects_a_mediator_without_a_cache(self, tmp_path):
        with pytest.raises(ValueError, match="translation cache"):
            SnapshotTimer(tmp_path / "s.json", serving(None))


class TestConcurrentWrites:
    """The double-write race: periodic timer vs. final shutdown snapshot.

    Multiple writers hammering one snapshot path must never leave a
    torn/corrupt file behind (every observable file parses and restores)
    and must never collide on a shared temp name — each write stages in
    a unique temp file and lands via atomic rename, leaving no ``*.tmp``
    litter.
    """

    def test_concurrent_writers_never_corrupt_the_snapshot(self, tmp_path):
        spec = random_spec(ATTRS, pair_count=2, seed=11)
        cache = TranslationCache()
        warm(cache, spec, range(4))
        path = tmp_path / "shard.json"
        specs = {spec.name: spec}
        # One writer is the "timer", the rest are direct final-snapshot
        # writers — the exact SIGTERM-vs-periodic shape from worker.py.
        timer = SnapshotTimer(path, serving(cache, spec), interval=0)
        errors: list[str] = []
        stop = threading.Event()

        def write_direct() -> None:
            for _ in range(25):
                write_snapshot(path, cache, specs)

        def write_via_timer() -> None:
            for _ in range(25):
                timer.write_now()

        def read_loop() -> None:
            while not stop.is_set():
                if not path.exists():
                    continue
                try:
                    payload = json.loads(path.read_text(encoding="utf-8"))
                except Exception as exc:  # noqa: BLE001 - the bug under test
                    errors.append(f"torn read: {exc!r}")
                    return
                if payload.get("kind") != "repro.serve.cache-snapshot":
                    errors.append(f"foreign payload: {payload.get('kind')!r}")
                    return

        writers = [threading.Thread(target=write_direct) for _ in range(4)]
        writers.append(threading.Thread(target=write_via_timer))
        readers = [threading.Thread(target=read_loop) for _ in range(2)]
        for thread in writers + readers:
            thread.start()
        for thread in writers:
            thread.join(timeout=120.0)
        stop.set()
        for thread in readers:
            thread.join(timeout=30.0)

        assert errors == []
        assert [p.name for p in tmp_path.glob("*.tmp")] == []
        restore = restore_snapshot(path, TranslationCache(), specs)
        assert restore.restored > 0


class TestSnapshotTimerReload:
    def test_writes_follow_the_live_spec_table(self, tmp_path):
        service = MediationService(bookstore_mediator("amazon"))
        path = tmp_path / "shard.json"
        timer = SnapshotTimer(path, service.mediator, interval=0)
        service.translate('[ln = "Clancy"]')
        assert timer.write_now().entries == 1

        # After a hot reload the timer exports under the new spec's digest;
        # a copied table would skip the new entry as stale.
        replacement = spec_from_dict(PAYLOAD)
        assert service.reload_spec(replacement)["changed"] is True
        service.translate('[ln = "Clancy"]')
        report = timer.write_now()
        assert (report.entries, report.skipped_stale) == (1, 0)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["specs"]["K_Amazon"]["digest"] == replacement.content_digest


class TestSpecsByName:
    def test_rekeys_source_table_by_spec_name(self):
        from repro.obs.stats import builtin_mediator

        mediator = builtin_mediator({"K_Amazon"})
        assert mediator is not None
        assert set(mediator.specs) == {"Amazon"}
        assert set(specs_by_name(mediator.specs)) == {"K_Amazon"}


# ---------------------------------------------------------------------------
# Property: export -> import is lossless for fresh specs, lossy-by-design
# for changed ones.
# ---------------------------------------------------------------------------


@given(spec_seeds, st.sets(query_seeds, min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_round_trip_preserves_cache_hits_bit_identically(sseed, qseeds):
    spec = random_spec(ATTRS, pair_count=2, seed=sseed)
    source = TranslationCache()
    originals = warm(source, spec, sorted(qseeds))

    payload, report = snapshot_payload(source, {spec.name: spec})
    # The payload must survive JSON framing (what the file format does).
    payload = json.loads(json.dumps(payload, sort_keys=True))

    target = TranslationCache()
    restored = 0
    from repro.serve.snapshot import _restore_entry

    for section in payload["specs"].values():
        for entry in section["entries"]:
            if _restore_entry(target, spec, entry):
                restored += 1
    assert restored == report.entries

    for query, original in originals.items():
        hit = target.tdqm(query, spec)
        assert hit.mapping == original.mapping
        assert hit.exact == original.exact
        assert hit.stats == original.stats
    assert target.stats.misses == 0


@given(spec_seeds, st.sets(query_seeds, min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_round_trip_discards_entries_whose_spec_changed(tmp_path_factory, sseed, qseeds):
    spec = random_spec(ATTRS, pair_count=2, seed=sseed)
    cache = TranslationCache()
    warm(cache, spec, sorted(qseeds))
    path = tmp_path_factory.mktemp("snap") / "shard.json"
    report = write_snapshot(path, cache, {spec.name: spec})

    changed = without_first_rule(spec)
    fresh = TranslationCache()
    restore = restore_snapshot(path, fresh, {changed.name: changed})
    assert restore.restored == 0
    assert restore.discarded_stale == report.entries
    assert fresh.stats.size == 0
