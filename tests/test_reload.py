"""Hot reload: MediationService.reload_spec, the reload op, and the
live-mutation bug sweep.

The contracts under test:

* :meth:`MediationService.reload_spec` atomically swaps a spec under a
  running service — new answers afterwards, exact invalidation
  counters, a no-op when the content digest is unchanged, and a
  :class:`VocabMapError` when no served source matches.
* The ``reload`` protocol op accepts inline specs and registry
  directories and returns one report per swapped spec.
* Regression (same-name collision): cache keys carry the content
  digest, the spec's only identity, so a same-name spec with different
  rules — or a payload edited only in its ``emit`` — can never be
  answered from another spec's cached translation.
* Regression (retired-spec pinning): after a reload the swapped-out
  spec — rule closures, compiled index, memos — is freed by refcounting
  alone, with no reference cycle for the garbage collector to find.
* Acceptance: 16 concurrent TCP clients across repeated
  publish/rollback/reload cycles lose zero responses and every response
  is bit-identical to a reference answer from exactly one spec version
  — never a blend.
"""

from __future__ import annotations

import copy
import gc
import itertools
import json
import socket
import threading
import weakref

import pytest

from repro.core.errors import VocabMapError
from repro.core.parser import parse_query
from repro.core.tdqm import tdqm_translate
from repro.obs.stats import builtin_mediator
from repro.perf import TranslationCache
from repro.registry import SpecRegistry
from repro.rules.declarative import spec_from_dict
from repro.serve import (
    MediationService,
    ServiceConfig,
    handle_line,
    resolve_reload_specs,
    serve_tcp,
)

QUERY = '[ln = "Clancy"]'

#: ``ln`` maps to ``author-word`` — distinguishable from the built-in
#: K_Amazon (``author``) and from WIDE below.
WORD = {
    "name": "K_Amazon",
    "target": "Amazon",
    "rules": [
        {
            "name": "V1",
            "match": [{"attr": "ln", "op": "=", "bind": "L"}],
            "where": [{"cond": "value_is", "vars": ["L"]}],
            "emit": {"attr": "author-word", "op": "=", "value": "$L"},
            "exact": True,
            "doc": "variant: ln -> author-word",
        },
        {
            "name": "V2",
            "match": [{"attr": "publisher", "op": "=", "bind": "N"}],
            "where": [{"cond": "value_is", "vars": ["N"]}],
            "emit": {"attr": "publisher", "op": "=", "value": "$N"},
            "exact": True,
            "doc": "variant: publisher rename",
        },
    ],
}

#: ``ln`` maps to plain ``author`` and the publisher rule is gone.
WIDE = {
    "name": "K_Amazon",
    "target": "Amazon",
    "rules": [
        {
            "name": "V1",
            "match": [{"attr": "ln", "op": "=", "bind": "L"}],
            "where": [{"cond": "value_is", "vars": ["L"]}],
            "emit": {"attr": "author", "op": "=", "value": "$L"},
            "exact": True,
            "doc": "variant2: ln -> author",
        }
    ],
}


def emit_edit(payload: dict, attr: str) -> dict:
    """``payload`` with its first rule emitting ``attr``, and no other change."""
    edited = copy.deepcopy(payload)
    edited["rules"][0]["emit"]["attr"] = attr
    return edited


def make_service(**overrides) -> MediationService:
    mediator = builtin_mediator({"K_Amazon"})
    assert mediator is not None
    return MediationService(mediator, ServiceConfig(**overrides))


def answer(service: MediationService, query: str = QUERY) -> str:
    return service.translate(query)["Amazon"].mapping and str(
        service.translate(query)["Amazon"].mapping
    )


class TestReloadSpec:
    def test_reload_changes_subsequent_answers(self):
        service = make_service()
        before = str(service.translate(QUERY)["Amazon"].mapping)
        report = service.reload_spec(spec_from_dict(WORD))
        after = str(service.translate(QUERY)["Amazon"].mapping)
        assert report["changed"] is True
        assert report["sources"] == ["Amazon"]
        assert before != after
        assert "author-word" in after

    def test_emit_only_edit_is_a_change(self):
        # The edit leaves every rule name, doc and pattern alone; only
        # the payload digest tells the two specs apart.
        service = make_service()
        service.reload_spec(spec_from_dict(WIDE))
        assert "author" in answer(service)
        report = service.reload_spec(spec_from_dict(emit_edit(WIDE, "creator")))
        assert report["changed"] is True
        assert report["digest"] != report["previous_digest"]
        assert answer(service) == '[creator = "Clancy"]'

    def test_table_key_type_edit_is_a_change(self):
        # The two payloads write the same JSON; only the table key's type
        # differs, and with it the answer to [code = 1].
        def payload(key: object) -> dict:
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

        service = make_service()
        service.reload_spec(spec_from_dict(payload(1)))
        assert answer(service, "[code = 1]") == '[t = "hit"]'
        report = service.reload_spec(spec_from_dict(payload("1")))
        assert report["changed"] is True
        assert report["digest"] != report["previous_digest"]
        assert str(service.translate("[code = 1]")["Amazon"].mapping) == "true"

    def test_same_digest_reload_is_a_noop_preserving_cache(self):
        service = make_service()
        service.reload_spec(spec_from_dict(WORD))
        service.translate(QUERY)
        cache = service.mediator.translation_cache
        size_before = cache.stats.size
        report = service.reload_spec(spec_from_dict(copy.deepcopy(WORD)))
        assert report["changed"] is False
        assert report["invalidated"] == 0
        assert cache.stats.size == size_before
        # The warmed entry still answers from cache.
        hits = cache.stats.hits
        service.translate(QUERY)
        assert cache.stats.hits == hits + 1

    def test_unknown_spec_name_raises_and_names_the_served_set(self):
        service = make_service()
        ghost = dict(WIDE, name="K_Ghost")
        with pytest.raises(VocabMapError, match="K_Ghost.*K_Amazon"):
            service.reload_spec(spec_from_dict(ghost))

    def test_invalidation_counter_is_exact(self):
        service = make_service()
        cache = service.mediator.translation_cache
        queries = [QUERY, '[ln = "King"]', '[publisher = "X"]']
        for query in queries:
            service.translate(query)
        warmed = cache.stats.size
        assert warmed == len(queries)
        invalidations_before = cache.stats.invalidations
        report = service.reload_spec(spec_from_dict(WORD))
        assert report["invalidated"] == warmed
        assert cache.stats.invalidations - invalidations_before == warmed

    def test_reload_counts_into_stats(self):
        service = make_service()
        assert service.stats()["reloads"] == 0
        service.reload_spec(spec_from_dict(WORD))
        assert service.stats()["reloads"] == 1
        # A digest no-op does not count.
        service.reload_spec(spec_from_dict(copy.deepcopy(WORD)))
        assert service.stats()["reloads"] == 1

    def test_request_holding_the_old_spec_completes_against_it(self):
        # The swap replaces the table; a caller that captured the old
        # spec object keeps translating under the old rules, fresh index
        # and all.
        service = make_service()
        old_spec = service.mediator.specs["Amazon"]
        service.reload_spec(spec_from_dict(WORD))
        result = tdqm_translate(parse_query(QUERY), old_spec)
        assert "author-word" not in str(result.mapping)

    def test_request_admitted_after_reload_gets_the_new_spec(self):
        # Translate A is held inside its cache lookup, under the old
        # spec, across a reload.  Translate B of the same query, admitted
        # after reload_spec returned, must not wait for A or share its
        # answer: it translates under the new rules.
        service = make_service()
        cache = service.mediator.translation_cache
        real = cache.tdqm_prepared
        calls = itertools.count()
        entered = threading.Event()
        release = threading.Event()

        def held(*args):
            if next(calls) == 0:
                entered.set()
                release.wait(timeout=10.0)
            return real(*args)

        cache.tdqm_prepared = held  # the instance attribute shadows the method
        mappings: dict[str, object] = {}

        def translate(label: str) -> None:
            mappings[label] = service.translate(QUERY)["Amazon"].mapping

        first = threading.Thread(target=translate, args=("A",))
        first.start()
        try:
            assert entered.wait(timeout=10.0)
            new_spec = spec_from_dict(WORD)
            service.reload_spec(new_spec)
            second = threading.Thread(target=translate, args=("B",))
            second.start()
            second.join(timeout=5.0)
            assert not second.is_alive(), "B waited for the request admitted before the swap"
            assert "A" not in mappings  # A is still held
            assert mappings["B"] == tdqm_translate(parse_query(QUERY), new_spec).mapping
        finally:
            release.set()
            first.join(timeout=10.0)
        assert not first.is_alive()
        assert "author-word" not in str(mappings["A"])  # A kept the rules it started with


class TestReloadProtocol:
    def test_reload_with_inline_spec(self):
        service = make_service()
        line = json.dumps({"id": 1, "op": "reload", "spec": WORD})
        response = json.loads(handle_line(service, line))
        assert response["ok"] is True
        assert response["id"] == 1
        (report,) = response["reload"]
        assert report["spec"] == "K_Amazon"
        assert report["changed"] is True

    def test_reload_op_with_emit_only_edit_answers_the_new_mapping(self):
        service = make_service()
        for attr, changed in (("author", True), ("creator", True), ("creator", False)):
            line = json.dumps({"op": "reload", "spec": emit_edit(WIDE, attr)})
            (report,) = json.loads(handle_line(service, line))["reload"]
            assert report["changed"] is changed
            assert answer(service) == f'[{attr} = "Clancy"]'

    def test_reload_from_registry_directory(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        registry.publish(WORD)
        service = make_service()
        line = json.dumps({"op": "reload", "registry": str(tmp_path)})
        response = json.loads(handle_line(service, line))
        assert response["ok"] is True
        after = str(service.translate(QUERY)["Amazon"].mapping)
        assert "author-word" in after

    def test_registry_rollback_then_reload_restores_prior_answers(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        registry.publish(WORD)
        registry.publish(WIDE)
        service = make_service()
        reload_line = json.dumps({"op": "reload", "registry": str(tmp_path)})
        handle_line(service, reload_line)
        wide_answer = str(service.translate(QUERY)["Amazon"].mapping)
        registry.rollback("K_Amazon")
        handle_line(service, reload_line)
        word_answer = str(service.translate(QUERY)["Amazon"].mapping)
        assert "author-word" in word_answer
        assert word_answer != wide_answer

    def test_bad_reload_requests_get_structured_errors(self, tmp_path):
        service = make_service()
        for request in (
            {"op": "reload"},
            {"op": "reload", "registry": str(tmp_path / "missing")},
            {"op": "reload", "specs": []},
            {"op": "reload", "specs": "nope"},
        ):
            response = json.loads(handle_line(service, json.dumps(request)))
            assert response["ok"] is False
            assert response["error"]["type"] == "bad-request"

    def test_resolve_filters_registry_to_served_names(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        registry.publish(WORD)
        registry.publish(dict(WIDE, name="K_Other"))
        resolved = resolve_reload_specs(
            {"registry": str(tmp_path)}, served={"K_Amazon"}
        )
        assert [spec["name"] for spec in resolved] == ["K_Amazon"]
        with pytest.raises(ValueError, match="no active specification"):
            resolve_reload_specs({"registry": str(tmp_path)}, served={"K_Ghost"})


class TestVersionStampCollisionRegression:
    """Cache keys carry the content digest, the spec's only identity.

    After a restart (or in a sibling worker) a *different* rule set can
    carry the same name.  When keys carried a process-local version
    stamp instead, a warm cache imported from such a process served the
    other spec's translations.
    """

    def test_recreated_spec_with_same_stamp_never_hits_stale(self):
        cache = TranslationCache()
        query = parse_query(QUERY)
        old = spec_from_dict(WORD)
        stale = cache.tdqm(query, old)

        # Same name, other payload: the restarted process's spec.
        new = spec_from_dict(WIDE)
        assert new.name == old.name
        assert new.content_digest != old.content_digest

        fresh = cache.tdqm(query, new)
        direct = tdqm_translate(query, new)
        assert fresh.mapping == direct.mapping
        assert fresh.mapping != stale.mapping
        assert cache.stats.hits == 0  # both lookups were real misses


class TestRetiredSpecReleased:
    """A swapped-out spec is freed by refcounting alone.

    Both tests run with the garbage collector disabled: a spec that is
    freed anyway sits on no reference cycle, so nothing — closures,
    compiled index, memos — outlives it until a gc pass.
    """

    def test_retired_spec_and_index_are_collectible(self):
        service = make_service()
        service.reload_spec(spec_from_dict(WORD))
        # Warm the compiled closures and the translation cache under the
        # spec that is about to be retired.
        service.translate(QUERY)
        retired = service.mediator.specs["Amazon"]
        assert retired.compiled_index().precompile() == 0  # already warm
        witness = weakref.ref(retired)
        del retired
        gc.disable()
        try:
            service.reload_spec(spec_from_dict(WIDE))
            assert witness() is None
        finally:
            gc.enable()

    def test_compiled_index_does_not_pin_its_spec(self):
        # The index copies what it needs and holds no reference back,
        # so it can outlive its spec and still answer.
        spec = spec_from_dict(WORD)
        index = spec.compiled_index()
        index.precompile()
        witness = weakref.ref(spec)
        gc.disable()
        try:
            del spec
            assert witness() is None
        finally:
            gc.enable()
        assert [index.rules[i].name for i in index.candidate_ids({"ln"})] == ["V1"]


class TestReloadUnderLoad:
    """16 live TCP clients through repeated publish/rollback cycles."""

    CLIENT_THREADS = 16
    REQUESTS_PER_CLIENT = 40
    RELOAD_CYCLES = 6

    QUERIES = [
        QUERY,
        '[ln = "King"]',
        '[publisher = "Haddix"]',
        '[ln = "Clancy"] and [publisher = "Putnam"]',
    ]

    @staticmethod
    def canonical(response: dict) -> str:
        response = dict(response)
        response.pop("id", None)
        return json.dumps(response, sort_keys=True)

    def reference(self, payload: dict | None) -> dict[str, str]:
        """Canonical response per query for one spec version."""
        service = make_service()
        if payload is not None:
            service.reload_spec(spec_from_dict(payload))
        out = {}
        for query in self.QUERIES:
            line = json.dumps({"op": "translate", "query": query})
            out[query] = self.canonical(json.loads(handle_line(service, line)))
        return out

    def test_zero_lost_and_every_answer_from_exactly_one_version(self, tmp_path):
        references = {
            "builtin": self.reference(None),
            "word": self.reference(WORD),
            "wide": self.reference(WIDE),
        }
        allowed = {
            query: {ref[query] for ref in references.values()}
            for query in self.QUERIES
        }

        service = make_service()
        server = serve_tcp(service, port=0)
        host, port = server.server_address[:2]
        serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
        serve_thread.start()

        registry = SpecRegistry(tmp_path)
        registry.publish(WORD)
        registry.publish(WIDE)

        failures: list[str] = []
        responded = [0] * self.CLIENT_THREADS
        stop = threading.Event()

        def drive(slot: int) -> None:
            with socket.create_connection((host, port), timeout=60.0) as conn:
                handle = conn.makefile("rw", encoding="utf-8")
                for i in range(self.REQUESTS_PER_CLIENT):
                    query = self.QUERIES[(slot + i) % len(self.QUERIES)]
                    request_id = f"{slot}-{i}"
                    handle.write(
                        json.dumps(
                            {"id": request_id, "op": "translate", "query": query}
                        )
                        + "\n"
                    )
                    handle.flush()
                    raw = handle.readline()
                    if not raw:
                        failures.append(f"client {slot}: connection dropped")
                        return
                    response = json.loads(raw)
                    if response.get("id") != request_id:
                        failures.append(f"client {slot}: id mismatch {response}")
                        return
                    if self.canonical(response) not in allowed[query]:
                        failures.append(
                            f"client {slot}: blended/unknown answer for "
                            f"{query!r}: {raw[:120]}"
                        )
                        return
                    responded[slot] += 1

        threads = [
            threading.Thread(target=drive, args=(slot,), daemon=True)
            for slot in range(self.CLIENT_THREADS)
        ]
        for thread in threads:
            thread.start()

        cache = service.mediator.translation_cache
        invalidations_before = cache.stats.invalidations
        reported_invalidated = 0
        reload_line = json.dumps({"op": "reload", "registry": str(tmp_path)})
        try:
            for cycle in range(self.RELOAD_CYCLES):
                if cycle % 2 == 0:
                    registry.rollback("K_Amazon", to_version=1)  # -> WORD
                else:
                    registry.rollback("K_Amazon", to_version=2)  # -> WIDE
                response = json.loads(handle_line(service, reload_line))
                assert response["ok"] is True
                reported_invalidated += sum(
                    report["invalidated"] for report in response["reload"]
                )
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=120.0)
            server.shutdown()
            server.server_close()
            serve_thread.join(timeout=30.0)

        assert failures == []
        assert responded == [self.REQUESTS_PER_CLIENT] * self.CLIENT_THREADS
        # Counter exactness: every invalidated entry the reloads reported
        # is an invalidation the cache counted, and nothing else
        # invalidated entries behind the reports' back.
        assert (
            cache.stats.invalidations - invalidations_before == reported_invalidated
        )
        assert service.stats()["reloads"] == self.RELOAD_CYCLES
