"""repro.perf — fingerprints, the compiled rule index, the LRU cache.

The hot-path layer must be invisible semantically: every test here pins
either an equivalence (indexed == linear, cached == uncached) or an
explicit failure mode (stale index raises, stale cache entries never
hit).
"""

import pytest

from repro.core.ast import And, C, Or
from repro.core.errors import SpecificationError, StaleIndexError
from repro.core.matching import Matcher
from repro.core.parser import parse_query
from repro.core.tdqm import tdqm_translate
from repro.obs import trace as obs
from repro.perf import (
    TranslationCache,
    canonical_form,
    query_fingerprint,
    translate_batch,
)
from repro.perf.intern import intern_query
from repro.rules import builtin_specifications
from repro.workloads.generator import (
    simple_conjunction,
    synthetic_spec,
    vocabulary,
)


def _spec(n=8, name="K_t"):
    return synthetic_spec([], singletons=vocabulary(n), name=name)


# -- fingerprint canonicalization ---------------------------------------------


class TestFingerprint:
    def test_identical_queries_agree(self):
        q = parse_query('[ln = "Clancy"] and [fn = "Tom"]')
        assert query_fingerprint(q) == query_fingerprint(q)

    def test_and_commutativity_collapses(self):
        a, b = C("ln", "=", "Clancy"), C("fn", "=", "Tom")
        assert query_fingerprint(And((a, b))) == query_fingerprint(And((b, a)))

    def test_or_commutativity_collapses(self):
        a, b = C("ln", "=", "Clancy"), C("ln", "=", "Klancy")
        assert query_fingerprint(Or((a, b))) == query_fingerprint(Or((b, a)))

    def test_nested_shuffle_collapses(self):
        q1 = parse_query('([a = 1] or [b = 2]) and ([c = 3] or [d = 4])')
        q2 = parse_query('([d = 4] or [c = 3]) and ([b = 2] or [a = 1])')
        assert query_fingerprint(q1) == query_fingerprint(q2)

    def test_distinct_queries_differ(self):
        q1 = parse_query('[ln = "Clancy"]')
        q2 = parse_query('[ln = "Klancy"]')
        q3 = parse_query('[fn = "Clancy"]')
        prints = {query_fingerprint(q) for q in (q1, q2, q3)}
        assert len(prints) == 3

    def test_operator_distinguished(self):
        assert query_fingerprint(C("a", "<", 5)) != query_fingerprint(C("a", "<=", 5))

    def test_value_types_distinguished(self):
        # "1" (str) vs 1 (int) vs 1.0 (float) must not collide: sources
        # treat them differently, so the cache must too.
        prints = {
            query_fingerprint(C("a", "=", value)) for value in ("1", 1, 1.0, True)
        }
        assert len(prints) == 4

    def test_and_or_distinguished(self):
        a, b = C("a", "=", 1), C("b", "=", 2)
        assert query_fingerprint(And((a, b))) != query_fingerprint(Or((a, b)))

    def test_canonical_form_is_stable_text(self):
        q = parse_query('[b = 2] and [a = 1]')
        assert canonical_form(q) == canonical_form(parse_query('[a = 1] and [b = 2]'))

    @pytest.mark.parametrize(
        "pattern",
        ["logic (near) search", "logic (near/3) search", "logic (and) search",
         "logic (or) search", '(a (and) b) (near) "c d"'],
    )
    def test_compound_text_patterns_fingerprint_by_structure(self, pattern):
        # Compound patterns render by structure, not by object address:
        # two parses of one text share a fingerprint and an interned node.
        text = f"[ti contains {pattern}]"
        first, second = parse_query(text), parse_query(text)
        assert query_fingerprint(first) == query_fingerprint(second)
        assert intern_query(first) is intern_query(second)

    def test_compound_text_patterns_differ_by_words_and_window(self):
        texts = [
            f"[ti contains w{i} ({op}) x{j}]"
            for i, j in ((0, 0), (1, 0), (0, 1), *((k, k) for k in range(2, 60)))
            for op in ("near", "near/2", "near/9", "and", "or")
        ]
        # Parse and drop each query before the next, as a server would:
        # freed patterns must not lend their identity to later ones.
        prints = [query_fingerprint(parse_query(text)) for text in texts]
        assert len(set(prints)) == len(texts)


# -- compiled rule index -------------------------------------------------------


class TestCompiledRuleIndex:
    def test_lazy_build_and_reuse(self):
        spec = _spec()
        index = spec.compiled_index()
        assert spec.compiled_index() is index  # cached until mutation
        assert len(index) == len(spec.rules)

    def test_candidates_are_superset_of_matching_rules(self):
        attrs = vocabulary(12)
        spec = synthetic_spec(
            [(attrs[0], attrs[1])], singletons=attrs[2:8], name="K_sup"
        )
        index = spec.compiled_index()
        query = simple_conjunction(attrs[:6], 0)
        constraints = list(query.constraints())
        candidates = {r.name for r in index.candidate_rules(constraints)}
        # Brute force: every rule with at least one matching must be a candidate.
        matcher = Matcher(spec.rules)
        for matching in matcher.potential(frozenset(constraints)):
            assert matching.rule_name in candidates

    def test_indexed_matchings_equal_linear(self):
        attrs = vocabulary(10)
        spec = synthetic_spec(
            [(attrs[0], attrs[1]), (attrs[2], attrs[3])],
            singletons=attrs,
            name="K_eq",
        )
        query = simple_conjunction(attrs[:7], 3)
        universe = frozenset(query.constraints())
        linear = Matcher(spec.rules).potential(universe)
        indexed = spec.matcher().potential(universe)
        def key(m):
            return (m.rule_name, sorted(map(str, m.constraints)))

        assert sorted(linear, key=key) == sorted(indexed, key=key)

    def test_index_length_mismatch_rejected(self):
        spec, other = _spec(name="K_a"), _spec(4, name="K_b")
        from repro.core.errors import RuleError

        with pytest.raises(RuleError):
            Matcher(other.rules, index=spec.compiled_index())

    def test_stale_after_add_rule(self):
        spec = _spec()
        index = spec.compiled_index()
        matcher = Matcher(spec.rules, index=index)
        template = spec.rules[0]
        from repro.core.matching import Rule

        spec.add_rule(Rule("extra", template.patterns, template.emit))
        with pytest.raises(StaleIndexError):
            index.candidate_ids({"a0"})
        with pytest.raises(StaleIndexError):
            matcher.potential(frozenset({C("a0", "=", 1)}))

    def test_stale_after_remove_rule(self):
        spec = _spec()
        index = spec.compiled_index()
        spec.remove_rule(spec.rules[0].name)
        with pytest.raises(StaleIndexError):
            index.candidate_ids({"a0"})

    def test_fresh_matcher_after_mutation(self):
        spec = _spec()
        spec.compiled_index()
        removed = spec.remove_rule("R_a0")
        assert removed.name == "R_a0"
        # spec.matcher() rebuilds the index for the new version.
        result = tdqm_translate(simple_conjunction(["a1"], 0), spec)
        assert result.mapping is not None
        assert spec.compiled_index().version == spec.version


# -- specification versioning --------------------------------------------------


class TestSpecVersioning:
    def test_version_bumps_on_mutation(self):
        spec = _spec()
        v0 = spec.version
        template = spec.rules[0]
        from repro.core.matching import Rule

        spec.add_rule(Rule("extra", template.patterns, template.emit))
        v1 = spec.version
        spec.remove_rule("extra")
        v2 = spec.version
        assert v0 < v1 < v2

    def test_versions_unique_across_specs(self):
        assert _spec(name="K_x").version != _spec(name="K_y").version

    def test_duplicate_rule_name_rejected(self):
        spec = _spec()
        template = spec.rules[0]
        from repro.core.matching import Rule

        v = spec.version
        with pytest.raises(SpecificationError):
            spec.add_rule(Rule(template.name, template.patterns, template.emit))
        assert spec.version == v  # failed mutation must not bump

    def test_remove_missing_rule_rejected(self):
        spec = _spec()
        with pytest.raises(SpecificationError):
            spec.remove_rule("no-such-rule")


# -- translation cache ---------------------------------------------------------


class TestTranslationCache:
    def test_hit_returns_same_object(self):
        spec = _spec()
        cache = TranslationCache()
        q = simple_conjunction(vocabulary(4), 0)
        first = cache.tdqm(q, spec)
        second = cache.tdqm(q, spec)
        assert first is second
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_hit_equals_uncached(self):
        spec = _spec()
        cache = TranslationCache()
        q = parse_query("([a0 = 1] or [a1 = 2]) and [a2 = 3]")
        cache.tdqm(q, spec)
        hit = cache.tdqm(q, spec)
        direct = tdqm_translate(q, spec)
        assert hit.mapping == direct.mapping
        assert hit.exact == direct.exact

    def test_commuted_query_hits(self):
        spec = _spec()
        cache = TranslationCache()
        cache.tdqm(parse_query("[a0 = 1] and [a1 = 2]"), spec)
        cache.tdqm(parse_query("[a1 = 2] and [a0 = 1]"), spec)
        assert cache.stats.hits == 1

    def test_distinct_specs_do_not_collide(self):
        cache = TranslationCache()
        q = simple_conjunction(["a0"], 0)
        cache.tdqm(q, _spec(name="K_one"))
        cache.tdqm(q, _spec(name="K_two"))
        assert cache.stats.misses == 2

    def test_lru_eviction_order(self):
        spec = _spec()
        cache = TranslationCache(maxsize=2)
        q1, q2, q3 = (simple_conjunction(["a0"], s) for s in (0, 1, 2))
        cache.tdqm(q1, spec)
        cache.tdqm(q2, spec)
        cache.tdqm(q1, spec)  # touch q1: q2 becomes LRU
        cache.tdqm(q3, spec)  # evicts q2
        assert cache.stats.evictions == 1
        cache.tdqm(q1, spec)  # still cached
        assert cache.stats.misses == 3
        cache.tdqm(q2, spec)  # evicted: miss again
        assert cache.stats.misses == 4

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            TranslationCache(maxsize=0)

    def test_mutation_invalidates_logically(self):
        spec = _spec()
        cache = TranslationCache()
        q = simple_conjunction(["a0"], 0)
        cache.tdqm(q, spec)
        from repro.core.matching import Rule

        template = spec.rules[0]
        spec.add_rule(Rule("extra", template.patterns, template.emit))
        cache.tdqm(q, spec)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_invalidate_by_spec(self):
        cache = TranslationCache()
        one, two = _spec(name="K_one"), _spec(name="K_two")
        q = simple_conjunction(["a0"], 0)
        cache.tdqm(q, one)
        cache.tdqm(q, two)
        assert cache.invalidate(one) == 1
        assert len(cache) == 1
        assert cache.invalidate("K_two") == 1
        assert len(cache) == 0

    def test_clear(self):
        spec = _spec()
        cache = TranslationCache()
        cache.tdqm(simple_conjunction(["a0"], 0), spec)
        cache.clear()
        assert len(cache) == 0

    def test_clear_emits_invalidations_counter(self):
        spec = _spec()
        cache = TranslationCache()
        with obs.tracing("t") as tracer:
            cache.tdqm(simple_conjunction(["a0"], 0), spec)
            cache.tdqm(simple_conjunction(["a1"], 1), spec)
            cache.clear()
            cache.clear()  # empty: nothing dropped, nothing counted
        assert cache.stats.invalidations == 2
        assert tracer.counters["perf.cache.invalidations"] == 2

    def test_invalidate_emits_invalidations_counter(self):
        cache = TranslationCache()
        one, two = _spec(name="K_one"), _spec(name="K_two")
        q = simple_conjunction(["a0"], 0)
        with obs.tracing("t") as tracer:
            cache.tdqm(q, one)
            cache.tdqm(q, two)
            assert cache.invalidate(one) == 1
            assert cache.invalidate("K_absent") == 0  # no-op: not counted
        assert cache.stats.invalidations == 1
        assert tracer.counters["perf.cache.invalidations"] == 1

    def test_dnf_cached(self):
        spec = _spec()
        cache = TranslationCache()
        q = parse_query("[a0 = 1] or [a1 = 2]")
        first = cache.dnf(q, spec)
        assert cache.dnf(q, spec) is first
        from repro.core.dnf_mapper import dnf_map_translate

        assert dnf_map_translate(q, spec).mapping == first.mapping

    def test_tdqm_entry_point_uses_cache(self):
        spec = _spec()
        cache = TranslationCache()
        q = simple_conjunction(["a0", "a1"], 0)
        assert tdqm_translate(q, spec, cache=cache) is tdqm_translate(
            q, spec, cache=cache
        )

    def test_traced_runs_bypass_cache(self):
        spec = _spec()
        cache = TranslationCache()
        q = simple_conjunction(["a0"], 0)
        trace: list[str] = []
        tdqm_translate(q, spec, trace, cache=cache)
        assert trace  # narration happened: the cache was not consulted
        assert len(cache) == 0


# -- batch translation ---------------------------------------------------------


class TestTranslateBatch:
    def test_matches_per_query_translation(self):
        specs = {
            name: spec
            for name, spec in builtin_specifications().items()
            if name in ("K_Amazon", "K_map")
        }
        queries = [
            parse_query('[ln = "Clancy"] and [fn = "Tom"]'),
            parse_query("[pyear = 1997] and [pmonth = 5]"),
        ]
        batched = translate_batch(queries, specs)
        for query, per_spec in zip(queries, batched):
            assert set(per_spec) == set(specs)
            for name, spec in specs.items():
                direct = tdqm_translate(query, spec)
                assert per_spec[name].mapping == direct.mapping
                assert per_spec[name].exact == direct.exact

    def test_duplicates_share_entries(self):
        spec = _spec()
        q = simple_conjunction(vocabulary(4), 0)
        cache = TranslationCache()
        results = translate_batch([q, q, q], {"K_t": spec}, cache=cache)
        assert results[0]["K_t"] is results[1]["K_t"] is results[2]["K_t"]
        assert cache.stats.misses == 1
        assert cache.stats.hits == 2

    def test_empty_batch(self):
        assert translate_batch([], {"K_t": _spec()}) == []


# -- mediator integration ------------------------------------------------------


class TestMediatorIntegration:
    def test_translate_many_and_cache_reuse(self):
        from repro.mediator import bookstore_mediator

        mediator = bookstore_mediator("amazon")
        out = mediator.translate_many(
            ['[ln = "Clancy"] and [fn = "Tom"]', '[fn = "Tom"] and [ln = "Clancy"]']
        )
        assert len(out) == 2
        assert out[0]["Amazon"] is out[1]["Amazon"]  # commuted repeat hits

    def test_translate_many_unknown_source(self):
        from repro.core.errors import TranslationError
        from repro.mediator import bookstore_mediator

        with pytest.raises(TranslationError):
            bookstore_mediator("amazon").translate_many(["[a = 1]"], sources=["nope"])

    def test_answers_identical_with_and_without_cache(self):
        from repro.mediator import bookstore_mediator

        query = parse_query('[ln = "Clancy"] and [fn = "Tom"]')
        cached = bookstore_mediator("amazon")
        uncached = bookstore_mediator("amazon")
        uncached.translation_cache = None
        assert sorted(map(str, cached.answer_mediated(query).rows)) == sorted(
            map(str, uncached.answer_mediated(query).rows)
        )
        assert cached.translation_cache.stats.misses > 0


# -- the batch CLI -------------------------------------------------------------


class TestBatchCli:
    def test_batch_text_output(self, capsys):
        from repro.cli import main

        assert main(["batch", "K_Amazon", '[ln = "Clancy"] and [fn = "Tom"]']) == 0
        out = capsys.readouterr().out
        assert "S(K_Amazon)" in out
        assert "Clancy, Tom" in out

    def test_batch_json_with_cache_stats(self, capsys):
        import json

        from repro.cli import main

        code = main(
            [
                "batch",
                "K_Amazon,K_map",
                '[ln = "Clancy"]',
                '[ln = "Clancy"]',
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 2
        assert payload["cache"]["hits"] >= 1  # the duplicate hit

    def test_batch_queries_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "queries.txt"
        path.write_text('# comment\n[ln = "Clancy"]\n\n[pyear = 1997]\n')
        assert main(["batch", "K_Amazon", "--queries-file", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("Q = ") == 2

    def test_batch_no_queries_errors(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["batch", "K_Amazon"])
