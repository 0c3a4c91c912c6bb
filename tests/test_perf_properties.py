"""Property-based tests (hypothesis) for the repro.perf hot-path layer.

The layer's contract is *semantic invisibility*: the compiled rule index
changes which rules are probed (never what a probe returns) and the
translation cache changes when translation runs (never what it returns).
On random queries and random rule sets:

* indexed ``Matcher.potential`` returns exactly the linear-scan matchings;
* cached translation is bit-identical to uncached translation;
* ∧/∨-shuffled variants of a query share a fingerprint, and queries
  sharing a fingerprint are theory-equivalent (the cache never conflates
  semantically different queries).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ast import And, Or, Query, conj, disj
from repro.core.matching import Matcher
from repro.core.tdqm import tdqm_translate
from repro.perf import TranslationCache, query_fingerprint, translate_batch
from repro.workloads.generator import (
    random_query,
    random_spec,
    theory_equivalent,
    vocabulary,
)

ATTRS = vocabulary(8)

query_seeds = st.integers(min_value=0, max_value=10_000)
spec_seeds = st.integers(min_value=0, max_value=200)


def _shuffle(query: Query, rng: random.Random) -> Query:
    """A random ∧/∨-commuted variant of ``query`` (same theory)."""
    if isinstance(query, (And, Or)):
        children = [_shuffle(child, rng) for child in query.children]
        rng.shuffle(children)
        build = conj if isinstance(query, And) else disj
        return build(children)
    return query


@given(query_seeds, spec_seeds)
@settings(max_examples=60, deadline=None)
def test_indexed_matcher_equals_linear_scan(qseed, sseed):
    spec = random_spec(ATTRS, pair_count=3, seed=sseed)
    query = random_query(ATTRS, seed=qseed, n_constraints=8, max_depth=4)
    universe = frozenset(query.constraints())

    linear = Matcher(spec.rules).potential(universe)
    indexed = Matcher(spec.rules, index=spec.compiled_index()).potential(universe)

    def key(m):
        return (m.rule_name, sorted(map(str, m.constraints)), str(m.emission))

    assert sorted(linear, key=key) == sorted(indexed, key=key)


@given(query_seeds, spec_seeds)
@settings(max_examples=40, deadline=None)
def test_cached_translation_bit_identical(qseed, sseed):
    spec = random_spec(ATTRS, pair_count=2, seed=sseed)
    query = random_query(ATTRS, seed=qseed, n_constraints=6, max_depth=3)
    cache = TranslationCache()

    miss = cache.tdqm(query, spec)
    hit = cache.tdqm(query, spec)
    direct = tdqm_translate(query, spec)

    assert hit is miss  # second call was a hit
    assert miss.mapping == direct.mapping
    assert miss.exact == direct.exact
    assert cache.stats.hits == 1


@given(query_seeds, st.integers(min_value=0, max_value=99))
@settings(max_examples=60, deadline=None)
def test_shuffled_variants_share_fingerprint(qseed, shuffle_seed):
    query = random_query(ATTRS, seed=qseed, n_constraints=6, max_depth=3)
    variant = _shuffle(query, random.Random(shuffle_seed))
    assert query_fingerprint(query) == query_fingerprint(variant)
    assert theory_equivalent(query, variant)


@given(query_seeds, st.integers(min_value=0, max_value=99), spec_seeds)
@settings(max_examples=30, deadline=None)
def test_shuffled_variant_hits_cache_with_equivalent_result(qseed, shuffle_seed, sseed):
    # A commuted variant must hit the original's entry, and the shared
    # result must be a correct translation *of the variant* too.
    spec = random_spec(ATTRS, pair_count=2, seed=sseed)
    query = random_query(ATTRS, seed=qseed, n_constraints=6, max_depth=3)
    variant = _shuffle(query, random.Random(shuffle_seed))
    cache = TranslationCache()

    original = cache.tdqm(query, spec)
    shared = cache.tdqm(variant, spec)
    assert shared is original
    assert theory_equivalent(shared.mapping, tdqm_translate(variant, spec).mapping)


@given(query_seeds, spec_seeds)
@settings(max_examples=20, deadline=None)
def test_batch_equals_per_query(qseed, sseed):
    spec = random_spec(ATTRS, pair_count=2, seed=sseed)
    queries = [
        random_query(ATTRS, seed=qseed + i, n_constraints=5, max_depth=3)
        for i in range(3)
    ]
    batched = translate_batch(queries, {spec.name: spec})
    for query, per_spec in zip(queries, batched):
        direct = tdqm_translate(query, spec)
        assert per_spec[spec.name].mapping == direct.mapping
        assert per_spec[spec.name].exact == direct.exact
