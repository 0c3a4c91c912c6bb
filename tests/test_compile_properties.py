"""Property-based tests: compiled dispatch == the linear oracle.

The contract of :mod:`repro.perf.compile` is **bit-identity**: for any
specification and any query, translating through ``spec.matcher()`` —
the rule index plus the compiled rule closures — returns exactly what
``Matcher(spec.rules)`` returns, the paper's Fig. 4 walk of
``match_rule`` over every rule: same mapping, same exactness, same
matchings, in the same order.

* random ∧/∨ queries against random specs (single- and multi-pattern
  rules) translate identically on both paths, and their prematch ``M_p``
  lists are equal matching by matching;
* rules that emit negations (``Not`` nodes) and rules vetoing emissions
  a target :class:`~repro.engine.capabilities.Capability` cannot express
  (the ``RejectMatch`` path) behave identically on both paths;
* the equality holds at scale: generated specifications with 1k and 10k
  rules, including a second pass served by the warm closure memos.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ast import C, conj, disj, neg
from repro.core.matching import Matcher
from repro.core.tdqm import tdqm_translate
from repro.engine.capabilities import Capability
from repro.obs import trace as obs
from repro.rules.dsl import V, cpat, rule, value_is
from repro.rules.spec import MappingSpecification
from repro.workloads.generator import (
    random_query,
    random_spec,
    simple_conjunction,
    synthetic_spec,
    vocabulary,
)

ATTRS = vocabulary(8)

query_seeds = st.integers(min_value=0, max_value=10_000)
spec_seeds = st.integers(min_value=0, max_value=200)


def _ordered(matchings):
    return [(m.rule_name, m.constraints, m.emission, m.exact) for m in matchings]


def _assert_bit_identical(query, spec: MappingSpecification) -> None:
    compiled = tdqm_translate(query, spec.matcher())
    oracle = tdqm_translate(query, Matcher(spec.rules))
    assert compiled == oracle, f"{spec.name}: {query}"


@given(query_seeds, spec_seeds)
@settings(max_examples=60, deadline=None)
def test_compiled_translation_equals_interpreted(qseed, sseed):
    spec = random_spec(ATTRS, pair_count=3, seed=sseed)
    query = random_query(ATTRS, seed=qseed, n_constraints=8, max_depth=4)
    _assert_bit_identical(query, spec)


@given(query_seeds, spec_seeds)
@settings(max_examples=60, deadline=None)
def test_compiled_matchings_equal_interpreted(qseed, sseed):
    # Below the translation: the raw prematch — same matchings, same
    # discovery order, same exactness, matching by matching.
    spec = random_spec(ATTRS, pair_count=3, seed=sseed)
    query = random_query(ATTRS, seed=qseed, n_constraints=8, max_depth=4)
    universe = frozenset(query.constraints())

    compiled = spec.matcher().potential(universe)
    oracle = Matcher(spec.rules).potential(universe)

    assert _ordered(compiled) == _ordered(oracle)


# ---------------------------------------------------------------------------
# Negation emissions and capability-filtered rules
# ---------------------------------------------------------------------------

#: The target can evaluate t_cap but not t_blocked: the capability rule
#: below vetoes (RejectMatch) every odd-valued match, exercising the
#: no-match memo entries on the compiled path.
_TARGET_CAP = Capability.of(selections=[("t_cap", "=")])


def _special_spec() -> MappingSpecification:
    def emit_not(bindings):
        return neg(C("t_not", "=", str(bindings["X"])))

    def emit_capability_checked(bindings):
        from repro.core.matching import RejectMatch

        attr = "t_cap" if int(bindings["X"]) % 2 == 0 else "t_blocked"
        emitted = C(attr, "=", str(bindings["X"]))
        if not _TARGET_CAP.supports(emitted):
            raise RejectMatch(f"target cannot evaluate {emitted}")
        return emitted

    extra = (
        rule(
            "R_not_emit",
            patterns=[cpat("a6", "=", V("X"))],
            where=[value_is("X")],
            emit=emit_not,
            exact=True,
        ),
        rule(
            "R_cap_filtered",
            patterns=[cpat("a7", "=", V("X"))],
            where=[value_is("X")],
            emit=emit_capability_checked,
            exact=True,
        ),
    )
    base = synthetic_spec(
        groups=[("a0", "a1")], singletons=ATTRS[:6], name="K_special"
    )
    return MappingSpecification(
        name="K_special", target="synthetic", rules=base.rules + extra
    )


@given(query_seeds)
@settings(max_examples=60, deadline=None)
def test_not_emit_and_capability_rules_bit_identical(qseed):
    spec = _special_spec()
    # Queries range over a6 (negated emission) and a7 (capability veto on
    # odd values) plus negated source leaves.
    query = random_query(ATTRS, seed=qseed, n_constraints=8, max_depth=4)
    if qseed % 2:
        query = conj([query, neg(C("a6", "=", qseed % 10))])
    _assert_bit_identical(query, spec)


def test_capability_veto_actually_fires_on_both_paths():
    spec = _special_spec()
    allowed = conj([C("a7", "=", 2)])
    vetoed = conj([C("a7", "=", 3)])
    assert "t_cap" in str(tdqm_translate(allowed, spec.matcher()).mapping)
    for matcher in (spec.matcher(), Matcher(spec.rules)):
        result = tdqm_translate(vetoed, matcher)
        assert "t_blocked" not in str(result.mapping)
    _assert_bit_identical(vetoed, spec)


def test_not_emission_survives_translation():
    spec = _special_spec()
    result = tdqm_translate(conj([C("a6", "=", 5)]), spec.matcher())
    assert "not" in str(result.mapping)
    _assert_bit_identical(conj([C("a6", "=", 5)]), spec)


# ---------------------------------------------------------------------------
# Scale: 1k- and 10k-rule workloads
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=[1_000, 10_000], ids=["1k", "10k"])
def big_spec(request):
    n = request.param
    attrs = vocabulary(n)
    groups = [(attrs[i], attrs[i + 1]) for i in range(0, 40, 2)]
    return synthetic_spec(groups, singletons=attrs, name=f"K_{n}"), attrs


def test_bit_identity_at_scale(big_spec):
    spec, attrs = big_spec
    queries = [
        simple_conjunction(attrs[:8], 0),
        simple_conjunction(attrs[len(attrs) // 2 : len(attrs) // 2 + 6], 1),
        disj([simple_conjunction(attrs[:4], 2), simple_conjunction(attrs[-4:], 3)]),
        conj([simple_conjunction(attrs[:3], 4), neg(C(attrs[5], "=", 9))]),
        random_query(attrs[:64], seed=7, n_constraints=10, max_depth=4),
    ]
    for query in queries:
        _assert_bit_identical(query, spec)


def test_prematch_memo_consistent_at_scale(big_spec):
    # The second compiled pass over a universe is served by the rules'
    # warm per-assignment closure memos; it must equal both the first
    # pass and the linear oracle.
    spec, attrs = big_spec
    universe = frozenset(simple_conjunction(attrs[:8], 5).constraints())

    first = spec.matcher().potential(universe)
    with obs.tracing("warm") as tracer:
        warm = spec.matcher().potential(universe)
    oracle = Matcher(spec.rules).potential(universe)

    assert tracer.counters["perf.compile.memo_hits"] >= len(warm) > 0
    assert _ordered(warm) == _ordered(first) == _ordered(oracle)
