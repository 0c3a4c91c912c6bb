"""Unit tests for the compiled translate hot path (repro.perf.compile).

Two layers under test:

* **compiled rules** (``repro.perf.compile``) — per-rule closures with a
  per-assignment memo, bit-identical to the interpreted ``match_rule``;
* **compiled dispatch** — ``spec.matcher()`` runs the closures through
  the specification's index, and answers exactly what the linear
  ``Matcher(spec.rules)`` oracle answers.
"""

from __future__ import annotations

import pytest

from repro.core.ast import C
from repro.core.errors import RuleError
from repro.core.matching import Matcher, match_rule
from repro.core.tdqm import tdqm_translate
from repro.perf import compile_rule
from repro.rules import builtin_specifications
from repro.rules.dsl import V, cpat, rule, table_lookup
from repro.workloads.generator import synthetic_spec, vocabulary
from repro.workloads.paper_queries import example1_query, figure2_q1, qbook

ATTRS = vocabulary(8)


def _fresh_spec(name="K_compile_test"):
    return synthetic_spec(
        groups=[("a0", "a1")], singletons=ATTRS, name=name
    )


class TestCompiledRule:
    def test_single_pattern_bit_identical(self):
        spec = _fresh_spec()
        target = spec.get_rule("R_a3")
        universe = [C("a3", "=", 7), C("a4", "=", 1), C("a3", "=", 9)]
        compiled = compile_rule(target)
        pools = [[c for c in universe if c.lhs.attr == "a3"]]
        expect = match_rule(target, universe)
        got = compiled.matchings(pools)
        assert [str(m.emission) for m in got] == [str(m.emission) for m in expect]
        assert [m.constraints for m in got] == [m.constraints for m in expect]
        assert [m.exact for m in got] == [m.exact for m in expect]

    def test_multi_pattern_bit_identical(self):
        spec = _fresh_spec()
        pair = spec.get_rule("R_a0_a1")
        universe = [C("a0", "=", 3), C("a1", "=", 4), C("a0", "=", 5)]
        compiled = compile_rule(pair)
        pools = [
            [c for c in universe if c.lhs.attr == "a0"],
            [c for c in universe if c.lhs.attr == "a1"],
        ]
        expect = match_rule(pair, universe)
        got = compiled.matchings(pools)
        assert [str(m.emission) for m in got] == [str(m.emission) for m in expect]

    def test_memo_serves_repeat_assignments(self):
        compiled = compile_rule(_fresh_spec().get_rule("R_a2"))
        pool = [C("a2", "=", 1)]
        first = compiled.matchings([pool])
        second = compiled.matchings([pool])
        assert compiled.memo_size() == 1
        # The memoized Matching is the same object — a dictionary hit.
        assert second[0] is first[0]

    def test_rejected_match_is_memoized_as_no_match(self):
        veto = rule(
            "R_veto",
            patterns=[cpat("a0", "=", V("X"))],
            let={"Y": table_lookup({}, lambda b: b["X"])},  # always missing
            emit=lambda b: C("t", "=", b["Y"]),
        )
        compiled = compile_rule(veto)
        pool = [C("a0", "=", 1)]
        assert compiled.matchings([pool]) == []
        assert compiled.matchings([pool]) == []
        assert compiled.memo_size() == 1

    def test_bad_emission_raises_rule_error(self):
        bad = rule(
            "R_bad",
            patterns=[cpat("a0", "=", V("X"))],
            emit=lambda b: "not a query",  # type: ignore[arg-type,return-value]
        )
        with pytest.raises(RuleError):
            compile_rule(bad).matchings([[C("a0", "=", 1)]])


class TestMatcherModes:
    def test_compiled_equals_interpreted_on_builtins(self):
        queries = [example1_query(), figure2_q1(), qbook()]
        for spec in builtin_specifications().values():
            for query in queries:
                compiled = tdqm_translate(query, spec.matcher())
                oracle = tdqm_translate(query, Matcher(spec.rules))
                assert compiled == oracle, (spec.name, str(query))

    def test_precompile_builds_every_closure(self):
        spec = _fresh_spec("K_precompile")
        index = spec.compiled_index()
        assert index.precompile() == len(spec.rules)


class TestStatsCounters:
    def test_stats_surface_compile_counters(self):
        from repro.obs.export import counters_table
        from repro.obs.stats import collect_stats

        report = collect_stats(
            '[ln = "StatsCounterProbe"] and [fn = "Unique"]',
            {"K_Amazon": builtin_specifications()["K_Amazon"]},
        )
        table = "\n".join(counters_table(report.tracer))
        assert "perf.compile.dispatches" in table
