"""Algorithm TDQM — Top-Down Query Mapping (Figure 8, Section 6).

Translate an arbitrary ∧/∨ query by traversing its tree top-down:

* **Case 1** (∨-node): disjuncts are always separable — recurse on each
  and disjoin the results;
* **Case 2** (∧-node with a non-leaf child): call Algorithm PSafe to
  partition the conjuncts into safe blocks; rewrite each multi-conjunct
  block into a disjunction with ``Disjunctivize`` (one distribution level,
  *local* to the block) and recurse;
* **Case 3** (simple conjunction): the base case — Algorithm SCM.

By Theorem 2 the output equals ``S(Q)``; by Section 8 it is also compact,
because structure is rewritten only inside inseparable blocks.

:func:`tdqm_translate` returns a :class:`TranslationResult` carrying the
exactness verdict (for filter-query generation) and work counters (for the
Section 8 benches).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ast import And, BoolConst, Or, Query, conj, disj
from repro.core.dnf import is_simple_conjunction
from repro.core.errors import TranslationError
from repro.core.matching import Matcher
from repro.core.normalize import normalize
from repro.core.psafe import psafe
from repro.core.scm import scm_translate
from repro.obs import trace as obs
from repro.rules.spec import MappingSpecification

__all__ = ["TdqmStats", "TranslationResult", "tdqm", "tdqm_translate", "disjunctivize"]


@dataclass
class TdqmStats:
    """Work counters accumulated over one TDQM run."""

    scm_calls: int = 0
    psafe_calls: int = 0
    blocks_rewritten: int = 0
    constraint_slots: int = 0  # constraints fed to SCM, with repeats


@dataclass(frozen=True)
class TranslationResult:
    """Outcome of one TDQM translation."""

    mapping: Query
    exact: bool
    stats: TdqmStats


def disjunctivize(conjuncts: list[Query]) -> Query:
    """Rewrite ``∧(conjuncts)`` into a disjunctive form (Figure 8, bottom).

    Single-conjunct blocks pass through unchanged; otherwise the root ∧ is
    distributed over the ∨'s one level below — a *local* conversion, not a
    full DNF.
    """
    if not conjuncts:
        raise TranslationError("disjunctivize needs at least one conjunct")
    if len(conjuncts) == 1:
        return conjuncts[0]
    obs.count("tdqm.disjunctivize_calls")
    alternatives = [
        list(child.children) if isinstance(child, Or) else [child]
        for child in conjuncts
    ]
    terms: list[Query] = []
    _distribute(alternatives, 0, [], terms)
    obs.count("tdqm.disjunctivize_terms", len(terms))
    return disj(terms)


def _distribute(
    alternatives: list[list[Query]],
    idx: int,
    picked: list[Query],
    out: list[Query],
) -> None:
    if idx == len(alternatives):
        out.append(conj(picked))
        return
    for option in alternatives[idx]:
        picked.append(option)
        _distribute(alternatives, idx + 1, picked, out)
        picked.pop()


def tdqm_translate(
    query: Query,
    spec: MappingSpecification | Matcher,
    trace: list[str] | None = None,
) -> TranslationResult:
    """Run Algorithm TDQM on an arbitrary query.

    When ``trace`` is a list, a human-readable narration of every step
    (case taken, partitions, rewrites, matchings) is appended to it — the
    machinery behind :func:`repro.core.explain.explain_translation`.

    For a cached translation call
    :meth:`TranslationCache.tdqm <repro.perf.TranslationCache.tdqm>`.
    """
    if not obs.enabled():
        return _translate(query, spec, trace)
    with obs.span("tdqm"):
        return _translate(query, spec, trace)


def _translate(
    query: Query,
    spec: MappingSpecification | Matcher,
    trace: list[str] | None,
) -> TranslationResult:
    query = normalize(query)
    matcher = spec.matcher() if isinstance(spec, MappingSpecification) else spec
    matcher.potential(query.constraints())  # prematch M_p once (Section 7.1.3)
    stats = TdqmStats()
    mapping, exact = _tdqm(query, matcher, stats, trace, 0)
    return TranslationResult(mapping=mapping, exact=exact, stats=stats)


def tdqm(query: Query, spec: MappingSpecification | Matcher) -> Query:
    """``TDQM(Q, K)``: the minimal subsuming mapping of an arbitrary query."""
    return tdqm_translate(query, spec).mapping


def _tdqm(
    query: Query,
    matcher: Matcher,
    stats: TdqmStats,
    trace: list[str] | None = None,
    depth: int = 0,
) -> tuple[Query, bool]:
    pad = "  " * depth

    def note(message: str) -> None:
        if trace is not None:
            trace.append(pad + message)

    traced = obs.enabled()
    if traced:
        obs.gauge_max("tdqm.subtree_nodes_max", query.node_count())

    # Case 3 first: constraints, constants, and ANDs of leaves.
    if is_simple_conjunction(query):
        if traced:
            obs.count("tdqm.case3_scm")
        stats.scm_calls += 1
        if not isinstance(query, BoolConst):
            stats.constraint_slots += len(query.constraints())
        result = scm_translate(query, matcher)
        if trace is not None:
            note(f"case 3 (SCM): {query}")
            for matching in result.all_matchings:
                kept = "keep" if matching in result.kept_matchings else "drop"
                group = " ∧ ".join(sorted(str(c) for c in matching.constraints))
                note(f"  [{kept}] {matching.rule_name}: {group} "
                     f"-> {matching.emission}"
                     + ("  (exact)" if matching.exact else ""))
            note(f"  S = {result.mapping}")
        return result.mapping, result.exact

    # Case 1: disjunctive query.
    if isinstance(query, Or):
        if traced:
            obs.count("tdqm.case1_or")
        note(f"case 1 (∨-node, {len(query.children)} disjuncts): "
             f"disjuncts are always separable")
        mapped = []
        exact = True
        for child in query.children:
            sub_mapping, sub_exact = _tdqm(child, matcher, stats, trace, depth + 1)
            mapped.append(sub_mapping)
            exact = exact and sub_exact
        return disj(mapped), exact

    # Case 2: conjunctive query with at least one non-leaf child.
    if isinstance(query, And):
        if traced:
            obs.count("tdqm.case2_psafe")
        stats.psafe_calls += 1
        partition = psafe(list(query.children), matcher)
        if trace is not None:
            note(f"case 2 (∧-node, {len(query.children)} conjuncts): "
                 f"calling PSafe")
            for m in partition.cross_matchings:
                group = ", ".join(sorted(str(c) for c in m.constraints))
                note(f"  cross-matching: {{{group}}}")
            blocks = ["{" + ", ".join(f"C{i + 1}" for i in b) + "}"
                      for b in partition.blocks]
            note(f"  partition: {', '.join(blocks)}")
        mapped = []
        exact = True
        for block in partition.blocks:
            conjuncts = [query.children[i] for i in block]
            if len(conjuncts) > 1:
                stats.blocks_rewritten += 1
                note(f"  rewriting block {{{', '.join(f'C{i + 1}' for i in block)}}}"
                     f" with Disjunctivize")
            rewritten = disjunctivize(conjuncts)
            sub_mapping, sub_exact = _tdqm(rewritten, matcher, stats, trace, depth + 1)
            mapped.append(sub_mapping)
            exact = exact and sub_exact
        return conj(mapped), exact

    raise TranslationError(f"unknown query node: {query!r}")
