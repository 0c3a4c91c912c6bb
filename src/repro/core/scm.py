"""Algorithm SCM — Simple-Conjunction Mapping (Figure 4).

Given a simple conjunction Q̂ and a mapping specification K:

1. find all matchings ``M(Q̂, K)`` of any rule in K;
2. suppress submatchings (a matching that is a proper subset of another is
   redundant — its emission is implied, Lemma 1);
3. output the conjunction of the remaining matchings' emissions.

By Theorem 1 the output is the minimal subsuming mapping ``S(Q̂)`` whenever
K is sound and complete.  Constraints participating in no matching
contribute ``True`` (no constraint at the target).

:func:`scm_translate` additionally reports the kept matchings and an
*exactness* verdict used by the filter builder: the translation is exact
(logically equivalent, not just subsuming) when the exact kept matchings
alone cover every constraint of Q̂.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ast import BoolConst, Constraint, Query, conj
from repro.core.dnf import is_simple_conjunction
from repro.core.errors import TranslationError
from repro.core.matching import Matcher, Matching
from repro.obs import trace as obs
from repro.rules.spec import MappingSpecification

__all__ = ["SCMResult", "scm", "scm_translate", "suppress_submatchings"]


@dataclass(frozen=True)
class SCMResult:
    """Outcome of one SCM run."""

    mapping: Query
    all_matchings: tuple[Matching, ...]
    kept_matchings: tuple[Matching, ...]
    exact: bool


def suppress_submatchings(matchings: list[Matching]) -> list[Matching]:
    """Step 2 of Algorithm SCM: drop matchings proper-subset of another.

    Equal constraint sets produced by different rules (or bindings) are all
    kept — for sound rules their emissions are equivalent, and conjoining
    them is harmless.
    """
    kept: list[Matching] = []
    for candidate in matchings:
        if any(
            candidate.constraints < other.constraints
            for other in matchings
        ):
            continue
        kept.append(candidate)
    return kept


def scm_translate(
    query: Query | frozenset[Constraint],
    spec: MappingSpecification | Matcher,
) -> SCMResult:
    """Run Algorithm SCM, returning the mapping plus its trace."""
    if not obs.enabled():
        return _scm_translate(query, spec)
    with obs.span("scm"):
        return _scm_translate(query, spec)


def _scm_translate(
    query: Query | frozenset[Constraint],
    spec: MappingSpecification | Matcher,
) -> SCMResult:
    if isinstance(query, frozenset):
        constraints = query
        order = {c: i for i, c in enumerate(sorted(constraints, key=str))}
    else:
        if not is_simple_conjunction(query):
            raise TranslationError(
                f"SCM requires a simple conjunction, got: {query}"
            )
        if isinstance(query, BoolConst):
            return SCMResult(query, (), (), exact=True)
        constraints = query.constraints()
        order = {}
        for i, c in enumerate(query.iter_constraints()):
            order.setdefault(c, i)

    matcher = spec.matcher() if isinstance(spec, MappingSpecification) else spec
    all_matchings = matcher.matchings(constraints)
    kept = suppress_submatchings(all_matchings)
    if obs.enabled():
        obs.count("scm.calls")
        obs.count("scm.matchings", len(all_matchings))
        obs.count("scm.matchings_conjoined", len(kept))
        obs.count("scm.submatchings_suppressed", len(all_matchings) - len(kept))
    # Emit in query order (the paper's figures list emissions this way).
    kept.sort(key=lambda m: min(order[c] for c in m.constraints))
    mapping = conj(matching.emission for matching in kept)

    exactly_covered: set[Constraint] = set()
    for matching in kept:
        if matching.exact:
            exactly_covered |= matching.constraints
    exact = constraints <= exactly_covered

    return SCMResult(
        mapping=mapping,
        all_matchings=tuple(all_matchings),
        kept_matchings=tuple(kept),
        exact=exact,
    )


def scm(
    query: Query | frozenset[Constraint],
    spec: MappingSpecification | Matcher,
) -> Query:
    """``SCM(Q̂, K)``: the minimal subsuming mapping of a simple conjunction."""
    return scm_translate(query, spec).mapping
