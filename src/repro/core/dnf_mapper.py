"""Algorithm DNF — the DNF-based baseline mapper (Figure 6, Section 5).

Convert the query to disjunctive normal form (disjuncts are *always*
separable, Example 5 / reference [15]), map every disjunct with Algorithm
SCM, and disjoin the results.  Optimal but blind: the conversion is global
and exponential, the result is not compact, and repeated constraints are
re-translated once per disjunct — exactly the costs Algorithm TDQM avoids.

:func:`dnf_map_translate` reports work counters (number of SCM calls and
total constraint slots processed) for the Section 5/8 comparison benches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ast import FALSE, TRUE, Query, disj
from repro.core.dnf import dnf_terms
from repro.core.matching import Matcher
from repro.core.normalize import normalize
from repro.core.scm import scm_translate
from repro.obs import trace as obs
from repro.rules.spec import MappingSpecification

__all__ = ["DNFMapResult", "dnf_map", "dnf_map_translate"]


@dataclass(frozen=True)
class DNFMapResult:
    """Outcome of Algorithm DNF plus work accounting."""

    mapping: Query
    exact: bool
    disjunct_count: int
    scm_calls: int
    constraint_slots: int  # total constraints across all disjuncts (with repeats)


def dnf_map_translate(
    query: Query, spec: MappingSpecification | Matcher
) -> DNFMapResult:
    """Run Algorithm DNF, returning the mapping and work counters."""
    query = normalize(query)
    matcher = spec.matcher() if isinstance(spec, MappingSpecification) else spec
    # Prematch once over the full constraint set so per-disjunct matching
    # is a filter, as the Section 7.1.3 discussion allows for SCM too.
    matcher.potential(query.constraints())

    terms = dnf_terms(query)
    if not terms:
        return DNFMapResult(FALSE, exact=True, disjunct_count=0, scm_calls=0, constraint_slots=0)

    obs.count("dnf.terms", len(terms))
    mappings = []
    exact = True
    slots = 0
    for term in terms:
        result = scm_translate(term if term else TRUE, matcher)
        mappings.append(result.mapping)
        exact = exact and result.exact
        slots += len(term)
    return DNFMapResult(
        mapping=disj(mappings),
        exact=exact,
        disjunct_count=len(terms),
        scm_calls=len(terms),
        constraint_slots=slots,
    )


def dnf_map(query: Query, spec: MappingSpecification | Matcher) -> Query:
    """``DNF(Q, K)``: minimal subsuming mapping via the DNF route."""
    return dnf_map_translate(query, spec).mapping
