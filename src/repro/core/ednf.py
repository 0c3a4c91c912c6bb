"""Procedure EDNF — essential DNF for separability testing (Figure 10).

The safety conditions of Section 7.1 ultimately depend only on the
existence of *cross-matchings*, so when testing them we may drop every
constraint that can never participate in one.  The *essential DNF* of a
subquery keeps exactly the potentially-dependent constraints; everything
else collapses to the don't-care placeholder ε.

Representation: a DNF (or EDNF) is a list of *terms*; each term is a
``frozenset`` of constraints, with the empty set standing for ε.  Terms are
deduplicated (the ``x ∨ x = x`` simplifying rule) but their order is kept
for reproducible traces.

``ednf`` annotates every node of the query tree bottom-up with its
``D(·)`` (DNF over the children's EDNF) and ``D_e(·)`` (the simplified
essential form), mirroring the shaded boxes of Figure 7.

Nullification rule (lines 17–22 of Figure 10): a disjunct D̂ becomes ε when
every potential matching ``m`` relevant to it (``m ∩ C(D̂) ≠ ∅``)

a. is wholly contained in D̂, and
b. either consists of a single constraint, or some *other* disjunct of the
   current node is disjoint from ``m`` (so the cross-matching would be
   discovered through that sibling anyway — see the ``f_l f_f`` discussion
   in Section 7.1.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from repro.core.ast import And, BoolConst, Constraint, Or, Query
from repro.core.errors import TranslationError
from repro.core.matching import Matcher
from repro.obs import trace as obs

__all__ = ["Term", "EdnfInfo", "ednf", "format_terms", "combine_conjunct_ednf"]

#: One DNF term: a set of constraints; the empty set is the ε placeholder.
Term = frozenset

#: Safety valve for the EDNF product at a conjunctive node.  The paper's
#: cost model is 2^(ne); workloads beyond this bound indicate pathological
#: dependency degrees rather than realistic specifications.
MAX_TERMS = 200_000


@dataclass
class EdnfInfo:
    """Per-node annotation: the ``D(·)`` and ``D_e(·)`` of Figure 7/10."""

    node: Query
    dnf: list[Term]
    essential: list[Term]
    children: list["EdnfInfo"] = field(default_factory=list)

    def annotation(self) -> str:
        """Render ``D_e / D`` like the shaded boxes of Figure 7."""
        return f"{format_terms(self.essential)} / {format_terms(self.dnf)}"


def format_terms(terms: list[Term]) -> str:
    """Human-readable rendering of a term list (ε for the empty term)."""
    if not terms:
        return "false"
    rendered = []
    for term in terms:
        if not term:
            rendered.append("ε")
        else:
            rendered.append("".join(sorted(f"({c})" for c in term)))
    return " ∨ ".join(rendered)


def ednf(query: Query, matcher: Matcher) -> EdnfInfo:
    """Compute ``D(·)`` and ``D_e(·)`` for every node of ``query``.

    ``matcher`` supplies the potential matchings ``M_p`` over the query's
    full constraint set (line 1 of Figure 10).
    """
    if not obs.enabled():
        return _ednf(query, matcher)
    with obs.span("ednf"):
        obs.count("ednf.calls")
        info = _ednf(query, matcher)
        obs.count("ednf.dnf_terms", len(info.dnf))
        obs.count("ednf.essential_terms", len(info.essential))
        return info


def constraint_set_key(constraints: frozenset[Constraint]) -> tuple[int, str]:
    """The one order of constraint sets: by size, then by sorted rendering."""
    return (len(constraints), str(sorted(map(str, constraints))))


def _ednf(query: Query, matcher: Matcher) -> EdnfInfo:
    potential = [m.constraints for m in matcher.potential(query.constraints())]
    # Only distinct constraint sets matter for safety, and singletons are
    # handled by rule b.1.
    potential = sorted(set(potential), key=constraint_set_key)
    return _ednf_node(query, potential)


def _ednf_node(query: Query, potential: list[frozenset[Constraint]]) -> EdnfInfo:
    children: list[EdnfInfo] = []

    if isinstance(query, BoolConst):
        dnf = [Term()] if query.value else []
    elif isinstance(query, Constraint):
        dnf = [Term([query])]
    elif isinstance(query, Or):
        children = [_ednf_node(child, potential) for child in query.children]
        dnf = _dedupe(term for child in children for term in child.essential)
    elif isinstance(query, And):
        children = [_ednf_node(child, potential) for child in query.children]
        dnf = combine_conjunct_ednf([child.essential for child in children])
    else:
        raise TranslationError(f"unknown query node: {query!r}")

    essential = simplify_terms(dnf, potential)
    return EdnfInfo(node=query, dnf=dnf, essential=essential, children=children)


def combine_conjunct_ednf(conjunct_terms: list[list[Term]]) -> list[Term]:
    """Disjunctivize a conjunction of term lists (line 12 of Figure 10)."""
    size = 1
    for terms in conjunct_terms:
        size *= max(1, len(terms))
        if size > MAX_TERMS:
            raise TranslationError(
                f"EDNF product exceeds {MAX_TERMS} terms; the query's "
                f"dependency structure is pathological"
            )
    combos = []
    for combo in product(*conjunct_terms):
        combos.append(Term().union(*combo))
    return _dedupe(combos)


def simplify_terms(
    dnf: list[Term], potential: list[frozenset[Constraint]]
) -> list[Term]:
    """Step 2 of Figure 10: nullify useless disjuncts, merge ε's."""
    current = list(dnf)
    for idx, term in enumerate(current):
        if not term:
            continue
        if _is_useless(term, idx, current, potential):
            current[idx] = Term()
    return _dedupe(current)


def _is_useless(
    term: Term,
    idx: int,
    terms: list[Term],
    potential: list[frozenset[Constraint]],
) -> bool:
    for m in potential:
        if not (m & term):
            continue  # not relevant to this disjunct
        if not m <= term:
            return False  # rule (a) fails: m reaches outside the term
        if len(m) == 1:
            continue  # rule (b.1)
        if any(j != idx and not (m & other) for j, other in enumerate(terms)):
            continue  # rule (b.2): a disjoint sibling re-discovers m
        return False
    return True


def _dedupe(terms) -> list[Term]:
    seen: set[Term] = set()
    out: list[Term] = []
    for term in terms:
        if term not in seen:
            seen.add(term)
            out.append(term)
    return out
