"""Safety and separability of conjunctions (Section 7.1).

*Safety* (Definitions 5 and 6) is the cheap, sufficient test the paper
recommends: a conjunction is safe when no cross-matching spans its
conjuncts, checked over the essential DNF.  *Separability* (Definition 2)
is the semantic property safety approximates; the precise conditions
(Theorems 3 and 4) additionally test whether each cross-matching is
*essential* via subsumption checks — expensive, domain-specific, and only
needed when a target has interrelated attribute pairs like Example 8's
map source.

The precise checks are parameterized by a ``subsumes(broad, narrow)``
callable so callers can plug in semantic knowledge (the map bench passes
an empirical evaluator over a coordinate grid); the default is the
propositional check, under which every cross-matching looks essential —
i.e. precise degenerates to safety, the paper's expected common case.
"""

from __future__ import annotations

from itertools import product
from collections.abc import Callable

from repro.core.ast import Constraint, Query, conj
from repro.core.matching import Matcher
from repro.core.psafe import base_cross_matchings, psafe
from repro.core.scm import scm
from repro.core.subsume import prop_implies

__all__ = [
    "is_safe_base",
    "is_safe",
    "base_cross_matchings",
    "is_separable_base",
    "is_separable_general",
]


def is_safe_base(
    conjuncts: list[frozenset[Constraint]], matcher: Matcher
) -> bool:
    """Definition 5: a simple-conjunction conjunction is safe iff δ = ∅."""
    return not base_cross_matchings(conjuncts, matcher)


def is_safe(conjuncts: list[Query], matcher: Matcher) -> bool:
    """Definition 6, tested through EDNF (Section 7.1.3).

    ``∧(conjuncts)`` is safe iff no disjunct of ``D(Q̂)`` (built from the
    conjuncts' essential DNF) contains a cross-matching — equivalently,
    Algorithm PSafe would put every conjunct in its own block.
    """
    if len(conjuncts) <= 1:
        return True
    return psafe(conjuncts, matcher).is_fully_separable


def is_separable_base(
    conjuncts: list[frozenset[Constraint]],
    matcher: Matcher,
    subsumes: Callable[[Query, Query], bool] | None = None,
) -> bool:
    """Theorem 3: precise separability for simple-conjunction conjunctions.

    Separable iff every cross-matching m satisfies
    ``S(Č1)...S(Čn) ⊆ S(∧m)`` (Eq. 6) — the cross-matching is *redundant*.
    ``subsumes(broad, narrow)`` decides ``narrow ⊆ broad``; the default
    propositional check treats all cross-matchings as essential.
    """
    subsumes = subsumes or (lambda broad, narrow: prop_implies(narrow, broad))
    delta = base_cross_matchings(conjuncts, matcher)
    if not delta:
        return True
    separated = conj(scm(conjunct, matcher) for conjunct in conjuncts)
    return all(subsumes(scm(m, matcher), separated) for m in delta)


def is_separable_general(
    conjuncts: list[Query],
    matcher: Matcher,
    subsumes: Callable[[Query, Query], bool] | None = None,
) -> bool:
    """Theorem 4: precise separability for disjunctive-query conjunctions.

    Eq. 8 requires, for every disjunct ``D̂_j = I_1k1 ... I_nkn`` of
    Disjunctivize(Q̂), that ``Z_j − S(D̂_j)`` be absorbed by the other
    disjuncts' mappings, where ``Z_j = S(I_1k1) ... S(I_nkn)``.  Since
    ``S(D̂_j) ⊆ Z_j`` always (Lemma 1), Eq. 8 is equivalent to
    ``Z_j ⊆ S(D̂_j) ∨ Σ_{j'≠j} S(D̂_j') = S(Q̂)`` — which is the form
    checked here (it needs no negation).
    """
    from repro.core.ast import Or, disj
    from repro.core.tdqm import tdqm  # local import to avoid a cycle

    subsumes = subsumes or (lambda broad, narrow: prop_implies(narrow, broad))
    if len(conjuncts) <= 1:
        return True

    alternatives = [
        list(child.children) if isinstance(child, Or) else [child]
        for child in conjuncts
    ]
    combos = list(product(*alternatives))
    full_mapping = disj(tdqm(conj(combo), matcher) for combo in combos)
    for combo in combos:
        z_j = conj(tdqm(ingredient, matcher) for ingredient in combo)
        if not subsumes(full_mapping, z_j):
            return False
    return True
