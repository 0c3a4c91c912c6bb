"""Subsumption and equivalence checks (Definition 1, Figure 1).

Two complementary checkers:

* **Propositional** — treat every distinct constraint as an independent
  Boolean atom and compare truth tables.  This is the right tool for
  comparing two *translations built from the same emissions* (e.g. TDQM vs
  Algorithm DNF): they mention the same atoms, and logical equivalence over
  those atoms is exactly what Theorems 1/2 promise.  Exhaustive up to
  :data:`EXACT_ATOM_LIMIT` atoms, randomized (seeded, one-sided) beyond.

* **Empirical** — evaluate both queries over a dataset through a caller-
  supplied evaluator and compare the selected subsets (the σ_Q'(D) ⊇
  σ_Q(D) picture of Figure 1).  This is how the map-source bench checks
  *semantic* subsumption across different vocabularies, where atoms don't
  line up propositionally.
"""

from __future__ import annotations

import random
from itertools import product
from collections.abc import Callable, Iterable, Mapping

from repro.core.ast import And, BoolConst, Constraint, Not, Or, Query

__all__ = [
    "evaluate_assignment",
    "prop_implies",
    "prop_equivalent",
    "prop_satisfiable",
    "empirical_subsumes",
    "empirical_equivalent",
    "EXACT_ATOM_LIMIT",
]

#: Up to this many distinct atoms, implication checks are exhaustive.
EXACT_ATOM_LIMIT = 18

#: Sample size for the randomized fallback above the exact limit.
_SAMPLES = 4096


def evaluate_assignment(query: Query, assignment: Mapping[Constraint, bool]) -> bool:
    """Evaluate a query under a Boolean assignment to its constraints."""
    if isinstance(query, BoolConst):
        return query.value
    if isinstance(query, Constraint):
        return assignment[query]
    if isinstance(query, And):
        return all(evaluate_assignment(child, assignment) for child in query.children)
    if isinstance(query, Or):
        return any(evaluate_assignment(child, assignment) for child in query.children)
    if isinstance(query, Not):
        return not evaluate_assignment(query.child, assignment)
    raise TypeError(f"unknown query node: {query!r}")


def _assignments(atoms: list[Constraint], exhaustive: bool):
    if exhaustive:
        for bits in product((False, True), repeat=len(atoms)):
            yield dict(zip(atoms, bits))
    else:
        rng = random.Random(0xC0FFEE)
        for _ in range(_SAMPLES):
            yield {atom: rng.random() < 0.5 for atom in atoms}


def prop_implies(narrow: Query, broad: Query) -> bool:
    """Propositional ``narrow ⊆ broad`` (every model of narrow models broad).

    Exact for small atom counts; above :data:`EXACT_ATOM_LIMIT` the check
    is randomized and a ``True`` answer means "no counterexample found".
    """
    atoms = sorted(narrow.constraints() | broad.constraints(), key=str)
    exhaustive = len(atoms) <= EXACT_ATOM_LIMIT
    for assignment in _assignments(atoms, exhaustive):
        if evaluate_assignment(narrow, assignment) and not evaluate_assignment(
            broad, assignment
        ):
            return False
    return True


def prop_equivalent(left: Query, right: Query) -> bool:
    """Propositional equivalence (implication both ways)."""
    atoms = sorted(left.constraints() | right.constraints(), key=str)
    exhaustive = len(atoms) <= EXACT_ATOM_LIMIT
    for assignment in _assignments(atoms, exhaustive):
        if evaluate_assignment(left, assignment) != evaluate_assignment(
            right, assignment
        ):
            return False
    return True


def prop_satisfiable(query: Query) -> bool:
    """Does any Boolean assignment to the constraints satisfy ``query``?

    Exhaustive up to :data:`EXACT_ATOM_LIMIT` atoms, randomized beyond —
    above the limit a ``False`` answer means "no model found", the same
    one-sided caveat as :func:`prop_implies`.  Used by the static analyzer
    to flag rule pairs whose conjoined emissions are contradictory.
    """
    atoms = sorted(query.constraints(), key=str)
    exhaustive = len(atoms) <= EXACT_ATOM_LIMIT
    for assignment in _assignments(atoms, exhaustive):
        if evaluate_assignment(query, assignment):
            return True
    return False


def empirical_subsumes(
    broad: Query,
    narrow: Query,
    dataset: Iterable,
    evaluator: Callable[[Query, object], bool],
) -> bool:
    """Does ``broad`` select a superset of ``narrow`` over ``dataset``?

    ``evaluator(query, item) -> bool`` supplies the semantics (typically
    :func:`repro.engine.eval.evaluate` partially applied to a schema).
    A ``True`` result is evidence of subsumption *on this dataset* — the
    empirical counterpart of Figure 1.
    """
    for item in dataset:
        if evaluator(narrow, item) and not evaluator(broad, item):
            return False
    return True


def empirical_equivalent(
    left: Query,
    right: Query,
    dataset: Iterable,
    evaluator: Callable[[Query, object], bool],
) -> bool:
    """Do both queries select the same subset of ``dataset``?"""
    for item in dataset:
        if evaluator(left, item) != evaluator(right, item):
            return False
    return True
