"""Algorithm PSafe — partitioning conjuncts into safe, minimal blocks
(Figure 11, Section 7.2).

Given a conjunction ``Q̂ = Č1 ∧ ... ∧ Čn``, find a partition of the
conjuncts such that the blocks can be translated independently
(``S(Q̂) = S(∧B1) ... S(∧Bm)``, Theorem 6) and no block can be split
further safely.

Step 1 walks every disjunct of ``D(Q̂)`` (built from the conjuncts'
*essential* DNF — Lemma 3 proves this equivalent to full DNF), finds the
cross-matchings, and enumerates the candidate blocks that *minimally
cover* each one.  Step 2 selects a minimal family of candidate blocks
covering all cross-matchings, merges overlapping chosen blocks, and gives
every untouched conjunct its own singleton block.

A cross-matching occurring in different disjunct terms counts as a
distinct covering obligation (Example 14 treats ``m1``/``m2`` this way) —
that distinction is what forces the merge in Example 13's ``Q̂_b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from repro.core.ast import Constraint, Query
from repro.core.ednf import Term, constraint_set_key, ednf
from repro.core.errors import TranslationError
from repro.core.matching import Matcher
from repro.obs import trace as obs

__all__ = [
    "CrossMatching",
    "PSafeResult",
    "base_cross_matchings",
    "psafe",
    "psafe_partition",
]

#: Above this many candidate blocks, step 2 switches from exact
#: minimum-cover search to a deterministic greedy + irredundancy prune.
_EXACT_COVER_LIMIT = 14


@dataclass(frozen=True)
class CrossMatching:
    """One covering obligation: a cross-matching inside one disjunct term.

    ``term_id`` identifies the disjunct of ``D(Q̂)`` it was found in;
    ``candidates`` are the conjunct-index blocks that minimally cover it.
    """

    term_id: int
    constraints: frozenset[Constraint]
    candidates: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class PSafeResult:
    """Partition plus the evidence it was derived from."""

    blocks: tuple[tuple[int, ...], ...]
    cross_matchings: tuple[CrossMatching, ...]
    chosen_blocks: tuple[frozenset[int], ...]

    @property
    def is_fully_separable(self) -> bool:
        """True when every conjunct landed in its own block (safe Q̂)."""
        return all(len(block) == 1 for block in self.blocks)


def psafe(
    conjuncts: list[Query], matcher: Matcher, use_ednf: bool = True
) -> PSafeResult:
    """Partition the conjuncts of ``∧(conjuncts)`` safely and minimally.

    ``use_ednf=False`` switches to the brute-force full-DNF variant of
    Section 7.1.3 — same partition by Lemma 3, exponentially more terms to
    examine.  It exists for the ablation bench; leave it on.
    """
    n = len(conjuncts)
    if n == 0:
        raise TranslationError("psafe needs at least one conjunct")
    if not obs.enabled():
        return _psafe(conjuncts, matcher, use_ednf, n)
    with obs.span("psafe", conjuncts=n):
        obs.count("psafe.calls")
        result = _psafe(conjuncts, matcher, use_ednf, n)
        obs.count("psafe.cross_matchings", len(result.cross_matchings))
        obs.count("psafe.blocks", len(result.blocks))
        if result.chosen_blocks:
            obs.gauge_max(
                "psafe.cover_size_max", max(len(b) for b in result.chosen_blocks)
            )
        return result


def _psafe(
    conjuncts: list[Query], matcher: Matcher, use_ednf: bool, n: int
) -> PSafeResult:
    # Seed M_p with the whole conjunction's constraints before computing
    # any per-conjunct EDNF — a conjunct's essential constraints are the
    # ones participating in matchings that may reach *outside* it.
    universe: set = set()
    for child in conjuncts:
        universe |= child.constraints()
    matcher.potential(universe)
    if use_ednf:
        essentials = [ednf(child, matcher).essential for child in conjuncts]
    else:
        from repro.core.dnf import dnf_terms

        essentials = [dnf_terms(child) for child in conjuncts]
    obligations = _find_cross_matchings(essentials, matcher)
    chosen = _choose_blocks(obligations)
    blocks = _assemble_partition(chosen, n)
    return PSafeResult(
        blocks=blocks,
        cross_matchings=tuple(obligations),
        chosen_blocks=tuple(chosen),
    )


def psafe_partition(conjuncts: list[Query], matcher: Matcher) -> list[list[int]]:
    """Just the partition, as lists of conjunct indices."""
    return [list(block) for block in psafe(conjuncts, matcher).blocks]


# ---------------------------------------------------------------------------
# Step 1: cross-matchings and their candidate blocks
# ---------------------------------------------------------------------------


def _find_cross_matchings(
    essentials: list[list[Term]], matcher: Matcher
) -> list[CrossMatching]:
    obligations: list[CrossMatching] = []
    term_id = 0
    for combo in product(*essentials):
        ingredients = list(combo)
        for m in base_cross_matchings(ingredients, matcher):
            candidates = _minimal_covers(m, ingredients)
            if not candidates:
                raise TranslationError(
                    f"cross-matching {sorted(map(str, m))} has no covering "
                    f"block; the EDNF terms are inconsistent"
                )
            obligations.append(
                CrossMatching(
                    term_id=term_id,
                    constraints=m,
                    candidates=tuple(candidates),
                )
            )
        term_id += 1
    return obligations


def base_cross_matchings(
    conjuncts: list[frozenset[Constraint]], matcher: Matcher
) -> list[frozenset[Constraint]]:
    """δ of Definition 5: matchings of the whole not inside any conjunct.

    Empty conjuncts (EDNF's ε terms) hold no matching, so they are not asked.
    """
    union = frozenset().union(*conjuncts)
    if not union:
        return []
    whole = {m.constraints for m in matcher.matchings(union)}
    inside: set[frozenset[Constraint]] = set()
    for conjunct in conjuncts:
        if conjunct:
            inside.update(m.constraints for m in matcher.matchings(conjunct))
    return sorted(whole - inside, key=constraint_set_key)


def _minimal_covers(
    m: frozenset[Constraint], ingredients: list[Term]
) -> list[frozenset[int]]:
    """All minimal conjunct-index sets whose ingredients cover ``m``."""
    relevant = [i for i, ing in enumerate(ingredients) if ing & m]
    covers: list[frozenset[int]] = []
    for size in range(1, len(relevant) + 1):
        for subset in combinations(relevant, size):
            covered = Term().union(*(ingredients[i] for i in subset))
            if not m <= covered:
                continue
            block = frozenset(subset)
            if any(existing < block for existing in covers):
                continue  # not minimal: a smaller cover is inside it
            covers.append(block)
    return covers


# ---------------------------------------------------------------------------
# Step 2: choose a minimal family of blocks covering every obligation
# ---------------------------------------------------------------------------


def _choose_blocks(obligations: list[CrossMatching]) -> list[frozenset[int]]:
    if not obligations:
        return []
    universe: list[frozenset[int]] = []
    for obligation in obligations:
        for block in obligation.candidates:
            if block not in universe:
                universe.append(block)
    universe.sort(key=lambda b: (len(b), sorted(b)))

    def covers_all(family: tuple[frozenset[int], ...]) -> bool:
        chosen = set(family)
        return all(
            any(candidate in chosen for candidate in obligation.candidates)
            for obligation in obligations
        )

    if len(universe) <= _EXACT_COVER_LIMIT:
        for size in range(1, len(universe) + 1):
            for family in combinations(universe, size):
                if covers_all(family):
                    return list(family)
        raise TranslationError("no block family covers all cross-matchings")

    # Greedy fallback for very large candidate sets, then prune to an
    # irredundant (minimal) cover.
    remaining = list(obligations)
    chosen: list[frozenset[int]] = []
    while remaining:
        best = max(
            universe,
            key=lambda b: (
                sum(1 for o in remaining if b in o.candidates),
                -len(b),
                [-i for i in sorted(b)],
            ),
        )
        gained = [o for o in remaining if best in o.candidates]
        if not gained:
            raise TranslationError("no block family covers all cross-matchings")
        chosen.append(best)
        remaining = [o for o in remaining if best not in o.candidates]
    for block in list(chosen):
        trimmed = [b for b in chosen if b != block]
        if trimmed and covers_all(tuple(trimmed)):
            chosen = trimmed
    return chosen


# ---------------------------------------------------------------------------
# Assembly: merge overlaps, add singletons
# ---------------------------------------------------------------------------


def _assemble_partition(
    chosen: list[frozenset[int]], n: int
) -> tuple[tuple[int, ...], ...]:
    merged: list[set[int]] = []
    for block in chosen:
        group = set(block)
        absorbed = [g for g in merged if g & group]
        for g in absorbed:
            group |= g
            merged.remove(g)
        merged.append(group)
    covered = set().union(*merged) if merged else set()
    for i in range(n):
        if i not in covered:
            merged.append({i})
    blocks = [tuple(sorted(group)) for group in merged]
    blocks.sort(key=lambda block: block[0])
    return tuple(blocks)
