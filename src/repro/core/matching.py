"""Rule matching engine — computes ``M(Q̂, R)`` (Section 4.1).

A *mapping rule* has a head of constraint patterns plus conditions, and a
tail of value-conversion functions (``let``) plus an ``emit`` clause.  A
*matching* of rule ``R`` in a simple conjunction ``Q̂`` is a subset of Q̂'s
constraints that together satisfies the head; evaluating the tail on the
binding produces the emission — by Definition 3 the minimal subsuming
mapping of that constraint group.

Key facts exploited here:

* rules are not recursive and do not consume constraints (Section 4.4), so
  matchings are *monotone*: the matchings of any sub-conjunction are exactly
  the matchings of the full constraint set that fit inside it.  The
  :class:`Matcher` therefore "prematches" once against all constraints (the
  ``M_p`` of Section 7.1.3) and answers subset queries by filtering.
* matchings are identified by their constraint *set*; the same set reached
  through symmetric pattern assignments is one matching (emissions from
  distinct bindings are all kept and conjoined — for sound rules they are
  equivalent).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable, Mapping, Sequence

from repro.core.ast import AttrRef, Constraint, Query
from repro.core.errors import RuleError
from repro.obs import trace as obs

__all__ = [
    "Var",
    "ViewInstance",
    "AttrPattern",
    "ConstraintPattern",
    "Rule",
    "Matching",
    "RejectMatch",
    "Matcher",
    "match_rule",
]

Bindings = dict


@dataclass(frozen=True)
class Var:
    """A rule variable (written in capitals in the paper, e.g. ``P1``)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ViewInstance:
    """A bound view variable: view name plus instance index (Section 4.2).

    Rule R5's ``V1`` binds to, e.g., ``ViewInstance("fac", None)`` or
    ``ViewInstance("fac", 1)``.  :meth:`ref` builds target attribute
    references under this instance, as emissions like ``fac.aubib.name``
    require.
    """

    view: str
    index: int | None = None

    def ref(self, *path: str) -> AttrRef:
        """An AttrRef ``view[index].path...`` rooted at this instance."""
        if not path:
            raise ValueError("ViewInstance.ref needs at least one component")
        return AttrRef((self.view, *path), self.index)

    def __str__(self) -> str:
        return self.view if self.index is None else f"{self.view}[{self.index}]"


class RejectMatch(Exception):
    """Raised by a ``let`` function to veto a candidate matching.

    Lets conversion functions do value-dependent filtering (e.g. an unknown
    department code) without the rule author writing a separate condition.
    """


@dataclass(frozen=True)
class AttrPattern:
    """Pattern over an attribute reference.

    Each component is a literal, a :class:`Var`, or ``None`` (don't care):

    * ``view`` — the qualifying view; ``None`` accepts any qualification
      (including none), a ``Var`` binds a :class:`ViewInstance` and requires
      the reference to be qualified;
    * ``attr`` — the attribute name (a ``Var`` binds the name string);
    * ``index`` — the view-instance index; a ``Var`` binds the index (which
      may be ``None``: the paper reads ``fac.bib`` as ``fac[i].bib`` for
      any ``i``).
    """

    attr: str | Var
    view: str | Var | None = None
    index: int | Var | None = None


@dataclass(frozen=True)
class ConstraintPattern:
    """Pattern over one constraint ``[lhs op rhs]``.

    ``lhs`` is an :class:`AttrPattern`, or a :class:`Var` binding the whole
    :class:`AttrRef` (rule R3 of Figure 5 binds ``A1`` this way).  ``rhs``
    is a :class:`Var` (binds the value *or* joined AttrRef), a literal
    value, or an :class:`AttrPattern` (join patterns like R5's ``V2.ln``).
    """

    lhs: AttrPattern | Var
    op: str | Var
    rhs: object


@dataclass(frozen=True)
class Rule:
    """One mapping rule (Figure 3 / Figure 5 rows).

    ``conditions`` are predicates over the binding dict, evaluated once all
    patterns are assigned.  ``let`` computes derived values in order (the
    tail's conversion functions); a let function may raise
    :class:`RejectMatch`.  ``emit`` builds the target query from the final
    bindings.  ``exact=True`` declares the emission *equivalent* to the
    matched constraints (not merely subsuming); the filter builder of
    :mod:`repro.core.filters` uses this to compute the residue F of Eq. 3.
    ``exact`` may also be a predicate over the final bindings, for rules
    whose exactness is value-dependent (rule R4 is exact only when
    ``RewriteTextPat`` did not have to relax the pattern).
    """

    name: str
    patterns: tuple[ConstraintPattern, ...]
    emit: Callable[[Mapping], Query]
    conditions: tuple[Callable[[Mapping], bool], ...] = ()
    let: tuple[tuple[str, Callable[[Mapping], object]], ...] = ()
    exact: bool | Callable[[Mapping], bool] = False
    doc: str = ""

    def __post_init__(self) -> None:
        if not self.patterns:
            raise RuleError(f"rule {self.name!r} has no constraint patterns")

    def __str__(self) -> str:
        return f"Rule({self.name})"


@dataclass(frozen=True)
class Matching:
    """One matching: the constraint group, its rule, and the emission."""

    constraints: frozenset[Constraint]
    rule_name: str
    emission: Query
    exact: bool = False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(sorted(str(c) for c in self.constraints))
        return f"{{{body}}} --{self.rule_name}--> {self.emission}"


# ---------------------------------------------------------------------------
# Unification
# ---------------------------------------------------------------------------


def _bind(bindings: Bindings, var: Var, value: object) -> Bindings | None:
    """Extend ``bindings`` with ``var = value``; None on conflict."""
    if var.name in bindings:
        return bindings if bindings[var.name] == value else None
    extended = dict(bindings)
    extended[var.name] = value
    return extended


def _unify_attr(
    pattern: AttrPattern | Var, ref: AttrRef, bindings: Bindings
) -> Bindings | None:
    if isinstance(pattern, Var):
        return _bind(bindings, pattern, ref)
    # attribute name
    if isinstance(pattern.attr, Var):
        bindings = _bind(bindings, pattern.attr, ref.attr)
        if bindings is None:
            return None
    elif pattern.attr != ref.attr:
        return None
    # view qualifier
    if isinstance(pattern.view, Var):
        if ref.view is None:
            return None
        bindings = _bind(bindings, pattern.view, ViewInstance(ref.view, ref.index))
        if bindings is None:
            return None
    elif isinstance(pattern.view, str):
        if ref.view != pattern.view:
            return None
    # instance index
    if isinstance(pattern.index, Var):
        bindings = _bind(bindings, pattern.index, ref.index)
        if bindings is None:
            return None
    elif isinstance(pattern.index, int):
        if ref.index != pattern.index:
            return None
    return bindings


def _unify_constraint(
    pattern: ConstraintPattern, constraint: Constraint, bindings: Bindings
) -> Bindings | None:
    if isinstance(pattern.op, Var):
        bindings = _bind(bindings, pattern.op, constraint.op)
        if bindings is None:
            return None
    elif pattern.op != constraint.op:
        return None

    bindings = _unify_attr(pattern.lhs, constraint.lhs, bindings)
    if bindings is None:
        return None

    rhs_pattern = pattern.rhs
    if isinstance(rhs_pattern, Var):
        return _bind(bindings, rhs_pattern, constraint.rhs)
    if isinstance(rhs_pattern, AttrPattern):
        if not isinstance(constraint.rhs, AttrRef):
            return None
        return _unify_attr(rhs_pattern, constraint.rhs, bindings)
    return bindings if rhs_pattern == constraint.rhs else None


# ---------------------------------------------------------------------------
# Rule evaluation
# ---------------------------------------------------------------------------


def _quick_compatible(pattern: ConstraintPattern, constraint: Constraint) -> bool:
    """Cheap literal-field screen before full unification.

    Filters each pattern's candidate constraints by literal operator and
    attribute-name fields — variables pass everything.  Purely an
    optimization: unification re-checks all of it.
    """
    if isinstance(pattern.op, str) and pattern.op != constraint.op:
        return False
    lhs = pattern.lhs
    if isinstance(lhs, AttrPattern):
        if isinstance(lhs.attr, str) and lhs.attr != constraint.lhs.attr:
            return False
        if isinstance(lhs.view, str) and constraint.lhs.view != lhs.view:
            return False
    return True


def match_rule(rule: Rule, constraints: Sequence[Constraint]) -> list[Matching]:
    """All matchings of ``rule`` among ``constraints``.

    Patterns are assigned to *distinct* constraints (a matching is a set);
    different assignments yielding the same set and emission collapse.
    """
    candidates = [
        [c for c in constraints if _quick_compatible(pattern, c)]
        for pattern in rule.patterns
    ]
    if any(not pool for pool in candidates):
        return []
    results: list[Matching] = []
    seen: set[tuple[frozenset[Constraint], Query]] = set()
    _search(rule, candidates, 0, {}, [], results, seen)
    return results


def _search(
    rule: Rule,
    candidates: list[list[Constraint]],
    pattern_idx: int,
    bindings: Bindings,
    chosen: list[Constraint],
    results: list[Matching],
    seen: set,
) -> None:
    if pattern_idx == len(rule.patterns):
        _finish(rule, bindings, chosen, results, seen)
        return
    pattern = rule.patterns[pattern_idx]
    for constraint in candidates[pattern_idx]:
        if constraint in chosen:
            continue
        extended = _unify_constraint(pattern, constraint, bindings)
        if extended is None:
            continue
        chosen.append(constraint)
        _search(rule, candidates, pattern_idx + 1, extended, chosen, results, seen)
        chosen.pop()


def _finish(
    rule: Rule,
    bindings: Bindings,
    chosen: list[Constraint],
    results: list[Matching],
    seen: set,
) -> None:
    try:
        if not all(condition(bindings) for condition in rule.conditions):
            return
    except KeyError as exc:
        raise RuleError(f"rule {rule.name!r}: condition uses unbound variable {exc}") from exc

    final = dict(bindings)
    try:
        for name, fn in rule.let:
            final[name] = fn(final)
        emission = rule.emit(final)
    except RejectMatch:
        return
    except KeyError as exc:
        raise RuleError(f"rule {rule.name!r}: unbound variable {exc}") from exc

    if not isinstance(emission, Query):
        raise RuleError(
            f"rule {rule.name!r} emitted {emission!r}, which is not a Query"
        )
    exact = rule.exact(final) if callable(rule.exact) else rule.exact
    key = (frozenset(chosen), emission)
    if key in seen:
        return
    seen.add(key)
    results.append(
        Matching(frozenset(chosen), rule.name, emission, exact=exact)
    )


# ---------------------------------------------------------------------------
# Matcher with prematching cache
# ---------------------------------------------------------------------------


class Matcher:
    """Matchings over a fixed rule list, with the Section 7.1.3 prematch.

    ``potential(constraints)`` computes ``M_p`` once per distinct universe;
    ``matchings(subset)`` then answers any subset query by filtering, which
    is valid because matching is monotone (rules neither consume constraints
    nor look outside the matched group).

    Without an index, the prematch walks :func:`match_rule` over every
    rule — the paper's Fig. 4 as written, and the reference oracle the
    fast path is tested against.  ``index`` (a
    :class:`repro.perf.index.CompiledRuleIndex` built over the *same*
    rule tuple) narrows each prematch to the rules whose head signatures
    can bind the universe and dispatches each through its **compiled
    closure** (:mod:`repro.perf.compile`); the matchings, their order and
    their exactness are identical to the oracle's.
    ``MappingSpecification.matcher()`` attaches the index automatically;
    specifications are immutable, so the index never goes stale.
    """

    def __init__(self, rules: Sequence[Rule], index=None):
        self.rules = tuple(rules)
        if index is not None and len(index) != len(self.rules):
            raise RuleError(
                f"compiled index covers {len(index)} rules but the matcher "
                f"got {len(self.rules)}"
            )
        self._index = index
        self._universe: frozenset[Constraint] | None = None
        self._potential: list[Matching] = []

    def potential(self, constraints: Iterable[Constraint]) -> list[Matching]:
        """``M_p``: all matchings over the constraint universe seen so far.

        The universe only grows: the EDNF of a *subquery* must still see
        potential matchings reaching outside it (Section 7.1.3 keeps
        ``f_l`` essential exactly because of the cross-matching with the
        ``f_f`` elsewhere in the tree).  Use a fresh matcher per
        translation so universes of unrelated queries don't mix.
        """
        universe = frozenset(constraints) | (self._universe or frozenset())
        if universe != self._universe:
            ordered = sorted(universe, key=str)
            found: list[Matching] = []
            if self._index is not None:
                by_attr: dict[str, list[Constraint]] = {}
                for constraint in ordered:
                    by_attr.setdefault(constraint.lhs.attr, []).append(constraint)
                candidates = self._index.candidate_ids(by_attr)
                if obs.enabled():
                    obs.count("matcher.prematch.misses")
                    obs.count("matcher.rules_tried", len(candidates))
                for rule_id in candidates:
                    pools = self._index.pools(rule_id, by_attr, ordered)
                    if pools is not None:
                        found.extend(self._index.compiled(rule_id).matchings(pools))
            else:
                if obs.enabled():
                    obs.count("matcher.prematch.misses")
                    obs.count("matcher.rules_tried", len(self.rules))
                for rule in self.rules:
                    found.extend(match_rule(rule, ordered))
            self._universe = universe
            self._potential = found
            obs.count("matcher.matchings", len(found))
        else:
            obs.count("matcher.prematch.hits")
        return list(self._potential)

    def matchings(self, constraints: Iterable[Constraint]) -> list[Matching]:
        """``M(Q̂, K)`` for the conjunction of ``constraints``."""
        subset = frozenset(constraints)
        cached = self._universe is not None and subset <= self._universe
        if obs.enabled():
            obs.count("matcher.subset_queries")
            if cached:
                obs.count("matcher.prematch.hits")
        if not cached:
            self.potential(subset | (self._universe or frozenset()))
        return [m for m in self._potential if m.constraints <= subset]
