"""Ahead-of-time rule compilation — closures for the matcher hot path.

The interpreted matcher (:func:`repro.core.matching.match_rule`) walks a
rule's patterns with a generic, ``isinstance``-dispatched unifier and
re-evaluates conditions, ``let`` chains, and ``emit`` templates for every
matching of every translation.  But a specification's rules never
change, so all of that dispatch can be decided once per rule:

* each :class:`~repro.core.matching.ConstraintPattern` compiles to a
  **specialized unifier closure** containing only the steps its variable
  fields actually need — the literal (attr, op, view) fields are already
  screened by the rule's head signature before the pool ever reaches us
  (see :meth:`repro.perf.index.CompiledRuleIndex.pools`), so the common
  single-variable pattern compiles down to one dict operation;
* conditions, the ``let`` chain, ``emit``, and ``exact`` are pre-bound in
  a **finish closure**, and its outcome is memoized per assignment: rule
  tails are pure functions of the binding (the same contract the
  TranslationCache already relies on), so each distinct constraint
  assignment is evaluated once per specification, after which a
  matching is a dictionary hit.

Compiled rules are registered in the :class:`~repro.perf.index.
CompiledRuleIndex`, so they share its lifetime: a hot reload that
retires a specification frees the index together with every compiled
closure and memo built from its rule set.

Bit-identity: for any pool sequence, :meth:`CompiledRule.matchings`
returns exactly what ``match_rule`` returns — same matchings, same
discovery order, same deduplication, same error behaviour (property-
tested against the linear ``Matcher(spec.rules)`` oracle in
``tests/test_compile_properties.py``).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.ast import AttrRef, Constraint, Query
from repro.core.errors import RuleError
from repro.core.matching import (
    AttrPattern,
    ConstraintPattern,
    Matching,
    RejectMatch,
    Rule,
    Var,
    ViewInstance,
    _unify_attr,
)
from repro.obs import trace as obs

__all__ = ["CompiledRule", "compile_rule"]

Bindings = dict

#: One unification step: extend the bindings against one constraint, or
#: ``None`` on mismatch.  Steps never mutate the dict they are given.
Step = Callable[[Constraint, Bindings], "Bindings | None"]

_ABSENT = object()

#: Memo sentinel: this assignment unifies/finishes to *no* matching
#: (unification conflict, failed condition, or RejectMatch veto).
_NO_MATCH = object()

#: Bound on each rule's per-assignment memo; reached in practice only by
#: adversarial workloads, where dropping warmth beats growing without
#: limit inside a long-lived serve worker.
_MEMO_CAP = 16384


# ---------------------------------------------------------------------------
# Pattern compilation: specialize the unifier per pattern
# ---------------------------------------------------------------------------


def _bind_step(name: str, getter: Callable[[Constraint], object]) -> Step:
    """Bind variable ``name`` to ``getter(constraint)`` (conflict = fail)."""

    def step(constraint: Constraint, bindings: Bindings) -> Bindings | None:
        value = getter(constraint)
        current = bindings.get(name, _ABSENT)
        if current is _ABSENT:
            extended = dict(bindings)
            extended[name] = value
            return extended
        return bindings if current == value else None

    return step


def _bind_view_step(name: str) -> Step:
    """Bind a view variable to a ViewInstance; unqualified refs fail."""

    def step(constraint: Constraint, bindings: Bindings) -> Bindings | None:
        ref = constraint.lhs
        view = ref.view
        if view is None:
            return None
        value = ViewInstance(view, ref.index)
        current = bindings.get(name, _ABSENT)
        if current is _ABSENT:
            extended = dict(bindings)
            extended[name] = value
            return extended
        return bindings if current == value else None

    return step


def _check_index_step(index: int) -> Step:
    def step(constraint: Constraint, bindings: Bindings) -> Bindings | None:
        return bindings if constraint.lhs.index == index else None

    return step


def _check_rhs_step(value: object) -> Step:
    def step(constraint: Constraint, bindings: Bindings) -> Bindings | None:
        return bindings if value == constraint.rhs else None

    return step


def _rhs_attr_step(pattern: AttrPattern) -> Step:
    """Join patterns: unify the rhs AttrRef against an AttrPattern.

    Falls back to the interpreted attribute unifier — join patterns are
    rare and carry the full (attr, view, index) generality, so the
    specialized win is in skipping them for every non-join rule.
    """

    def step(constraint: Constraint, bindings: Bindings) -> Bindings | None:
        rhs = constraint.rhs
        if not isinstance(rhs, AttrRef):
            return None
        return _unify_attr(pattern, rhs, bindings)

    return step


def _compile_pattern(pattern: ConstraintPattern) -> Step:
    """The specialized unifier for one constraint pattern.

    Relies on the caller feeding pools pre-screened by the pattern's
    :class:`~repro.perf.index.HeadSignature` (literal attr/op/view), so
    only the fields the signature cannot express become steps here: every
    ``Var``, literal instance indexes, and the whole rhs.
    """
    steps: list[Step] = []
    if isinstance(pattern.op, Var):
        steps.append(_bind_step(pattern.op.name, lambda c: c.op))
    lhs = pattern.lhs
    if isinstance(lhs, Var):
        steps.append(_bind_step(lhs.name, lambda c: c.lhs))
    else:
        if isinstance(lhs.attr, Var):
            steps.append(_bind_step(lhs.attr.name, lambda c: c.lhs.attr))
        if isinstance(lhs.view, Var):
            steps.append(_bind_view_step(lhs.view.name))
        if isinstance(lhs.index, Var):
            steps.append(_bind_step(lhs.index.name, lambda c: c.lhs.index))
        elif isinstance(lhs.index, int):
            steps.append(_check_index_step(lhs.index))
    rhs = pattern.rhs
    if isinstance(rhs, Var):
        steps.append(_bind_step(rhs.name, lambda c: c.rhs))
    elif isinstance(rhs, AttrPattern):
        steps.append(_rhs_attr_step(rhs))
    else:
        steps.append(_check_rhs_step(rhs))

    if not steps:
        return lambda constraint, bindings: bindings
    if len(steps) == 1:
        return steps[0]
    chain = tuple(steps)

    def unify(constraint: Constraint, bindings: Bindings) -> Bindings | None:
        maybe: Bindings | None = bindings
        for step in chain:
            maybe = step(constraint, maybe)
            if maybe is None:
                return None
        return maybe

    return unify


# ---------------------------------------------------------------------------
# Compiled rule: specialized unifiers + memoized finish closure
# ---------------------------------------------------------------------------


class CompiledRule:
    """One rule compiled to closures (see module docstring).

    Obtain instances through :meth:`repro.perf.index.CompiledRuleIndex.
    compiled` (or :func:`compile_rule` directly in tests): the index owns
    the compiled rules of one specification, which scopes every memo to
    exactly one rule set.
    """

    __slots__ = ("rule", "name", "_unifiers", "_finish", "_memo", "_single")

    def __init__(self, rule: Rule):
        self.rule = rule
        self.name = rule.name
        self._unifiers: tuple[Step, ...] = tuple(
            _compile_pattern(pattern) for pattern in rule.patterns
        )
        self._single = len(self._unifiers) == 1
        self._finish = _compile_finish(rule)
        #: assignment tuple -> Matching | _NO_MATCH.  Keys are the chosen
        #: constraints in pattern order, which determine the binding (and
        #: with it the emission) uniquely for a pure rule tail.
        self._memo: dict = {}

    def matchings(self, pools: list[list[Constraint]]) -> list[Matching]:
        """All matchings over per-pattern candidate ``pools``.

        ``pools[i]`` must contain only constraints admitted by pattern
        ``i``'s head signature, in universe order — exactly what
        :meth:`~repro.perf.index.CompiledRuleIndex.pools` produces.
        Bit-identical to ``match_rule(rule, ordered)`` over the universe
        the pools were screened from.
        """
        results: list[Matching] = []
        memo = self._memo
        hits = 0
        if self._single:
            unify = self._unifiers[0]
            finish = self._finish
            append = results.append
            for constraint in pools[0]:
                entry = memo.get(constraint, _ABSENT)
                if entry is _ABSENT:
                    bindings = unify(constraint, {})
                    if bindings is None:
                        entry = _NO_MATCH
                    else:
                        outcome = finish(bindings)
                        if outcome is None:
                            entry = _NO_MATCH
                        else:
                            emission, exact = outcome
                            entry = Matching(
                                frozenset((constraint,)), self.name, emission, exact=exact
                            )
                    if len(memo) >= _MEMO_CAP:
                        memo.clear()
                    memo[constraint] = entry
                else:
                    hits += 1
                if entry is not _NO_MATCH:
                    append(entry)
        else:
            hits = self._search_all(pools, results)
        if obs.enabled():
            obs.count("perf.compile.dispatches")
            obs.count("perf.compile.matchings", len(results))
            if hits:
                obs.count("perf.compile.memo_hits", hits)
        return results

    def _search_all(self, pools: list[list[Constraint]], results: list[Matching]) -> int:
        """Multi-pattern backtracking search, memoized at the leaves.

        Mirrors ``matching._search`` exactly: patterns are assigned to
        distinct constraints in pool order, and different assignments
        collapsing to the same (constraint set, emission) dedupe.
        """
        unifiers = self._unifiers
        depth = len(unifiers)
        memo = self._memo
        name = self.name
        finish = self._finish
        seen: set = set()
        hits = 0

        def descend(idx: int, bindings: Bindings, chosen: list[Constraint]) -> None:
            nonlocal hits
            if idx == depth:
                key = tuple(chosen)
                entry = memo.get(key, _ABSENT)
                if entry is _ABSENT:
                    outcome = finish(bindings)
                    if outcome is None:
                        entry = _NO_MATCH
                    else:
                        emission, exact = outcome
                        entry = Matching(frozenset(chosen), name, emission, exact=exact)
                    if len(memo) >= _MEMO_CAP:
                        memo.clear()
                    memo[key] = entry
                else:
                    hits += 1
                if entry is _NO_MATCH:
                    return
                dedup = (entry.constraints, entry.emission)
                if dedup in seen:
                    return
                seen.add(dedup)
                results.append(entry)
                return
            unify = unifiers[idx]
            for constraint in pools[idx]:
                if constraint in chosen:
                    continue
                extended = unify(constraint, bindings)
                if extended is None:
                    continue
                chosen.append(constraint)
                descend(idx + 1, extended, chosen)
                chosen.pop()

        descend(0, {}, [])
        return hits

    def memo_size(self) -> int:
        """Current number of memoized assignments (introspection/tests)."""
        return len(self._memo)


def _compile_finish(rule: Rule) -> Callable[[Bindings], "tuple[Query, bool] | None"]:
    """Pre-bind the rule tail: conditions → let chain → emit → exact.

    The returned closure evaluates a complete binding to ``(emission,
    exact)`` or ``None`` (condition failure / RejectMatch), raising the
    same :class:`RuleError`\\ s as the interpreted ``matching._finish``.
    """
    name = rule.name
    conditions = rule.conditions
    let = rule.let
    emit = rule.emit
    exact_spec = rule.exact
    exact_callable = callable(exact_spec)

    def finish(bindings: Bindings) -> tuple[Query, bool] | None:
        try:
            for condition in conditions:
                if not condition(bindings):
                    return None
        except KeyError as exc:
            raise RuleError(
                f"rule {name!r}: condition uses unbound variable {exc}"
            ) from exc
        final = dict(bindings)
        try:
            for var, fn in let:
                final[var] = fn(final)
            emission = emit(final)
        except RejectMatch:
            return None
        except KeyError as exc:
            raise RuleError(f"rule {name!r}: unbound variable {exc}") from exc
        if not isinstance(emission, Query):
            raise RuleError(
                f"rule {name!r} emitted {emission!r}, which is not a Query"
            )
        # Keep the raw value (not bool()): bit-identity with _finish extends
        # to the Matching.exact field.
        exact = exact_spec(final) if exact_callable else exact_spec
        return emission, exact

    return finish


def compile_rule(rule: Rule) -> CompiledRule:
    """Compile one rule; see :class:`CompiledRule` for the contract."""
    compiled = CompiledRule(rule)
    if obs.enabled():
        obs.count("perf.compile.rules_compiled")
    return compiled
