"""Grammar-restricted native interfaces and the wrapper that drives them.

Section 3 contrasts vocabmap with capability-description frameworks
(QDTL, RQDL, CFG, ODL) whose templates capture *grammatic* restrictions:
"allowing conjunctions of two constraints, disallowing disjunctions,
etc.".  Those restrictions are real — web forms accept one value per
field, many APIs take only conjunctions — and they are orthogonal to the
vocabulary mapping this library is about.  This module adds them to the
simulated sources:

* :class:`QueryGrammar` — the template: may the native call contain
  disjunctions?  how many constraints at most?  which attributes *must*
  be bound (mandatory binding patterns, §3's related work)?
* :class:`Wrapper` — the paper's wrapper role (§2): given a translated
  query that conforms to the source's *vocabulary* but not its *grammar*,
  it splits disjunctions into several native calls, pushes the largest
  conforming prefix of each conjunction, and re-applies the full query
  locally (the wrapper runs at the source, so it can evaluate anything in
  the source's own vocabulary).  The combined result equals what an
  unrestricted source would return.

The wrapper's local re-check makes every compensation *sound*: dropping a
constraint from a native call only widens it, and the re-check narrows
the result back.  Result bags are de-duplicated across the per-disjunct
calls by tuple value, which is exact whenever the underlying relations
are duplicate-free (the simulated stores are).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.ast import And, BoolConst, Constraint, Or, Query, conj
from repro.core.dnf import dnf_terms
from repro.core.errors import CapabilityError
from repro.engine.eval import compile_predicate

__all__ = ["QueryGrammar", "Wrapper"]


@dataclass(frozen=True)
class QueryGrammar:
    """Native query-form restrictions (a QDTL/RQDL-style template).

    * ``allow_disjunction`` — may a native call contain ``OR``?
    * ``max_constraints`` — cap on constraints per native call
      (``None`` = unlimited);
    * ``required_attrs`` — attributes every native call must bind (a web
      form with a mandatory author field, the binding patterns of §3's
      related work).
    """

    allow_disjunction: bool = True
    max_constraints: int | None = None
    required_attrs: frozenset = frozenset()

    def violations(self, query: Query) -> list[str]:
        """Human-readable reasons the query doesn't fit the template."""
        problems: list[str] = []
        if not self.allow_disjunction and _has_disjunction(query):
            problems.append("native interface accepts no disjunctions")
        count = len(list(query.iter_constraints()))
        if self.max_constraints is not None and count > self.max_constraints:
            problems.append(
                f"native interface accepts at most {self.max_constraints} "
                f"constraints, got {count}"
            )
        bound = {c.lhs.attr for c in query.constraints()}
        missing = set(self.required_attrs) - bound
        if missing:
            problems.append(
                f"native interface requires bindings for {sorted(missing)}"
            )
        return problems

    def check(self, query: Query, target: str = "target") -> None:
        problems = self.violations(query)
        if problems:
            raise CapabilityError(f"{target}: " + "; ".join(problems))


def _has_disjunction(query: Query) -> bool:
    if isinstance(query, Or):
        return True
    if isinstance(query, And):
        return any(_has_disjunction(child) for child in query.children)
    return False


class Wrapper:
    """Drives a grammar-restricted source with arbitrary translated queries.

    The compensation strategy (all steps subsuming, then re-filtered):

    1. if the query has disjunctions the grammar forbids, plan one native
       call per DNF disjunct;
    2. within each call, keep at most ``max_constraints`` constraints
       (preferring the call's own order) — the dropped remainder widens
       the call;
    3. a call that cannot satisfy ``required_attrs`` degrades to a full
       scan (``true``) — maximally wide but still sound;
    4. re-evaluate the *full* original query on every returned
       combination using the source's own virtuals, and de-duplicate
       across calls.
    """

    def __init__(self, source, grammar: QueryGrammar):
        self.source = source
        self.grammar = grammar

    # -- planning ----------------------------------------------------------------

    def plan_calls(self, query: Query) -> list[Query]:
        """The native calls used to answer ``query`` (before re-filtering)."""
        if not self.grammar.violations(query):
            return [query]

        if self.grammar.allow_disjunction:
            branches: list[Query] = [query]
        else:
            branches = [
                conj(sorted(term, key=str)) if term else _true()
                for term in dnf_terms(query)
            ]
            if not branches:
                return []

        calls = []
        for branch in branches:
            calls.append(self._fit(branch))
        return calls

    def _fit(self, branch: Query) -> Query:
        """Shrink one conjunctive branch into the template, subsumingly."""
        if isinstance(branch, BoolConst):
            return branch
        constraints = (
            list(branch.children)
            if isinstance(branch, And)
            else [branch]
        )
        constraints = [c for c in constraints if isinstance(c, Constraint)]

        if self.grammar.required_attrs:
            bound = {c.lhs.attr for c in constraints}
            if set(self.grammar.required_attrs) - bound:
                # Cannot form a legal native call: degrade to a scan.
                return _true()

        limit = self.grammar.max_constraints
        if limit is not None and len(constraints) > limit:
            # Keep required bindings first, then the leading constraints.
            required = [
                c for c in constraints if c.lhs.attr in self.grammar.required_attrs
            ]
            rest = [c for c in constraints if c not in required]
            constraints = (required + rest)[:limit]
        return conj(constraints)

    # -- execution ----------------------------------------------------------------

    def select(self, instances: Mapping[tuple, str], query: Query) -> list[dict]:
        """Answer ``query`` exactly, through grammar-conforming calls."""
        calls = self.plan_calls(query)
        keys = list(instances)
        predicate = compile_predicate(query, keys, self.source.virtuals)
        seen: set = set()
        out: list[dict] = []
        for call in calls:
            self.grammar.check(call, target=f"wrapper for {self.source.name!r}")
            for bound in self.source.select(instances, call):
                key = _row_key(bound)
                if key in seen:
                    continue
                if predicate([bound[instance] for instance in keys]):
                    seen.add(key)
                    out.append(bound)
        return out

    def select_rows(self, relation: str, query: Query) -> list[dict]:
        key = ((), None)
        return [bound[key] for bound in self.select({key: relation}, query)]


def _true() -> Query:
    from repro.core.ast import TRUE

    return TRUE


def _row_key(bound: Mapping) -> tuple:
    return tuple(
        (key, tuple(sorted((k, str(v)) for k, v in row.items())))
        for key, row in sorted(bound.items(), key=str)
    )
