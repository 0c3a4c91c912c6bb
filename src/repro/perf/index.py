"""Compiled rule index — attribute-indexed rule dispatch for the matcher.

The naive matcher tries every rule of the specification against every
constraint universe.  Realistic libraries are wide (hundreds of rules)
while any one query touches a handful of attributes, so almost all of
that work is provably fruitless: a rule whose head contains a pattern
with a *literal* attribute name can only match a universe containing a
constraint on that attribute (``_quick_compatible`` re-derives this per
call today).

:class:`CompiledRuleIndex` hoists that screen out of the hot path, once
per specification:

* a per-rule **head signature** — the literal (attr, op, view) fields of
  every constraint pattern;
* the **required attribute set** per rule — the literal attr names that
  must all be present for any matching to exist;
* an **inverted index** attr → rules requiring that attr, so candidate
  rules are found by counting bucket hits instead of scanning the
  library.

Correctness: the screen is exactly the one ``match_rule`` applies via
``_quick_compatible`` — the index changes *which rules are probed*, never
what a probed rule returns, so matchings are bit-identical with and
without it (property-tested in ``tests/test_compile_properties.py``).

A specification is immutable, so its index can never go stale and
trusts its rule tuple without re-checking it per probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.ast import Constraint
from repro.core.matching import AttrPattern, Rule
from repro.obs import trace as obs
from repro.perf.compile import CompiledRule, compile_rule

if TYPE_CHECKING:
    from repro.rules.spec import MappingSpecification

__all__ = ["HeadSignature", "CompiledRuleIndex"]


@dataclass(frozen=True)
class HeadSignature:
    """The literal fields of one constraint pattern (``None`` = variable).

    Mirrors exactly the screens of ``matching._quick_compatible``: a
    constraint can satisfy the pattern only if every literal field
    matches.  Variable fields accept anything.
    """

    attr: str | None
    op: str | None
    view: str | None

    def admits(self, constraint: Constraint) -> bool:
        """Can ``constraint`` possibly satisfy this pattern?"""
        if self.op is not None and self.op != constraint.op:
            return False
        if self.attr is not None and self.attr != constraint.lhs.attr:
            return False
        if self.view is not None and self.view != constraint.lhs.view:
            return False
        return True


def _signature(rule: Rule) -> tuple[HeadSignature, ...]:
    sigs = []
    for pattern in rule.patterns:
        lhs = pattern.lhs
        attr = view = None
        if isinstance(lhs, AttrPattern):
            attr = lhs.attr if isinstance(lhs.attr, str) else None
            view = lhs.view if isinstance(lhs.view, str) else None
        op = pattern.op if isinstance(pattern.op, str) else None
        sigs.append(HeadSignature(attr=attr, op=op, view=view))
    return tuple(sigs)


class CompiledRuleIndex:
    """Per-specification candidate-rule dispatch (see module docstring).

    Built lazily by :meth:`MappingSpecification.compiled_index` and
    shared by every matcher of that specification.  It copies what it
    needs and holds no reference to the specification, so a retired
    specification is freed by refcounting alone.
    """

    __slots__ = (
        "_rules",
        "_signatures",
        "_required",
        "_wildcard",
        "_by_attr",
        "_compiled",
    )

    def __init__(self, spec: MappingSpecification):
        self._rules: tuple[Rule, ...] = spec.rules
        self._signatures: tuple[tuple[HeadSignature, ...], ...] = tuple(
            _signature(rule) for rule in spec.rules
        )
        self._required: tuple[frozenset[str], ...] = tuple(
            frozenset(sig.attr for sig in sigs if sig.attr is not None)
            for sigs in self._signatures
        )
        by_attr: dict[str, list[int]] = {}
        wildcard: list[int] = []
        for rule_id, required in enumerate(self._required):
            if not required:
                wildcard.append(rule_id)
                continue
            for name in required:
                by_attr.setdefault(name, []).append(rule_id)
        self._by_attr: dict[str, tuple[int, ...]] = {
            name: tuple(ids) for name, ids in by_attr.items()
        }
        self._wildcard: tuple[int, ...] = tuple(wildcard)
        # Compiled closures (repro.perf.compile), built lazily per rule on
        # first dispatch so index construction stays cheap for analysis
        # tooling that never matches.  Sharing the index's lifetime pins
        # every closure and memo to this specification.
        self._compiled: list[CompiledRule | None] = [None] * len(self._rules)

    # -- introspection ---------------------------------------------------------

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules

    def signature(self, rule_id: int) -> tuple[HeadSignature, ...]:
        """The precomputed head signature of rule ``rule_id``."""
        return self._signatures[rule_id]

    def required_attrs(self, rule_id: int) -> frozenset[str]:
        """Literal attr names rule ``rule_id`` needs present to match."""
        return self._required[rule_id]

    def __len__(self) -> int:
        return len(self._rules)

    # -- probing ---------------------------------------------------------------

    def candidate_ids(self, attrs: "set[str] | frozenset[str] | dict") -> list[int]:
        """Rule ids whose required attributes all appear in ``attrs``.

        A superset screen: every rule with a matching is returned, plus
        possibly rules the finer per-pattern pools then reject.  Output
        preserves specification rule order.
        """
        hits: dict[int, int] = {}
        for name in attrs:
            for rule_id in self._by_attr.get(name, ()):
                hits[rule_id] = hits.get(rule_id, 0) + 1
        ids = [rule_id for rule_id, n in hits.items() if n == len(self._required[rule_id])]
        ids.extend(self._wildcard)
        ids.sort()
        if obs.enabled():
            obs.count("perf.index.probes")
            obs.count("perf.index.candidates", len(ids))
            obs.count("perf.index.rules_skipped", len(self._rules) - len(ids))
        return ids

    def candidate_rules(self, constraints: "list[Constraint] | frozenset[Constraint]") -> list[Rule]:
        """The candidate :class:`Rule` objects for a constraint universe."""
        attrs = {c.lhs.attr for c in constraints}
        return [self._rules[rule_id] for rule_id in self.candidate_ids(attrs)]

    def pools(
        self,
        rule_id: int,
        by_attr: dict[str, list[Constraint]],
        ordered: list[Constraint],
    ) -> list[list[Constraint]] | None:
        """Per-pattern candidate constraint pools for rule ``rule_id``.

        ``by_attr`` groups the universe by attribute name (in ``ordered``
        order); ``ordered`` is the full universe.  Returns ``None`` when
        some pattern has no compatible constraint — the rule cannot match
        at all, exactly ``match_rule``'s empty-pool early exit.
        """
        pools: list[list[Constraint]] = []
        for sig in self._signatures[rule_id]:
            source = ordered if sig.attr is None else by_attr.get(sig.attr, [])
            if sig.op is None and sig.view is None and sig.attr is not None:
                pool = list(source)
            else:
                pool = [c for c in source if sig.admits(c)]
            if not pool:
                return None
            pools.append(pool)
        return pools

    # -- compiled dispatch -----------------------------------------------------

    def compiled(self, rule_id: int) -> CompiledRule:
        """The compiled closure for rule ``rule_id`` (built on first use).

        Compiled rules share the index's lifetime, so their memos live
        and die with the specification.
        """
        compiled = self._compiled[rule_id]
        if compiled is None:
            compiled = compile_rule(self._rules[rule_id])
            self._compiled[rule_id] = compiled
        return compiled

    def precompile(self) -> int:
        """Compile every rule now (spec-load / serve warm-up path).

        Returns the number of rules compiled by this call.  Dispatch
        compiles lazily anyway; warming up front keeps first-request
        latency flat in serving processes.
        """
        built = 0
        for rule_id, compiled in enumerate(self._compiled):
            if compiled is None:
                self._compiled[rule_id] = compile_rule(self._rules[rule_id])
                built += 1
        return built
