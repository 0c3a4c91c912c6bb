"""Mapping specifications — a named rule set for one target (Definition 4).

A :class:`MappingSpecification` bundles the rules ``K`` for translating
into one target context, e.g. ``K_Amazon`` of Figure 3.  The specification
is the unit every algorithm takes as its ``K`` input.

Soundness and completeness (Definition 3/4) are *semantic* properties only
a human expert can certify; what the library can do mechanically is

* structural validation (unique rule names, non-empty heads), and
* a **vocabulary audit** (:func:`audit_vocabulary`): report which of a set
  of representative constraints participate in *no* matching — i.e. would
  silently map to ``True`` — so the integrator can spot missing rules.

A specification is immutable: changing a rule set means building a new
specification (hot reload swaps one in whole).  Its only identity is
:attr:`MappingSpecification.content_digest`, a digest of what it
contains.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.ast import Constraint
from repro.core.errors import SpecificationError
from repro.core.matching import Matcher, Rule

if TYPE_CHECKING:
    from repro.perf.index import CompiledRuleIndex

__all__ = ["MappingSpecification", "AuditReport", "audit_vocabulary"]

_DIGEST_SEP = "\x1f"


def _content_digest(spec: "MappingSpecification") -> str:
    """sha256 over the declarative rule surface (see ``content_digest``)."""
    parts = [spec.name, spec.target, str(len(spec.rules))]
    for rule in spec.rules:
        exactness = str(rule.exact) if isinstance(rule.exact, bool) else "<dynamic>"
        parts.extend((rule.name, rule.doc, exactness, str(len(rule.conditions))))
        parts.extend(repr(pattern) for pattern in rule.patterns)
    digest = hashlib.sha256(_DIGEST_SEP.join(parts).encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class MappingSpecification:
    """The mapping specification ``K`` for one target system ``T``."""

    name: str
    target: str
    rules: tuple[Rule, ...]
    description: str = ""

    if TYPE_CHECKING:
        # Populated in __post_init__; not dataclass fields (the guard keeps
        # them out of __annotations__ at runtime).
        _rules_by_name: dict[str, Rule]
        _digest: str | None
        _compiled_index: CompiledRuleIndex | None

    def __post_init__(self) -> None:
        counts = Counter(rule.name for rule in self.rules)
        duplicates = sorted(name for name, seen in counts.items() if seen > 1)
        if duplicates:
            raise SpecificationError(
                f"specification {self.name!r} has duplicate rule names: {duplicates}"
            )
        # Rule lookup index; names are unique, so this is total.  The
        # dataclass is frozen, hence the object.__setattr__ back door.
        object.__setattr__(
            self, "_rules_by_name", {rule.name: rule for rule in self.rules}
        )
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, "_compiled_index", None)

    # -- identity + compiled index ---------------------------------------------

    @property
    def content_digest(self) -> str:
        """The specification's identity: a digest of what it contains.

        A specification is immutable, so this never changes, and it is
        stable across processes and restarts.  The translation cache,
        snapshots, the registry and hot reload all key on it.

        A specification loaded from a declarative payload
        (:func:`~repro.rules.declarative.spec_from_dict`) digests the
        whole payload, so an edit to any field — an ``emit``, a ``let``,
        a ``where`` — changes it.  One built in Python digests its rule
        surface (rule names, docs, constraint patterns, condition counts
        and static exactness), because closures cannot be hashed: a
        behavioural change hidden inside an emit/condition closure is not
        detectable, so rename the rule (or touch its doc) when changing
        its semantics.
        """
        digest = self._digest
        if digest is None:
            digest = _content_digest(self)
            object.__setattr__(self, "_digest", digest)
        return digest

    def compiled_index(self) -> CompiledRuleIndex:
        """The :class:`CompiledRuleIndex` for this rule set.

        Built lazily on first use and shared by every subsequent
        :meth:`matcher`; the rule set never changes, so neither does the
        index.
        """
        index = self._compiled_index
        if index is None:
            from repro.perf.index import CompiledRuleIndex

            index = CompiledRuleIndex(self)
            object.__setattr__(self, "_compiled_index", index)
        return index

    def matcher(self) -> Matcher:
        """A fresh :class:`Matcher` over this specification's rules.

        Each translation call should use its own matcher so the prematch
        cache is scoped to one query's constraint universe.  The matcher
        carries the specification's compiled rule index, so it probes
        only rules whose heads can bind the constraint group, through
        their compiled closures (:mod:`repro.perf.compile`).
        """
        return Matcher(self.rules, index=self.compiled_index())

    def get_rule(self, name: str) -> Rule:
        try:
            return self._rules_by_name[name]
        except KeyError:
            raise KeyError(
                f"no rule named {name!r} in specification {self.name!r}"
            ) from None

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __str__(self) -> str:
        return f"{self.name} -> {self.target} ({len(self.rules)} rules)"


@dataclass(frozen=True)
class AuditReport:
    """Outcome of :func:`audit_vocabulary`."""

    covered: tuple[Constraint, ...]
    uncovered: tuple[Constraint, ...]

    @property
    def coverage(self) -> float:
        total = len(self.covered) + len(self.uncovered)
        return 1.0 if total == 0 else len(self.covered) / total

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"coverage: {self.coverage:.0%}"]
        for constraint in self.uncovered:
            lines.append(f"  UNCOVERED {constraint}")
        return "\n".join(lines)


def audit_vocabulary(
    spec: MappingSpecification, constraints: list[Constraint]
) -> AuditReport:
    """Which representative constraints can participate in some matching?

    Constraints appearing in no matching of the full set map to ``True``
    (no constraint at the target) for every query built from this
    vocabulary — usually a sign that a rule is missing, the only
    completeness symptom detectable without domain semantics.
    """
    matcher = spec.matcher()
    matchings = matcher.potential(constraints)
    touched: set[Constraint] = set()
    for matching in matchings:
        touched |= matching.constraints
    covered = tuple(c for c in constraints if c in touched)
    uncovered = tuple(c for c in constraints if c not in touched)
    return AuditReport(covered=covered, uncovered=uncovered)
