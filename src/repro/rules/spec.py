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
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.ast import Constraint
from repro.core.errors import SpecificationError
from repro.core.matching import Matcher, Rule

if TYPE_CHECKING:
    from repro.perf.index import CompiledRuleIndex

__all__ = ["MappingSpecification", "AuditReport", "audit_vocabulary"]

#: Global version-stamp source.  Every specification construction *and*
#: every mutation draws a fresh stamp, so (name, version) pairs uniquely
#: identify one rule-set state *within one process*.  Across processes
#: the counter restarts, so two spec objects can carry the same stamp
#: with different rule sets — anything durable (cache keys, snapshots,
#: registry versions) must pair the stamp with :attr:`content_digest`.
_VERSION_STAMPS = itertools.count(1)

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
        _version: int
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
        object.__setattr__(self, "_version", next(_VERSION_STAMPS))
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, "_compiled_index", None)

    # -- versioning + compiled index -------------------------------------------

    @property
    def version(self) -> int:
        """The rule-set version stamp this specification currently carries.

        Unique per (specification, mutation state) *within one process*:
        construction draws a stamp and every :meth:`add_rule`/
        :meth:`remove_rule` draws a fresh one.  Translation-cache keys
        and compiled rule indexes pin this stamp together with
        :attr:`content_digest`, so anything built against an outdated
        rule set misses (cache) or raises (index) instead of silently
        answering wrong — even when a different process hands out the
        same counter value for a different rule set.
        """
        return self._version

    @property
    def content_digest(self) -> str:
        """A process-independent digest of the declarative rule surface.

        Stable across restarts (unlike :attr:`version`) and sensitive to
        every declarative mutation: adding, removing, renaming, or
        re-patterning a rule all change the digest.  A behavioral change
        hidden inside a rule's emit/condition closures without any
        declarative change is not detectable — rename the rule (or touch
        its doc) when changing rule semantics.  Memoized per version.
        """
        digest = self._digest
        if digest is None:
            digest = _content_digest(self)
            object.__setattr__(self, "_digest", digest)
        return digest

    def _bump_version(self) -> None:
        object.__setattr__(self, "_version", next(_VERSION_STAMPS))
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, "_compiled_index", None)

    def compiled_index(self) -> CompiledRuleIndex:
        """The :class:`CompiledRuleIndex` for the current rule set.

        Built lazily on first use and shared by every subsequent
        :meth:`matcher` until the specification mutates, which detaches
        it (stale handles raise on their next probe).
        """
        index = self._compiled_index
        if index is None or index.version != self._version:
            from repro.perf.index import CompiledRuleIndex

            index = CompiledRuleIndex(self)
            object.__setattr__(self, "_compiled_index", index)
        return index

    # -- mutation --------------------------------------------------------------

    def add_rule(self, rule: Rule) -> None:
        """Append ``rule``, bumping the version stamp.

        The specification object mutates in place (all frozen-dataclass
        invariants except the rule tuple are preserved); cached
        translations keyed on the old version become unreachable and any
        previously built compiled index goes stale.
        """
        if rule.name in self._rules_by_name:
            raise SpecificationError(
                f"specification {self.name!r} already has a rule named {rule.name!r}"
            )
        object.__setattr__(self, "rules", (*self.rules, rule))
        self._rules_by_name[rule.name] = rule
        self._bump_version()

    def remove_rule(self, name: str) -> Rule:
        """Remove and return the rule called ``name``, bumping the version."""
        if name not in self._rules_by_name:
            raise SpecificationError(
                f"no rule named {name!r} in specification {self.name!r}"
            )
        removed = self._rules_by_name.pop(name)
        object.__setattr__(
            self, "rules", tuple(rule for rule in self.rules if rule.name != name)
        )
        self._bump_version()
        return removed

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
