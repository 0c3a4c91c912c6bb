"""Exception hierarchy for the vocabmap library.

All library errors derive from :class:`VocabMapError` so callers can catch a
single base class.  Each subsystem raises the most specific subclass that
applies.
"""

from __future__ import annotations

__all__ = [
    "VocabMapError",
    "ParseError",
    "RuleError",
    "SpecificationError",
    "CapabilityError",
    "TranslationError",
    "EvaluationError",
    "SchemaError",
    "SourceUnavailableError",
    "TransientSourceError",
]


class VocabMapError(Exception):
    """Base class for all errors raised by the vocabmap library."""


class ParseError(VocabMapError):
    """A query or text-pattern string could not be parsed.

    Carries the offending ``text`` and, when known, the character
    ``position`` at which parsing failed.
    """

    def __init__(self, message: str, text: str = "", position: int | None = None):
        super().__init__(message)
        self.text = text
        self.position = position

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.position is not None:
            return f"{base} (at position {self.position} in {self.text!r})"
        return base


class RuleError(VocabMapError):
    """A mapping rule is malformed (bad pattern, unbound variable, ...)."""


class SpecificationError(VocabMapError):
    """A mapping specification violates a structural requirement."""


class CapabilityError(VocabMapError):
    """A query uses vocabulary a source does not support."""


class TranslationError(VocabMapError):
    """Query translation failed (e.g. a conversion function raised)."""


class EvaluationError(VocabMapError):
    """A query could not be evaluated against the relational engine."""


class SchemaError(VocabMapError):
    """A relation, view, or tuple does not conform to its declared schema."""


class SourceUnavailableError(VocabMapError):
    """A source could not be reached within the resilience policy's budget.

    Raised by :class:`~repro.resilience.SourceAdapter` when retries are
    exhausted, a deadline passed, or the circuit breaker is open — and by
    strict-mode mediation when any required source failed.  Carries the
    per-source :class:`~repro.resilience.SourceOutcome` records describing
    what went wrong where.
    """

    def __init__(self, message: str, outcomes: tuple = ()):
        super().__init__(message)
        self.outcomes = tuple(outcomes)


class TransientSourceError(SourceUnavailableError):
    """A single source call failed in a way a retry may fix.

    This is what :class:`~repro.resilience.FaultPolicy` injects to
    simulate network blips; real wrappers should raise it (or
    ``TimeoutError`` / ``ConnectionError`` / ``OSError``) for transient
    conditions so the adapter's retry loop engages.  Permanent errors
    (:class:`CapabilityError`, :class:`EvaluationError`) are never
    retried.
    """
