"""Ergonomic constructors for mapping rules.

Rules read close to the paper's notation.  Rule R6 of Figure 3::

    rule(
        "R6",
        patterns=[cpat("pyear", "=", V("Y")), cpat("pmonth", "=", V("M"))],
        where=[value_is("Y", "M")],
        let={"D": lambda b: Month(b["Y"], b["M"])},
        emit=lambda b: C("pdate", "during", b["D"]),
        exact=True,
    )

``cpat`` accepts the left-hand side as

* a plain string — a literal attribute, optionally view-qualified
  (``"pyear"``, ``"fac.dept"``);
* a :class:`~repro.core.matching.Var` — binds the whole attribute
  reference (rule R3 of Figure 5 binds ``A1`` this way);
* an :class:`~repro.core.matching.AttrPattern` built with :func:`ap` for
  per-component variables (rule R8's ``fac[i].A``).

Conditions (:func:`value_is`, :func:`attr_is`, :func:`attr_in`,
:func:`distinct`, :func:`same_view`, :func:`where`) are small predicate
factories over the binding dict, mirroring the paper's ``Value(N)``,
``LnOrFn(A1)``-style head conditions.

Every factory additionally annotates the predicate/let callable it
returns with a ``vocablint_hint`` attribute — a small dict describing the
condition declaratively (kind, variables, allowed names, table keys).
The static analyzer (:mod:`repro.analysis`) reads these hints to
synthesize sample bindings that actually satisfy a rule's head; rules
remain plain callables and nothing else inspects the attribute.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping

from repro.core.ast import AttrRef, Query
from repro.core.errors import RuleError
from repro.core.matching import (
    AttrPattern,
    ConstraintPattern,
    RejectMatch,
    Rule,
    Var,
    ViewInstance,
)

__all__ = [
    "V",
    "ap",
    "cpat",
    "rule",
    "value_is",
    "attr_is",
    "attr_in",
    "distinct",
    "same_view",
    "where",
    "table_lookup",
    "RejectMatch",
]

V = Var


def ap(
    attr: str | Var,
    view: str | Var | None = None,
    index: int | Var | None = None,
) -> AttrPattern:
    """Build an attribute pattern with per-component variables."""
    return AttrPattern(attr=attr, view=view, index=index)


def _parse_lhs(spec: str | Var | AttrPattern) -> AttrPattern | Var:
    if isinstance(spec, (Var, AttrPattern)):
        return spec
    parts = spec.split(".")
    if len(parts) == 1:
        return AttrPattern(attr=parts[0])
    if len(parts) == 2:
        return AttrPattern(attr=parts[1], view=parts[0])
    raise RuleError(f"pattern attribute {spec!r} has too many components; use ap()")


def cpat(lhs: str | Var | AttrPattern, op: str | Var, rhs: object) -> ConstraintPattern:
    """Build a constraint pattern ``[lhs op rhs]``.

    ``rhs`` may be a Var, a literal value, an :class:`AttrPattern`, or a
    dotted string which is interpreted as a literal attribute pattern (for
    join patterns such as ``cpat("V1.ln", "=", "V2.ln")`` write the pattern
    with :func:`ap` and Vars instead — strings stay literal).
    """
    return ConstraintPattern(lhs=_parse_lhs(lhs), op=op, rhs=rhs)


def rule(
    name: str,
    patterns: Iterable[ConstraintPattern],
    emit: Callable[[Mapping], Query],
    where: Iterable[Callable[[Mapping], bool]] = (),
    let: Mapping[str, Callable[[Mapping], object]] | None = None,
    exact: bool | Callable[[Mapping], bool] = False,
    doc: str = "",
) -> Rule:
    """Assemble a :class:`~repro.core.matching.Rule`."""
    let_items = tuple((let or {}).items())
    return Rule(
        name=name,
        patterns=tuple(patterns),
        emit=emit,
        conditions=tuple(where),
        let=let_items,
        exact=exact,
        doc=doc,
    )


# ---------------------------------------------------------------------------
# Condition factories
# ---------------------------------------------------------------------------


def _hinted(fn: Callable, **hint: object) -> Callable:
    """Attach the declarative ``vocablint_hint`` metadata to a callable."""
    fn.vocablint_hint = hint  # type: ignore[attr-defined]
    return fn


def value_is(*names: str) -> Callable[[Mapping], bool]:
    """The paper's ``Value(N)``: the variables bound plain values, not attrs."""

    def check(bindings: Mapping) -> bool:
        return all(not isinstance(bindings[name], AttrRef) for name in names)

    return _hinted(check, kind="value_is", vars=names)


def attr_is(*names: str) -> Callable[[Mapping], bool]:
    """The paper's ``Attr(N)``: the variables bound attribute references."""

    def check(bindings: Mapping) -> bool:
        return all(isinstance(bindings[name], AttrRef) for name in names)

    return _hinted(check, kind="attr_is", vars=names)


def attr_in(name: str, allowed: Iterable[str]) -> Callable[[Mapping], bool]:
    """The bound attribute's *name* is one of ``allowed``.

    Works whether ``name`` bound a whole :class:`AttrRef` or just the
    attribute-name string (an :func:`ap` component variable).  This is how
    conditions like ``LnOrFn(A1)`` are written:
    ``attr_in("A1", {"ln", "fn"})``.
    """
    allowed_set = frozenset(allowed)

    def check(bindings: Mapping) -> bool:
        bound = bindings[name]
        if isinstance(bound, AttrRef):
            return bound.attr in allowed_set
        return bound in allowed_set

    return _hinted(check, kind="attr_in", var=name, allowed=allowed_set)


def distinct(*names: str) -> Callable[[Mapping], bool]:
    """All named variables bound pairwise-different values."""

    def check(bindings: Mapping) -> bool:
        values = [bindings[name] for name in names]
        return len(values) == len({repr(v) for v in values})

    return _hinted(check, kind="distinct", vars=names)


def same_view(*names: str) -> Callable[[Mapping], bool]:
    """All bound AttrRefs / ViewInstances belong to the same view instance."""

    def key(bound: object) -> tuple:
        if isinstance(bound, AttrRef):
            return (bound.view, bound.index)
        if isinstance(bound, ViewInstance):
            return (bound.view, bound.index)
        raise RuleError(f"same_view: {bound!r} is not an attribute or view")

    def check(bindings: Mapping) -> bool:
        keys = {key(bindings[name]) for name in names}
        return len(keys) == 1

    return _hinted(check, kind="same_view", vars=names)


def where(fn: Callable[[Mapping], bool]) -> Callable[[Mapping], bool]:
    """Escape hatch: an arbitrary predicate over the bindings."""
    return fn


# ---------------------------------------------------------------------------
# Let helpers
# ---------------------------------------------------------------------------


def table_lookup(table: Mapping, key_fn: Callable[[Mapping], object]) -> Callable[[Mapping], object]:
    """A ``let`` function doing a table lookup; missing keys veto the match.

    Mirrors conversion functions like ``DeptCode`` or ``AttrNameMapping``
    that are only defined on known vocabulary — an unknown key means the
    rule simply does not apply.
    """

    def lookup(bindings: Mapping) -> object:
        key = key_fn(bindings)
        try:
            return table[key]
        except KeyError:
            raise RejectMatch(f"no table entry for {key!r}") from None

    return _hinted(lookup, kind="table", keys=tuple(sorted(table, key=str)[:16]))
