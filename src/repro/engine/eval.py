"""Query evaluation over bound row instances.

The engine evaluates constraint queries against an *environment* binding
each referenced instance (a view instance like ``fac[1]``, or a relation
instance like ``fac.aubib``) to one tuple.  Evaluating over the cross
product of relations/views then means enumerating environments — exactly
the σ_Q(R1 × ... × Rn × X) of Eq. 1.

Sources may register **virtual attributes**: search fields computed from
stored attributes with operator-specific semantics.  Amazon's ``ti-word``
(words of the title), ``pdate`` (computed from year/month), or the map
source's ``X_range``/``C_ll`` (region predicates over point coordinates,
Example 8) are all virtuals.  A virtual is a callable
``fn(row, op, value) -> bool`` consulted before stored attributes.

Two evaluators share these semantics.  :func:`evaluate` interprets the
query tree against a :class:`RowEnv`; it answers Eq. 1 and is the oracle
the tests hold the other to.  :func:`compile_predicate` turns a query
into a closure over a tuple of rows laid out by a fixed key sequence,
resolving attribute references and binding operators once per scan; the
Eq. 2 scans (sources, the grammar wrapper, the mediator's post-filter)
run it once per row.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Mapping, Sequence

from repro.core.ast import And, AttrRef, BoolConst, Constraint, Not, Or, Query
from repro.core.errors import EvaluationError
from repro.core.operators import evaluate_op, get_operator

__all__ = [
    "RowEnv", "evaluate", "evaluate_row", "compile_predicate", "Virtual",
    "RowPredicate",
]

#: A virtual-attribute evaluator: (row, op, value) -> bool.
Virtual = Callable[[Mapping, str, object], bool]

#: A compiled query: rows in the compiled key order -> bool.
RowPredicate = Callable[[Sequence[Mapping]], bool]
_Lookup = Callable[[Sequence[Mapping]], object]


def _resolve_key(ref: AttrRef, keys: Collection[tuple]) -> tuple | None:
    """The environment key ``ref`` names, decided from the keys alone.

    These are the steps of :meth:`RowEnv.resolve` that never look inside
    a row, shared with :func:`compile_predicate` so both evaluators
    resolve alike: the exact ``(qualifier, index)`` key; the paper's
    ``fac.bib`` ≡ ``fac[i].bib`` abbreviation when unambiguous (several
    matching instances raise :class:`EvaluationError`); a bare attribute
    against a sole instance.  ``None`` leaves only hierarchical descent.
    """
    qualifier = ref.qualifier
    key = (qualifier, ref.index)
    if key in keys:
        return key
    if ref.index is None:
        # ``fac.bib`` abbreviates ``fac[i].bib`` for any i (Section
        # 4.2) — unambiguous only when a single instance matches.
        candidates = [candidate for candidate in keys if candidate[0] == qualifier]
        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            raise EvaluationError(
                f"ambiguous reference {ref}: {len(candidates)} instances match"
            )
    if not qualifier and len(keys) == 1:
        # Bare attribute in a single-instance context.
        return next(iter(keys))
    return None


class RowEnv:
    """An environment binding instance qualifiers to rows.

    ``rows`` maps ``(qualifier, index)`` to a tuple dict, where
    ``qualifier`` is the reference path minus the attribute name — e.g.
    ``(("fac",), 1)`` for view instance ``fac[1]``, ``(("fac", "aubib"),
    None)`` for the relation instance ``fac.aubib``, or ``((), None)`` for
    a bare single-table context like Amazon's catalog.
    """

    def __init__(
        self,
        rows: Mapping[tuple, Mapping],
        virtuals: Mapping[str, Virtual] | None = None,
    ):
        self.rows = dict(rows)
        self.virtuals = dict(virtuals or {})

    def resolve(self, ref: AttrRef) -> tuple[Mapping, str]:
        """Find the row an attribute reference lives in.

        Resolution order: exact ``(qualifier, index)`` key; the paper's
        ``fac.bib`` ≡ ``fac[i].bib`` abbreviation when unambiguous; a bare
        attribute against a sole instance; and finally *hierarchical
        descent* — an instance whose qualifier is a proper prefix of the
        reference's, with the remaining components walked through nested
        sub-documents (the hierarchical data of reference [17]:
        ``doc.author.ln`` against a ``doc`` instance holding
        ``{"author": {"ln": ...}}``).
        """
        key = _resolve_key(ref, self.rows)
        if key is not None:
            return self.rows[key], ref.attr
        nested = self._descend(ref)
        if nested is not None:
            return nested, ref.attr
        raise EvaluationError(f"unresolvable reference {ref} in environment")

    def _descend(self, ref: AttrRef) -> Mapping | None:
        """Hierarchical fallback: prefix-match an instance, then walk
        the remaining qualifier components through nested dicts."""
        qualifier = ref.qualifier
        matches: list[Mapping] = []
        for (qual, idx), row in self.rows.items():
            if len(qual) >= len(qualifier) or qualifier[: len(qual)] != qual:
                continue
            if ref.index is not None and idx is not None and idx != ref.index:
                continue
            node: object = row
            for part in qualifier[len(qual):]:
                if isinstance(node, Mapping) and part in node:
                    node = node[part]
                else:
                    node = None
                    break
            if isinstance(node, Mapping) and ref.attr in node:
                matches.append(node)
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise EvaluationError(
                f"ambiguous hierarchical reference {ref}: "
                f"{len(matches)} paths match"
            )
        return None

    def lookup(self, ref: AttrRef) -> object:
        """The stored value of a reference (no virtual dispatch)."""
        row, attr = self.resolve(ref)
        if attr not in row:
            raise EvaluationError(f"attribute {attr!r} not in tuple for {ref}")
        return row[attr]


def evaluate(query: Query, env: RowEnv) -> bool:
    """Evaluate a constraint query in an environment."""
    if isinstance(query, BoolConst):
        return query.value
    if isinstance(query, And):
        return all(evaluate(child, env) for child in query.children)
    if isinstance(query, Or):
        return any(evaluate(child, env) for child in query.children)
    if isinstance(query, Not):
        return not evaluate(query.child, env)
    if isinstance(query, Constraint):
        return _evaluate_constraint(query, env)
    raise EvaluationError(f"unknown query node: {query!r}")


def _evaluate_constraint(constraint: Constraint, env: RowEnv) -> bool:
    rhs = constraint.rhs
    if isinstance(rhs, AttrRef):
        rhs_value = env.lookup(rhs)
    else:
        rhs_value = rhs

    virtual = env.virtuals.get(constraint.lhs.attr)
    if virtual is not None:
        row, _attr = env.resolve(constraint.lhs)
        op = constraint.op
        if op.startswith("not-"):
            # Complement operators produced by negation push-down: let the
            # virtual answer the base operator and invert.
            base = get_operator(op).complement
            if base is not None:
                return not virtual(row, base, rhs_value)
        return virtual(row, op, rhs_value)

    lhs_value = env.lookup(constraint.lhs)
    return evaluate_op(constraint.op, lhs_value, rhs_value)


def evaluate_row(
    query: Query,
    row: Mapping,
    virtuals: Mapping[str, Virtual] | None = None,
) -> bool:
    """Evaluate a selection query against one bare tuple."""
    return evaluate(query, RowEnv({((), None): row}, virtuals))


def compile_predicate(
    query: Query,
    keys: Sequence[tuple],
    virtuals: Mapping[str, Virtual] | None = None,
) -> RowPredicate:
    """Compile ``query`` into a predicate over rows laid out as ``keys``.

    ``compile_predicate(q, keys, virtuals)(rows)`` returns exactly what
    ``evaluate(q, RowEnv(dict(zip(keys, rows)), virtuals))`` returns, in
    the same left-to-right short-circuit order, and raises the same
    exception type and message where that raises.  The difference is
    cost: each attribute reference is resolved to a row position, and
    each virtual evaluator and operator function is bound, once here
    instead of once per row.

    A constraint whose evaluation depends on row contents (hierarchical
    descent) or fails (an ambiguous or unresolvable reference, an unknown
    operator) compiles to a closure that runs the interpreter for that
    constraint alone; so does an unknown node type.  Compiling therefore
    never raises, and a scan over zero rows raises nothing.

    Nothing is cached: compiling costs O(query) and evaluating
    O(rows × constraints), so a scan compiles its query afresh.
    """
    layout = tuple(keys)
    positions = {key: position for position, key in enumerate(layout)}
    bound_virtuals = dict(virtuals or {})
    try:
        return _compile(query, layout, positions, bound_virtuals)
    except RecursionError:
        return _interpreted(query, layout, bound_virtuals)


def _compile(
    query: Query,
    layout: tuple,
    positions: Mapping[tuple, int],
    virtuals: Mapping[str, Virtual],
) -> RowPredicate:
    if isinstance(query, BoolConst):
        value = query.value
        return lambda rows: value
    if isinstance(query, (And, Or)):
        parts = tuple(
            _compile(child, layout, positions, virtuals) for child in query.children
        )
        return _all_of(parts) if isinstance(query, And) else _any_of(parts)
    if isinstance(query, Not):
        inner = _compile(query.child, layout, positions, virtuals)
        return lambda rows: not inner(rows)
    if isinstance(query, Constraint):
        compiled = _compile_constraint(query, positions, virtuals)
        if compiled is not None:
            return compiled
    return _interpreted(query, layout, virtuals)


def _all_of(parts: tuple[RowPredicate, ...]) -> RowPredicate:
    def conjunction(rows: Sequence[Mapping]) -> bool:
        for part in parts:
            if not part(rows):
                return False
        return True

    return conjunction


def _any_of(parts: tuple[RowPredicate, ...]) -> RowPredicate:
    def disjunction(rows: Sequence[Mapping]) -> bool:
        for part in parts:
            if part(rows):
                return True
        return False

    return disjunction


def _interpreted(
    query: Query, layout: tuple, virtuals: Mapping[str, Virtual]
) -> RowPredicate:
    """The interpreter behind the compiled signature (the fallback)."""
    return lambda rows: evaluate(query, RowEnv(dict(zip(layout, rows)), virtuals))


def _position(ref: AttrRef, positions: Mapping[tuple, int]) -> int | None:
    """The row position ``ref`` reads, when the key layout alone decides it."""
    try:
        key = _resolve_key(ref, positions)
    except EvaluationError:
        return None  # ambiguous: the interpreter raises it per row
    return None if key is None else positions[key]


def _stored(position: int, ref: AttrRef) -> _Lookup:
    """:meth:`RowEnv.lookup` of ``ref`` at a fixed row position."""
    name = ref.attr

    def lookup(rows: Sequence[Mapping]) -> object:
        row = rows[position]
        if name in row:
            return row[name]
        raise EvaluationError(f"attribute {name!r} not in tuple for {ref}")

    return lookup


def _compile_constraint(
    constraint: Constraint,
    positions: Mapping[tuple, int],
    virtuals: Mapping[str, Virtual],
) -> RowPredicate | None:
    """``_evaluate_constraint`` at fixed positions; ``None`` = interpret."""
    lhs, op, rhs = constraint.lhs, constraint.op, constraint.rhs
    position = _position(lhs, positions)
    if position is None:
        return None
    rhs_lookup: _Lookup | None = None
    if isinstance(rhs, AttrRef):
        rhs_position = _position(rhs, positions)
        if rhs_position is None:
            return None
        rhs_lookup = _stored(rhs_position, rhs)

    virtual = virtuals.get(lhs.attr)
    if virtual is not None:
        negated = False
        if op.startswith("not-"):
            try:
                base = get_operator(op).complement
            except EvaluationError:
                return None
            if base is not None:
                # Complement operators produced by negation push-down: let
                # the virtual answer the base operator and invert.
                op, negated = base, True
        return _virtual_predicate(virtual, position, op, rhs, rhs_lookup, negated)

    try:
        test = get_operator(op).evaluate
    except EvaluationError:
        return None
    name = lhs.attr
    if rhs_lookup is None and rhs is not None:

        def select(rows: Sequence[Mapping]) -> bool:
            row = rows[position]
            if name not in row:
                raise EvaluationError(f"attribute {name!r} not in tuple for {lhs}")
            value = row[name]
            return False if value is None else test(value, rhs)

        return select
    lhs_lookup = _stored(position, lhs)
    # A constant None operand still costs the lhs lookup, then never matches.
    other_lookup: _Lookup = rhs_lookup or (lambda rows: None)

    def join(rows: Sequence[Mapping]) -> bool:
        other = other_lookup(rows)
        value = lhs_lookup(rows)
        if value is None or other is None:
            return False
        return test(value, other)

    return join


def _virtual_predicate(
    virtual: Virtual,
    position: int,
    op: str,
    rhs: object,
    rhs_lookup: _Lookup | None,
    negated: bool,
) -> RowPredicate:
    if rhs_lookup is None:
        if negated:
            return lambda rows: not virtual(rows[position], op, rhs)
        return lambda rows: virtual(rows[position], op, rhs)
    if negated:
        return lambda rows: not virtual(rows[position], op, rhs_lookup(rows))
    return lambda rows: virtual(rows[position], op, rhs_lookup(rows))
