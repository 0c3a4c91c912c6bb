"""Canonical query fingerprints — the cache-key ingredient of repro.perf.

Two queries that every translation algorithm treats identically should
share one cache entry.  :func:`query_fingerprint` therefore hashes a
*canonical form* of the normalized query in which

* ∧/∨ children are sorted by their own canonical form (commutativity and
  idempotency — ``a ∧ b`` and ``b ∧ a`` collide, as do duplicates the
  smart constructors already fold);
* join constraints are oriented by :func:`repro.core.normalize.normalize`
  (``[a < b]`` and ``[b > a]`` collide);
* values are rendered with a type tag, so ``[a = 1]`` and ``[a = "1"]``
  stay distinct.

Fingerprints are stable within a process (value rendering falls back to
``repr``); they are cache keys, not persistent identifiers.
"""

from __future__ import annotations

import hashlib

from repro.core.ast import And, AttrRef, BoolConst, Constraint, Not, Or, Query
from repro.core.normalize import normalize

__all__ = ["canonical_form", "query_fingerprint"]


def _render_ref(ref: AttrRef) -> str:
    head = ref.path[0]
    if ref.index is not None:
        head = f"{head}[{ref.index}]"
    return ".".join((head, *ref.path[1:]))


def _render_value(value: object) -> str:
    """A type-tagged rendering: distinct types never collide."""
    if isinstance(value, AttrRef):
        return f"@{_render_ref(value)}"
    kind = type(value)
    return f"{kind.__module__}.{kind.__qualname__}:{value!r}"


def canonical_form(query: Query) -> str:
    """The canonical textual form hashed by :func:`query_fingerprint`.

    Callers are expected to pass a *normalized* query (see
    :func:`repro.core.normalize.normalize`); :func:`query_fingerprint`
    normalizes for you.

    The form is a pure function of the (immutable) node, so it is memoized
    per node.
    """
    try:
        return query._canon
    except AttributeError:
        pass
    if isinstance(query, BoolConst):
        return "#t" if query.value else "#f"
    if isinstance(query, Constraint):
        text = f"[{_render_ref(query.lhs)} {query.op} {_render_value(query.rhs)}]"
    elif isinstance(query, And):
        text = "(and " + " ".join(sorted(canonical_form(c) for c in query.children)) + ")"
    elif isinstance(query, Or):
        text = "(or " + " ".join(sorted(canonical_form(c) for c in query.children)) + ")"
    elif isinstance(query, Not):  # pre-normalization trees; normalize() removes these
        text = "(not " + canonical_form(query.child) + ")"
    else:
        raise TypeError(f"unknown query node: {query!r}")
    try:
        object.__setattr__(query, "_canon", text)
    except (AttributeError, TypeError):
        pass
    return text


def query_fingerprint(query: Query, *, normalized: bool = False) -> str:
    """A stable hex fingerprint of ``query``'s canonical form.

    Pass ``normalized=True`` to skip re-normalization when the caller has
    already normalized the query (the batch path does, to share the work
    across specifications).
    """
    if not normalized:
        query = normalize(query)
    digest = hashlib.sha256(canonical_form(query).encode("utf-8"))
    return digest.hexdigest()
