"""Query abstract syntax trees.

A *constraint query* (Section 2 of the paper) is a Boolean expression, built
with ``AND`` / ``OR``, over *constraints* of the form ``[attr1 op value]``
(selection) or ``[attr1 op attr2]`` (join).  This module defines:

* :class:`AttrRef` — a (possibly view-qualified, possibly indexed) attribute
  reference such as ``ti``, ``fac.ln``, ``fac[1].ln``, ``fac.aubib.bib``;
* :class:`Constraint` — a single leaf constraint;
* :class:`And` / :class:`Or` — n-ary interior nodes;
* :data:`TRUE` / :data:`FALSE` — Boolean constants (``TRUE`` is the mapping
  of an untranslatable constraint, Section 2);
* smart constructors :func:`conj` and :func:`disj` that flatten nested
  same-type nodes so that ``AND`` and ``OR`` alternate along every path,
  exactly the tree shape Section 6 assumes.

All node types are immutable and hashable: the algorithms manipulate *sets*
of constraints (matchings, cross-matchings) throughout.

Immutability also makes every node a safe memoization site: constraints
cache their hash and rendered text in ``__dict__``, junctions in dedicated
slots.  The cached values are pure functions of the node, so sharing nodes
across queries never changes observable behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator

__all__ = [
    "AttrRef",
    "Query",
    "Constraint",
    "And",
    "Or",
    "Not",
    "BoolConst",
    "TRUE",
    "FALSE",
    "conj",
    "disj",
    "neg",
    "attr",
    "C",
]


@dataclass(frozen=True)
class AttrRef:
    """A reference to an attribute, optionally qualified and indexed.

    ``path`` holds the dotted components: ``("ti",)`` for a bare attribute,
    ``("fac", "ln")`` for a view attribute, ``("fac", "aubib", "bib")`` for a
    source relation expanded from a view (Section 4.2).  ``index``
    distinguishes multiple instances of the same view, as in
    ``fac[1].ln = fac[2].ln`` (Section 4.2).
    """

    path: tuple[str, ...]
    index: int | None = None

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("AttrRef requires at least one path component")
        if not all(isinstance(part, str) and part for part in self.path):
            raise ValueError(f"AttrRef path components must be non-empty strings: {self.path!r}")

    @property
    def attr(self) -> str:
        """The attribute name proper (last path component)."""
        return self.path[-1]

    @property
    def view(self) -> str | None:
        """The containing view (first component) when qualified, else None."""
        return self.path[0] if len(self.path) > 1 else None

    @property
    def qualifier(self) -> tuple[str, ...]:
        """All path components except the attribute name."""
        return self.path[:-1]

    def with_index(self, index: int | None) -> "AttrRef":
        """Return a copy of this reference carrying ``index``."""
        return AttrRef(self.path, index)

    def unqualified(self) -> "AttrRef":
        """Return a bare reference to just the attribute name."""
        return AttrRef((self.attr,))

    def __str__(self) -> str:
        head = self.path[0]
        if self.index is not None:
            head = f"{head}[{self.index}]"
        return ".".join((head, *self.path[1:]))


def attr(spec: str) -> AttrRef:
    """Build an :class:`AttrRef` from a dotted string like ``"fac[1].ln"``.

    Only the first component may carry an ``[index]`` suffix.
    """
    parts = spec.split(".")
    head = parts[0]
    index: int | None = None
    if head.endswith("]") and "[" in head:
        head, bracket = head[:-1].split("[", 1)
        index = int(bracket)
    return AttrRef((head, *parts[1:]), index)


class Query:
    """Base class of all query-tree nodes."""

    __slots__ = ()

    # Memoized derived forms, set lazily (and only on immutable nodes) by
    # repro.perf.fingerprint.canonical_form and repro.core.normalize.
    # Junctions back these with slots; leaf dataclasses use __dict__.
    _canon: str
    _norm: "Query"

    # -- structural accessors -------------------------------------------------

    def constraints(self) -> frozenset["Constraint"]:
        """All distinct leaf constraints in this (sub)query — C(Q) in the paper."""
        return frozenset(self.iter_constraints())

    def iter_constraints(self) -> Iterator["Constraint"]:
        """Yield leaf constraints in left-to-right tree order (with repeats)."""
        raise NotImplementedError

    def node_count(self) -> int:
        """Number of parse-tree nodes — the compactness measure of Section 8."""
        raise NotImplementedError

    def depth(self) -> int:
        """Height of the tree (a single constraint has depth 1)."""
        raise NotImplementedError

    @property
    def is_leaf(self) -> bool:
        """True for constraints and Boolean constants."""
        return True

    # -- convenience operators -------------------------------------------------

    def __and__(self, other: "Query") -> "Query":
        return conj([self, other])

    def __or__(self, other: "Query") -> "Query":
        return disj([self, other])


@dataclass(frozen=True)
class BoolConst(Query):
    """A Boolean constant leaf.

    ``TRUE`` is the translation of constraints the target cannot express at
    all (``S(f3) = True`` in Example 2); ``FALSE`` is the empty query.
    """

    value: bool

    def iter_constraints(self) -> Iterator["Constraint"]:
        return iter(())

    def node_count(self) -> int:
        return 1

    def depth(self) -> int:
        return 1

    def __str__(self) -> str:
        return "true" if self.value else "false"

    def __bool__(self) -> bool:
        return self.value


TRUE = BoolConst(True)
FALSE = BoolConst(False)


@dataclass(frozen=True)
class Constraint(Query):
    """A leaf constraint ``[lhs op rhs]``.

    ``rhs`` is an :class:`AttrRef` for join constraints and any hashable
    value (str, number, :mod:`repro.core.values` type, text pattern, ...)
    for selection constraints.
    """

    lhs: AttrRef
    op: str
    rhs: object

    def __post_init__(self) -> None:
        if not isinstance(self.lhs, AttrRef):
            raise TypeError(f"Constraint lhs must be an AttrRef, got {self.lhs!r}")
        if not isinstance(self.op, str) or not self.op:
            raise TypeError(f"Constraint op must be a non-empty string, got {self.op!r}")
        hash(self.rhs)  # fail fast on unhashable values

    def __hash__(self) -> int:
        # Same formula as the dataclass-generated hash, memoized: constraints
        # are set/dict keys throughout the matcher, so the cache pays for
        # itself on the second use.
        memo = self.__dict__
        cached = memo.get("_hash")
        if cached is None:
            cached = hash((self.lhs, self.op, self.rhs))
            memo["_hash"] = cached
        return cached

    @property
    def is_join(self) -> bool:
        """True when this constrains two attributes against each other."""
        return isinstance(self.rhs, AttrRef)

    @property
    def is_selection(self) -> bool:
        return not self.is_join

    def iter_constraints(self) -> Iterator["Constraint"]:
        yield self

    def node_count(self) -> int:
        return 1

    def depth(self) -> int:
        return 1

    def __str__(self) -> str:
        memo = self.__dict__
        cached = memo.get("_str")
        if cached is None:
            cached = f"[{self.lhs} {self.op} {_format_rhs(self.rhs)}]"
            memo["_str"] = cached
        return cached

    def __getstate__(self) -> dict[str, object]:
        # Memoized values never cross process boundaries: ``_hash`` is
        # salted per process, and a fresh process re-derives the rest.
        return {"lhs": self.lhs, "op": self.op, "rhs": self.rhs}


def C(lhs: str | AttrRef, op: str, rhs: object) -> Constraint:
    """Shorthand constraint constructor: ``C("fac.ln", "=", "Clancy")``."""
    if isinstance(lhs, str):
        lhs = attr(lhs)
    if isinstance(rhs, str) and op in {"=", "!=", "<", "<=", ">", ">="}:
        # Join shorthand: a dotted/indexed string on the rhs of a comparison
        # is an attribute reference only if explicitly requested via attr();
        # plain strings stay values.
        pass
    return Constraint(lhs, op, rhs)


def _format_rhs(rhs: object) -> str:
    if isinstance(rhs, AttrRef):
        return str(rhs)
    if isinstance(rhs, str):
        return f'"{rhs}"'
    return str(rhs)


class _Junction(Query):
    """Shared implementation of the n-ary interior nodes.

    The extra slots are memoization sites: ``_hash`` is filled eagerly (the
    matcher puts junctions in sets constantly), ``_str`` and ``_canon``
    lazily by :meth:`__str__` and :func:`repro.perf.fingerprint.
    canonical_form`.
    """

    __slots__ = ("children", "_hash", "_str", "_canon", "_norm")
    _symbol = "?"

    children: tuple[Query, ...]
    _hash: int
    _str: str

    def __init__(self, children: Iterable[Query]):
        children = tuple(children)
        if len(children) < 2:
            raise ValueError(
                f"{type(self).__name__} requires >= 2 children; "
                f"use conj()/disj() which collapse trivial cases"
            )
        for child in children:
            if not isinstance(child, Query):
                raise TypeError(f"child must be a Query, got {child!r}")
            if type(child) is type(self):
                raise ValueError(
                    f"nested {type(self).__name__} nodes; build trees with "
                    f"conj()/disj() so operators alternate"
                )
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_hash", hash((type(self).__name__, children)))

    def __setattr__(self, name: str, value: object) -> None:  # immutability
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.children == self.children

    def __hash__(self) -> int:
        return self._hash

    def iter_constraints(self) -> Iterator[Constraint]:
        for child in self.children:
            yield from child.iter_constraints()

    def node_count(self) -> int:
        return 1 + sum(child.node_count() for child in self.children)

    def depth(self) -> int:
        return 1 + max(child.depth() for child in self.children)

    @property
    def is_leaf(self) -> bool:
        return False

    def __str__(self) -> str:
        try:
            return self._str
        except AttributeError:
            pass
        parts = []
        for child in self.children:
            text = str(child)
            if not child.is_leaf:
                text = f"({text})"
            parts.append(text)
        rendered = f" {self._symbol} ".join(parts)
        object.__setattr__(self, "_str", rendered)
        return rendered

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.children)!r})"


class And(_Junction):
    """An n-ary conjunction node (children never themselves And nodes)."""

    __slots__ = ()
    _symbol = "and"


class Or(_Junction):
    """An n-ary disjunction node (children never themselves Or nodes)."""

    __slots__ = ()
    _symbol = "or"


@dataclass(frozen=True)
class Not(Query):
    """Logical negation — the library's *extension* beyond the paper.

    The paper's query language excludes negation (Section 2); vocabmap
    supports it as a preprocessing step: :func:`repro.core.negation.
    push_negations` drives every ``Not`` down to the leaves and replaces
    negated constraints with their complement operators, so the mapping
    algorithms themselves never see a ``Not`` node.
    """

    child: Query

    def __post_init__(self) -> None:
        if not isinstance(self.child, Query):
            raise TypeError(f"Not child must be a Query, got {self.child!r}")

    def iter_constraints(self) -> Iterator["Constraint"]:
        yield from self.child.iter_constraints()

    def node_count(self) -> int:
        return 1 + self.child.node_count()

    def depth(self) -> int:
        return 1 + self.child.depth()

    @property
    def is_leaf(self) -> bool:
        return False

    def __str__(self) -> str:
        inner = str(self.child)
        if not self.child.is_leaf:
            inner = f"({inner})"
        return f"not {inner}"


def neg(query: Query) -> Query:
    """Negation smart constructor: folds constants and double negation."""
    if query is TRUE or query == TRUE:
        return FALSE
    if query is FALSE or query == FALSE:
        return TRUE
    if isinstance(query, Not):
        return query.child
    return Not(query)


def conj(items: Iterable[Query]) -> Query:
    """Conjunction smart constructor.

    Flattens nested ``And`` children, drops ``TRUE``, short-circuits on
    ``FALSE``, dedupes identical children (idempotency ``x ∧ x = x``), and
    collapses the 0/1-child cases (empty conjunction is ``TRUE``).
    """
    out: list[Query] = []
    seen: set[Query] = set()
    for item in _flatten(items, And):
        if item is TRUE or item == TRUE:
            continue
        if item is FALSE or item == FALSE:
            return FALSE
        if item not in seen:
            seen.add(item)
            out.append(item)
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return And(out)


def disj(items: Iterable[Query]) -> Query:
    """Disjunction smart constructor (dual of :func:`conj`)."""
    out: list[Query] = []
    seen: set[Query] = set()
    for item in _flatten(items, Or):
        if item is FALSE or item == FALSE:
            continue
        if item is TRUE or item == TRUE:
            return TRUE
        if item not in seen:
            seen.add(item)
            out.append(item)
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return Or(out)


def _flatten(items: Iterable[Query], kind: type) -> Iterator[Query]:
    """Recursively splice children of ``kind`` nodes into the stream."""
    for item in items:
        if isinstance(item, kind):
            yield from _flatten(item.children, kind)
        else:
            yield item
