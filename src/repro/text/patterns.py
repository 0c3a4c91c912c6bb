"""Text-pattern abstract syntax and parser.

The paper writes text predicates in an infix notation::

    java (near) jdk
    data (and) mining        -- also written data (∧) mining
    www (or) web
    "query mapping"          -- exact phrase

Grammar (lowest to highest precedence)::

    pattern := near_expr ( "(or)" near_expr )*
    near_expr := and_expr ( "(near)" and_expr )*
    and_expr := primary ( "(and)" primary )*
    primary := WORD | PHRASE | "(" pattern ")"

``near`` takes an optional window, written ``(near/5)``; the default window
is :data:`DEFAULT_NEAR_WINDOW` token positions.  Groups nest at most
:data:`repro.core.parser.MAX_NESTING` deep, counting the nesting of the
query the pattern sits in.

All pattern nodes are immutable and hashable so they can appear as
constraint values inside matchings.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass

from repro.core.errors import ParseError
from repro.core.parser import MAX_NESTING

__all__ = [
    "TextPattern",
    "Word",
    "PhrasePat",
    "NearPat",
    "AndPat",
    "OrPat",
    "MatchAll",
    "MATCH_ALL",
    "parse_pattern",
    "DEFAULT_NEAR_WINDOW",
]

#: Tokens at most this many positions apart satisfy ``near`` by default.
DEFAULT_NEAR_WINDOW = 5


class TextPattern:
    """Base class of all text-pattern nodes."""

    __slots__ = ()

    def words(self) -> frozenset[str]:
        """All distinct word literals mentioned by the pattern."""
        return frozenset(self.iter_words())

    def iter_words(self) -> Iterator[str]:
        raise NotImplementedError

    def node_count(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Word(TextPattern):
    """A single keyword; matching is case-insensitive on word boundaries."""

    text: str

    def __post_init__(self) -> None:
        if not self.text or not re.fullmatch(r"[\w'-]+", self.text):
            raise ValueError(f"Word must be a single token, got {self.text!r}")
        object.__setattr__(self, "text", self.text.lower())

    def iter_words(self) -> Iterator[str]:
        yield self.text

    def node_count(self) -> int:
        return 1

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class PhrasePat(TextPattern):
    """An exact phrase — consecutive tokens in order."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("PhrasePat requires at least one token")
        object.__setattr__(self, "tokens", tuple(t.lower() for t in self.tokens))

    def iter_words(self) -> Iterator[str]:
        yield from self.tokens

    def node_count(self) -> int:
        return 1

    def __str__(self) -> str:
        return '"' + " ".join(self.tokens) + '"'


@dataclass(frozen=True)
class MatchAll(TextPattern):
    """The trivially-true pattern — matches every document.

    Produced by ``RewriteTextPat`` when a target cannot constrain a word
    at all (it is in the target's *stopword* list, reference [20]): the
    minimal subsuming rewrite of an unsearchable word is "no constraint".
    Compound simplification treats it like Boolean ``True``.
    """

    def iter_words(self) -> Iterator[str]:
        return iter(())

    def node_count(self) -> int:
        return 1

    def __str__(self) -> str:
        return "*any*"


#: Singleton instance of :class:`MatchAll`.
MATCH_ALL = MatchAll()


class _Compound(TextPattern):
    """Shared base for the n-ary connectives."""

    __slots__ = ("parts",)
    _name = "?"

    def __init__(self, parts: tuple[TextPattern, ...]):
        if len(parts) < 2:
            raise ValueError(f"{type(self).__name__} requires >= 2 parts")
        object.__setattr__(self, "parts", tuple(parts))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> tuple:
        return self.parts

    def __repr__(self) -> str:
        # Structural, like the leaf dataclasses' reprs: query fingerprints
        # and intern keys render values with repr, so it must be exactly
        # the equality key (NearPat's window included).
        return f"{type(self).__name__}{self._key()!r}"

    def iter_words(self) -> Iterator[str]:
        for part in self.parts:
            yield from part.iter_words()

    def node_count(self) -> int:
        return 1 + sum(part.node_count() for part in self.parts)

    def _render(self, connective: str) -> str:
        out = []
        for part in self.parts:
            text = str(part)
            if isinstance(part, _Compound):
                text = f"({text})"
            out.append(text)
        return f" ({connective}) ".join(out)


class AndPat(_Compound):
    """All sub-patterns must occur somewhere in the text (``∧``)."""

    __slots__ = ()

    def __str__(self) -> str:
        return self._render("and")


class OrPat(_Compound):
    """At least one sub-pattern must occur (``∨``)."""

    __slots__ = ()

    def __str__(self) -> str:
        return self._render("or")


class NearPat(_Compound):
    """All sub-patterns occur within ``window`` token positions of each other."""

    __slots__ = ("window",)

    def __init__(self, parts: tuple[TextPattern, ...], window: int = DEFAULT_NEAR_WINDOW):
        if window < 1:
            raise ValueError(f"near window must be >= 1, got {window}")
        super().__init__(parts)
        object.__setattr__(self, "window", window)

    def _key(self) -> tuple:
        return (self.parts, self.window)

    def __str__(self) -> str:
        tag = "near" if self.window == DEFAULT_NEAR_WINDOW else f"near/{self.window}"
        return self._render(tag)


_TOKEN_RE = re.compile(
    r"""
    \s*(
        \(\s*(?:near(?:/\d+)?|and|or|∧|∨)\s*\)   # connective, e.g. (near) (∧)
      | "[^"]*"                                   # phrase
      | \(                                        # grouping
      | \)
      | [\w'-]+                                   # word
    )
    """,
    re.VERBOSE,
)


def _lex(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise ParseError("invalid text pattern", text, pos)
            break
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], text: str, depth: int):
        self.tokens = tokens
        self.text = text
        self.pos = 0
        self.depth = depth

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of text pattern", self.text)
        self.pos += 1
        return token

    def connective(self) -> tuple[str, int] | None:
        """If the next token is a connective, return (kind, window)."""
        token = self.peek()
        if token is None or not token.startswith("("):
            return None
        body = token[1:-1].strip()
        if body in {"and", "∧"}:
            return ("and", 0)
        if body in {"or", "∨"}:
            return ("or", 0)
        if body == "near":
            return ("near", DEFAULT_NEAR_WINDOW)
        if body.startswith("near/"):
            return ("near", int(body.split("/", 1)[1]))
        return None

    def parse(self) -> TextPattern:
        pattern = self.or_expr()
        if self.peek() is not None:
            raise ParseError("trailing tokens in text pattern", self.text)
        return pattern

    def or_expr(self) -> TextPattern:
        parts = [self.near_expr()]
        while (conn := self.connective()) and conn[0] == "or":
            self.take()
            parts.append(self.near_expr())
        return parts[0] if len(parts) == 1 else OrPat(tuple(parts))

    def near_expr(self) -> TextPattern:
        parts = [self.and_expr()]
        window = DEFAULT_NEAR_WINDOW
        while (conn := self.connective()) and conn[0] == "near":
            window = conn[1]
            self.take()
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else NearPat(tuple(parts), window)

    def and_expr(self) -> TextPattern:
        parts = [self.primary()]
        while (conn := self.connective()) and conn[0] == "and":
            self.take()
            parts.append(self.primary())
        return parts[0] if len(parts) == 1 else AndPat(tuple(parts))

    def primary(self) -> TextPattern:
        token = self.take()
        if token == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"text pattern nests deeper than {MAX_NESTING} levels", self.text
                )
            inner = self.or_expr()
            if self.take() != ")":
                raise ParseError("expected ')' in text pattern", self.text)
            self.depth -= 1
            return inner
        if token.startswith('"'):
            words = token[1:-1].split()
            if not words:
                raise ParseError("empty phrase in text pattern", self.text)
            if len(words) == 1:
                return Word(words[0])
            return PhrasePat(tuple(words))
        if token == ")" or token.startswith("("):
            raise ParseError(f"unexpected token {token!r} in text pattern", self.text)
        return Word(token)


def parse_pattern(text: str, depth: int = 0) -> TextPattern:
    """Parse the paper's infix pattern notation into a :class:`TextPattern`.

    ``depth`` is the nesting an enclosing query already uses (see
    :func:`repro.core.parser.parse_rhs`).

    >>> parse_pattern("java (near) jdk")
    NearPat(...)
    >>> parse_pattern("data (and) mining")
    AndPat(...)
    """
    tokens = _lex(text)
    if not tokens:
        raise ParseError("empty text pattern", text)
    return _Parser(tokens, text, depth).parse()
