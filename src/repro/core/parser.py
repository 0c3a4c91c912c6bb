"""Textual query syntax.

Queries are written very close to the paper's notation::

    [ln = "Clancy"] and [fn = "Tom"]
    ([ln = "Clancy"] or [ln = "Klancy"]) and [fn = "Tom"]
    [fac.bib contains data (near) mining] and [fac.dept = "cs"]
    [fac[1].ln = fac[2].ln]
    [pdate during May/97]
    [X_range = (10:30)] and [C_ll = (10, 20)]

Grammar::

    query      := or_expr
    or_expr    := and_expr ( "or" and_expr )*
    and_expr   := primary ( "and" primary )*
    primary    := "(" query ")" | "true" | "false" | constraint
    constraint := "[" attrref op rhs "]"

Parenthesised groups and ``not`` prefixes, counting the groups of text
patterns inside ``contains``, may nest at most :data:`MAX_NESTING` deep;
deeper input is a :class:`ParseError`, so hostile nesting never reaches
the recursive passes downstream.

The right-hand side is parsed according to the operator:

* ``contains`` — a text pattern (see :mod:`repro.text.patterns`);
* ``during``   — a date period (``May/97`` or ``1997``);
* ``in``       — a parenthesized comma list of scalars;
* comparisons  — a quoted string, number, ``(lo:hi)`` range, ``(x, y)``
  point, or an attribute reference.  A *bare* single identifier is read as
  a string value; attribute references on the right must be qualified
  (``pub.ln``) or indexed (``fac[2].ln``), which is how the paper always
  writes joins.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from repro.core.ast import FALSE, TRUE, Constraint, Query, attr, conj, disj
from repro.core.errors import ParseError
from repro.core.values import MONTH_NAMES, Month, Point, Range, Year
from repro.obs import trace as obs

__all__ = ["parse_query", "parse_rhs", "parse_period", "MAX_NESTING"]

#: Deepest nesting of ``(`` groups and ``not`` prefixes a query may use,
#: text-pattern groups included.  Every pass after the parser
#: (normalize, EDNF, TDQM, filters, evaluation) recurses over the tree;
#: at twice this depth they all still finish, while a few hundred
#: levels more exhaust Python's recursion limit.
MAX_NESTING = 100

_ATTR_RE = re.compile(r"[A-Za-z_][\w-]*(?:\[\d+\])?(?:\.[A-Za-z_][\w-]*)*")
_WORD_OPS = ("contains", "starts", "during", "in")
_SYMBOL_OPS = ("<=", ">=", "!=", "=", "<", ">")
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")


def parse_query(text: str) -> Query:
    """Parse the paper-style textual notation into a query tree."""
    with obs.span("parse"):
        parser = _QueryParser(text)
        query = parser.or_expr()
        parser.skip_ws()
        if parser.pos != len(text):
            raise ParseError("trailing input after query", text, parser.pos)
        if obs.enabled():
            obs.gauge("parse.nodes", query.node_count())
        return query


class _QueryParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    # -- low-level helpers ---------------------------------------------------

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def keyword(self, word: str) -> bool:
        """Consume ``word`` if it appears next as a whole word."""
        self.skip_ws()
        end = self.pos + len(word)
        if self.text[self.pos : end].lower() != word:
            return False
        if end < len(self.text) and (self.text[end].isalnum() or self.text[end] == "_"):
            return False
        self.pos = end
        return True

    def nested(self, parse: Callable[[], Query]) -> Query:
        """Run ``parse`` one ``(``/``not`` level deeper, within :data:`MAX_NESTING`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"query nests deeper than {MAX_NESTING} levels")
        result = parse()
        self.depth -= 1
        return result

    def expect(self, char: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    # -- grammar ---------------------------------------------------------------

    def or_expr(self) -> Query:
        parts = [self.and_expr()]
        while self.keyword("or"):
            parts.append(self.and_expr())
        return disj(parts) if len(parts) > 1 else parts[0]

    def and_expr(self) -> Query:
        parts = [self.primary()]
        while self.keyword("and"):
            parts.append(self.primary())
        return conj(parts) if len(parts) > 1 else parts[0]

    def primary(self) -> Query:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("unexpected end of query")
        if self.keyword("not"):
            from repro.core.ast import neg

            return neg(self.nested(self.primary))
        char = self.text[self.pos]
        if char == "(":
            self.pos += 1
            inner = self.nested(self.or_expr)
            self.expect(")")
            return inner
        if char == "[":
            return self.constraint()
        if self.keyword("true"):
            return TRUE
        if self.keyword("false"):
            return FALSE
        raise self.error("expected '(', '[', 'true', or 'false'")

    def constraint(self) -> Constraint:
        self.expect("[")
        self.skip_ws()
        match = _ATTR_RE.match(self.text, self.pos)
        if match is None:
            raise self.error("expected attribute reference")
        lhs = attr(match.group(0))
        self.pos = match.end()
        op = self._operator()
        close = self._find_constraint_close()
        raw = self.text[self.pos : close].strip()
        if not raw:
            raise self.error("missing right-hand side in constraint")
        rhs = parse_rhs(op, raw, depth=self.depth)
        self.pos = close + 1
        return Constraint(lhs, op, rhs)

    def _find_constraint_close(self) -> int:
        """Index of the ``]`` closing the current constraint.

        Skips over nested ``[index]`` brackets (``fac[2].ln``) and quoted
        strings so inner brackets never close the constraint early.
        """
        depth = 1
        i = self.pos
        in_string = False
        while i < len(self.text):
            char = self.text[i]
            if in_string:
                if char == '"':
                    in_string = False
            elif char == '"':
                in_string = True
            elif char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
                if depth == 0:
                    return i
            i += 1
        raise self.error("unterminated constraint (missing ']')")

    def _operator(self) -> str:
        self.skip_ws()
        for word in _WORD_OPS:
            if self.keyword(word):
                return word
        for symbol in _SYMBOL_OPS:
            if self.text.startswith(symbol, self.pos):
                self.pos += len(symbol)
                return symbol
        raise self.error("expected an operator")


def parse_rhs(op: str, raw: str, depth: int = 0) -> object:
    """Parse a constraint right-hand side according to its operator.

    ``depth`` is the nesting the enclosing query already uses; a text
    pattern's groups count on from there towards :data:`MAX_NESTING`.
    """
    if op == "contains":
        from repro.text import parse_pattern

        if raw.startswith('"') and raw.endswith('"') and raw.count('"') == 2:
            raw = raw[1:-1]
        return parse_pattern(raw, depth)
    if op == "during":
        return parse_period(raw)
    if op == "in":
        return _parse_collection(raw)
    return _parse_scalar(raw)


def parse_period(raw: str) -> Year | Month:
    """Parse ``May/97``, ``5/1997``, ``97``, or ``1997`` into a period."""
    raw = raw.strip()
    if "/" in raw:
        month_part, year_part = raw.split("/", 1)
        month_part = month_part.strip()
        if month_part.isdigit():
            month = int(month_part)
        else:
            month = _month_number(month_part, raw)
        return Month(_expand_year(year_part.strip()), month)
    if raw.isdigit():
        return Year(_expand_year(raw))
    raise ParseError(f"cannot parse date period {raw!r}", raw)


_FULL_MONTHS = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)


def _month_number(name: str, raw: str) -> int:
    """Month number for a 3-letter abbreviation or full English name."""
    title = name.capitalize()
    if title in MONTH_NAMES:
        return MONTH_NAMES.index(title) + 1
    if title in _FULL_MONTHS:
        return _FULL_MONTHS.index(title) + 1
    raise ParseError(f"unknown month {name!r}", raw)


def _expand_year(text: str) -> int:
    if not text.isdigit():
        raise ParseError(f"bad year {text!r}", text)
    year = int(text)
    if year < 100:
        year += 1900 if year >= 30 else 2000
    return year


def _parse_collection(raw: str) -> tuple:
    raw = raw.strip()
    if not (raw.startswith("(") and raw.endswith(")")):
        raise ParseError(f"'in' needs a parenthesized list, got {raw!r}", raw)
    items = [part.strip() for part in raw[1:-1].split(",")]
    return tuple(_parse_scalar(item) for item in items if item)


def _parse_scalar(raw: str) -> object:
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    if raw.startswith("(") and raw.endswith(")"):
        body = raw[1:-1]
        if ":" in body:
            lo, hi = body.split(":", 1)
            return Range(_parse_number(lo), _parse_number(hi))
        if "," in body:
            x, y = body.split(",", 1)
            return Point(_parse_number(x), _parse_number(y))
        raise ParseError(f"cannot parse structured value {raw!r}", raw)
    if _NUMBER_RE.fullmatch(raw):
        return float(raw) if "." in raw else int(raw)
    if _is_attr_rhs(raw):
        return attr(raw)
    if _ATTR_RE.fullmatch(raw):
        return raw  # bare identifier: a string value, e.g. [dept = cs]
    raise ParseError(f"cannot parse value {raw!r}", raw)


def _parse_number(text: str) -> float | int:
    text = text.strip()
    if not _NUMBER_RE.fullmatch(text):
        raise ParseError(f"expected a number, got {text!r}", text)
    return float(text) if "." in text else int(text)


def _is_attr_rhs(raw: str) -> bool:
    """A qualified or indexed reference — the only joins the syntax allows."""
    return bool(_ATTR_RE.fullmatch(raw)) and ("." in raw or "[" in raw)
