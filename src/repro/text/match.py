"""Evaluation of text patterns over documents.

This is the substrate a *source* uses to answer ``contains`` constraints.
Semantics:

* :class:`~repro.text.patterns.Word` — the token occurs anywhere (case
  insensitive);
* :class:`~repro.text.patterns.PhrasePat` — the tokens occur consecutively;
* :class:`~repro.text.patterns.AndPat` / :class:`~repro.text.patterns.OrPat`
  — Boolean combination of sub-matches;
* :class:`~repro.text.patterns.NearPat` — every part matches, and some
  choice of match positions fits inside the proximity window.

These semantics make ``a (and) b`` a *relaxation* of ``a (near) b``: every
text matching the proximity version also matches the conjunction, which is
exactly why ``RewriteTextPat`` produces a subsuming (never lossy) rewrite.
"""

from __future__ import annotations

import re

from repro.text.patterns import (
    AndPat,
    MatchAll,
    NearPat,
    OrPat,
    PhrasePat,
    TextPattern,
    Word,
)

__all__ = ["tokenize", "matches", "match_positions"]

_WORD_RE = re.compile(r"[\w'-]+")


def tokenize(text: str) -> list[str]:
    """Lower-case word tokens of a document, in order."""
    return [token.lower() for token in _WORD_RE.findall(text)]


def matches(pattern: TextPattern, text: str) -> bool:
    """Return True when ``text`` satisfies ``pattern``."""
    return _matches_tokens(pattern, tokenize(text))


def match_positions(pattern: TextPattern, tokens: list[str]) -> list[int]:
    """Token positions at which ``pattern`` is anchored (for proximity).

    A :class:`Word`/:class:`PhrasePat` anchors at each occurrence start; a
    compound anchors at the positions of its parts.
    """
    if isinstance(pattern, MatchAll):
        return list(range(len(tokens))) or [0]
    if isinstance(pattern, Word):
        return [i for i, token in enumerate(tokens) if token == pattern.text]
    if isinstance(pattern, PhrasePat):
        span = len(pattern.tokens)
        return [
            i
            for i in range(len(tokens) - span + 1)
            if tuple(tokens[i : i + span]) == pattern.tokens
        ]
    if isinstance(pattern, (AndPat, OrPat, NearPat)):
        positions: list[int] = []
        for part in pattern.parts:
            positions.extend(match_positions(part, tokens))
        return sorted(set(positions))
    raise TypeError(f"unknown pattern type: {pattern!r}")


def _matches_tokens(pattern: TextPattern, tokens: list[str]) -> bool:
    if isinstance(pattern, MatchAll):
        return True
    if isinstance(pattern, Word):
        return pattern.text in tokens
    if isinstance(pattern, PhrasePat):
        return bool(match_positions(pattern, tokens))
    if isinstance(pattern, AndPat):
        return all(_matches_tokens(part, tokens) for part in pattern.parts)
    if isinstance(pattern, OrPat):
        return any(_matches_tokens(part, tokens) for part in pattern.parts)
    if isinstance(pattern, NearPat):
        return _near_matches(pattern, tokens)
    raise TypeError(f"unknown pattern type: {pattern!r}")


def _near_matches(pattern: NearPat, tokens: list[str]) -> bool:
    """True when each part matches with all anchors within the window."""
    anchor_lists: list[list[int]] = []
    for part in pattern.parts:
        if not _matches_tokens(part, tokens):
            return False
        anchors = match_positions(part, tokens)
        if not anchors:
            return False
        anchor_lists.append(anchors)
    return _within_window(anchor_lists, pattern.window)


def _within_window(anchor_lists: list[list[int]], window: int) -> bool:
    """Can we pick one anchor per list so max - min <= window?

    Classic smallest-range sweep: advance the list holding the minimum.
    """
    picks = [0] * len(anchor_lists)
    while True:
        values = [anchor_lists[i][picks[i]] for i in range(len(anchor_lists))]
        if max(values) - min(values) <= window:
            return True
        lowest = values.index(min(values))
        picks[lowest] += 1
        if picks[lowest] >= len(anchor_lists[lowest]):
            return False
