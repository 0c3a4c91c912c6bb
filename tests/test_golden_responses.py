"""Golden response digests: every answer of two generated streams, pinned.

Each stream goes through :func:`repro.serve.handle_line` on a service
whose mediator has no translation cache, so no answer is a memo of
another, and its answer lines hash to one sha256 kept in
``tests/golden/responses.json``:

* ``translate_cold`` reloads a small SKOS-shaped concordance, then sends
  never-repeated ``translate`` queries, and now and then a ``batch`` of
  them, over windows of neighbouring concepts;
* ``mediate_federation`` sends a Zipf stream of ``mediate`` queries over
  ``bookstore_federation`` with generated catalogs.

A change to any answer fails here and names the first request whose
answer differs.  A deliberate answer change regenerates the file::

    PYTHONPATH=src python -m tests.test_golden_responses --write

and says why in CHANGES.md.  The generators share no code with the
serving benchmark, so a change to one cannot move the other, and no
answer depends on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import pathlib
import random
import sys

import pytest

from repro.mediator import bookstore_federation, bookstore_mediator
from repro.serve import MediationService, handle_line

GOLDEN = pathlib.Path(__file__).parent / "golden" / "responses.json"

SEED = 7

# -- the SKOS-shaped concordance and the cold stream ---------------------------

#: Source concepts in the concordance.
CONCEPTS = 240
#: Neighbouring concepts one cold query draws its attributes from.
WINDOW = 12
#: Most alternatives one cold query's ∨-groups may multiply to.
MAX_ALTERNATIVES = 8
#: Cold ``translate`` requests, and one ``batch`` of the last few every so often.
COLD_QUERIES = 240
BATCH_EVERY = 40
BATCH_SIZE = 4


def concept(i: int) -> str:
    return f"c{i:04d}"


def skos_concordance(seed: int = SEED, concepts: int = CONCEPTS) -> dict:
    """A declarative ``K_Amazon`` shaped like a SKOS concordance.

    Each concept is an exact match onto its own target term, a broader
    match relaxed onto a target term shared by eight concepts, or an
    orphan with no rule.  Most pairs of neighbouring matched concepts
    also get a two-pattern rule onto one combined term, so PSafe finds
    cross-matchings.
    """
    rng = random.Random(f"golden-skos:{seed}")
    kinds = rng.choices(("exact", "broader", "orphan"), weights=(13, 4, 3), k=concepts)
    value_is = [{"cond": "value_is", "vars": ["X"]}]
    rules: list[dict] = []
    for i, kind in enumerate(kinds):
        if kind == "orphan":
            continue
        exact = kind == "exact"
        rules.append({
            "name": f"{'X' if exact else 'B'}{i}",
            "match": [{"attr": concept(i), "op": "=", "bind": "X"}],
            "where": value_is,
            "emit": {
                "attr": f"t{i:04d}" if exact else f"g{i // 8:03d}",
                "op": "=",
                "value": "$X",
            },
            "exact": exact,
        })
    for i in range(concepts - 1):
        if "orphan" in kinds[i:i + 2] or rng.random() < 0.25:
            continue
        rules.append({
            "name": f"D{i}",
            "match": [
                {"attr": concept(i), "op": "=", "bind": "X"},
                {"attr": concept(i + 1), "op": "=", "bind": "Y"},
            ],
            "where": [{"cond": "value_is", "vars": ["X", "Y"]}],
            "let": [{"var": "N", "fn": "ln_fn_to_name", "args": ["$X", "$Y"]}],
            "emit": {"attr": f"d{i:04d}", "op": "=", "value": "$N"},
            "exact": True,
        })
    return {"name": "K_Amazon", "target": "Amazon", "rules": rules}


def _cold_query(rng: random.Random) -> tuple[frozenset, str]:
    """One ∧ of ∨-groups over a window of neighbouring concepts.

    Returns the query's order-free key and one rendering of it with
    shuffled children.
    """
    count = rng.randint(4, 9)
    start = rng.randrange(CONCEPTS - WINDOW)
    leaves = [
        f'[{concept(start + j)} = "v{rng.randrange(20)}"]'
        for j in rng.sample(range(WINDOW), count)
    ]
    groups: list[list[str]] = []
    alternatives = 1
    while leaves:
        width = rng.choice((1, 1, 2, 3))
        if width > len(leaves) or alternatives * width > MAX_ALTERNATIVES:
            width = 1
        alternatives *= width
        groups.append(leaves[:width])
        del leaves[:width]
    key = frozenset(frozenset(group) for group in groups)
    rendered = []
    for group in groups:
        rng.shuffle(group)
        rendered.append(group[0] if len(group) == 1 else "(" + " or ".join(group) + ")")
    rng.shuffle(rendered)
    return key, " and ".join(rendered)


def cold_lines(seed: int = SEED) -> list[str]:
    """The ``translate_cold`` request lines, the concordance's reload first."""
    rng = random.Random(f"golden-cold:{seed}")
    seen: set[frozenset] = set()
    queries: list[str] = []
    while len(queries) < COLD_QUERIES:
        key, text = _cold_query(rng)
        if key not in seen:
            seen.add(key)
            queries.append(text)
    lines = [json.dumps({"id": 0, "op": "reload", "spec": skos_concordance(seed)})]
    for index, query in enumerate(queries, start=1):
        lines.append(json.dumps({"id": index, "op": "translate", "query": query}))
        if index % BATCH_EVERY == 0:
            batch = queries[index - BATCH_SIZE:index]
            lines.append(json.dumps({"id": f"b{index}", "op": "batch", "queries": batch}))
    return lines


# -- the federation stream -----------------------------------------------------

LAST = ("Clancy", "Klancy", "Smith", "Chang", "Garcia", "Widom", "Ullman", "Gray")
FIRST = ("Tom", "John", "Kevin", "Hector", "Jennifer")
WORDS = ("java", "jdk", "web", "www", "data", "mining", "query", "systems", "logic")
CATEGORIES = {
    "D.3": "programming",
    "H.2": "databases",
    "H.3": "information retrieval",
    "C.2": "networking",
}
YEARS = range(1993, 1999)
#: Books per generated catalog; the two share this share of them.
BOOKS = 120
SHARED = 0.6
#: Distinct ``mediate`` queries, spellings of each, and stream length.
DISTINCT = 30
SPELLINGS = 3
MEDIATES = 120


def _book(rng: random.Random, isbn: int) -> dict:
    last = rng.choice(LAST)
    return {
        "title": " ".join(w.capitalize() for w in rng.sample(WORDS, rng.randint(2, 3))),
        "author": last if rng.random() < 0.1 else f"{last}, {rng.choice(FIRST)}",
        "year": rng.choice(YEARS),
        "month": rng.randint(1, 12),
        "publisher": rng.choice(("oreilly", "wiley", "putnam")),
        "isbn": f"{isbn:09d}X",
        "subject": rng.choice(sorted(CATEGORIES.values())),
    }


def catalogs(seed: int = SEED) -> tuple[list[dict], list[dict]]:
    """Two bookstore catalogs of :data:`BOOKS` rows with :data:`SHARED` in common."""
    rng = random.Random(f"golden-catalogs:{seed}")
    common = [_book(rng, i) for i in range(int(BOOKS * SHARED))]
    amazon = common + [_book(rng, 10_000 + i) for i in range(BOOKS - len(common))]
    clbooks = common + [_book(rng, 20_000 + i) for i in range(BOOKS - len(common))]
    rng.shuffle(amazon)
    rng.shuffle(clbooks)
    return amazon, clbooks


def _book_query(rng: random.Random, shape: int) -> list[list[str]]:
    """One book-view query in a paper shape, as an ∧ of ∨-groups."""
    ln = f'[ln = "{rng.choice(LAST)}"]'
    fn = f'[fn = "{rng.choice(FIRST)}"]'
    year = f"[pyear = {rng.choice(YEARS)}]"
    if shape == 0:  # Example 1
        return [[fn], [ln]]
    if shape == 1:  # Example 2
        l1, l2 = rng.sample(LAST, 2)
        return [[f'[ln = "{l1}"]', f'[ln = "{l2}"]'], [fn]]
    if shape == 2:  # Figure 7's Q_book, with the ∧ inside the first ∨ flattened
        w1, w2 = rng.sample(WORDS, 2)
        m1, m2 = rng.sample(range(1, 13), 2)
        return [
            [f"({ln} and {fn})", f"[kwd contains {w1}]", f"[kwd contains {w2}]"],
            [year],
            [f"[pmonth = {m1}]", f"[pmonth = {m2}]"],
        ]
    if shape == 3:  # one author in one year
        return [[ln], [year]]
    topic = (
        f"[kwd contains {rng.choice(WORDS)}]"
        if rng.random() < 0.6
        else f'[category = "{rng.choice(sorted(CATEGORIES))}"]'
    )
    return [[topic], [year]]


def _render(groups: list[list[str]], rng: random.Random | None) -> str:
    groups = [list(group) for group in groups]
    if rng is not None:
        for group in groups:
            rng.shuffle(group)
        rng.shuffle(groups)
    parts = [g[0] if len(g) == 1 else "(" + " or ".join(g) + ")" for g in groups]
    return " and ".join(parts)


def federation_lines(seed: int = SEED) -> list[str]:
    """``MEDIATES`` draws from a Zipf(1) over ``DISTINCT`` commuted queries."""
    rng = random.Random(f"golden-federation:{seed}")
    seen: set[str] = set()
    variants: list[list[str]] = []
    while len(variants) < DISTINCT:
        groups = _book_query(rng, len(variants) % 5)
        first = _render(groups, None)
        if first in seen:
            continue
        seen.add(first)
        variants.append([first] + [_render(groups, rng) for _ in range(SPELLINGS - 1)])
    weights = list(itertools.accumulate(1.0 / (k + 1) for k in range(DISTINCT)))
    lines = []
    for index in range(MEDIATES):
        k = bisect.bisect_left(weights, rng.random() * weights[-1])
        query = rng.choice(variants[k])
        lines.append(json.dumps({"id": index, "op": "mediate", "query": query}))
    return lines


# -- answering and digesting ---------------------------------------------------


def _uncached_service(mediator) -> MediationService:
    mediator.translation_cache = None
    return MediationService(mediator)


def stream_answers(name: str) -> tuple[list[str], list[str]]:
    """One stream's request lines and their answers, through ``handle_line``."""
    if name == "translate_cold":
        service = _uncached_service(bookstore_mediator("amazon"))
        lines = cold_lines()
    else:
        service = _uncached_service(bookstore_federation(*catalogs()))
        lines = federation_lines()
    return lines, [handle_line(service, line) for line in lines]


STREAMS = ("translate_cold", "mediate_federation")


def _short(answer: str) -> str:
    return hashlib.sha256(answer.encode("utf-8")).hexdigest()[:10]


def digest_record(answers: list[str]) -> dict:
    """A stream's sha256, plus a short digest per answer to locate a change."""
    whole = hashlib.sha256("".join(a + "\n" for a in answers).encode("utf-8"))
    return {
        "requests": len(answers),
        "sha256": whole.hexdigest(),
        "answers": [_short(answer) for answer in answers],
    }


@pytest.mark.parametrize("name", STREAMS)
def test_answers_match_the_golden_digest(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    lines, answers = stream_answers(name)
    if digest_record(answers)["sha256"] == golden["sha256"]:
        return
    for index, (line, answer) in enumerate(zip(lines, answers)):
        if index >= len(golden["answers"]) or _short(answer) != golden["answers"][index]:
            pytest.fail(
                f"{name}: request {index} answers differently from "
                f"{GOLDEN.name}\nrequest:  {line[:300]}\nresponse: {answer[:600]}"
            )
    pytest.fail(f"{name}: {len(answers)} answers, {golden['requests']} in {GOLDEN.name}")


def test_streams_exercise_what_they_pin():
    lines, answers = stream_answers("translate_cold")
    replies = [json.loads(answer) for answer in answers]
    assert all(reply["ok"] for reply in replies)
    assert replies[0]["reload"][0]["changed"] is True
    inexact = sum(
        not mapping["exact"]
        for reply in replies
        if reply["op"] == "translate"
        for mapping in reply["mappings"].values()
    )
    assert 0 < inexact < COLD_QUERIES
    assert any('"path": ["d0' in answer for answer in answers)  # a two-pattern rule fired
    assert sum(reply["op"] == "batch" for reply in replies) == COLD_QUERIES // BATCH_EVERY
    _, answers = stream_answers("mediate_federation")
    counts = [json.loads(answer)["count"] for answer in answers]
    assert min(counts) == 0 and max(counts) > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.test_golden_responses --write")
    records = {name: digest_record(stream_answers(name)[1]) for name in STREAMS}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}: " + ", ".join(f"{n} {r['sha256'][:12]}" for n, r in records.items()))
