"""Seeded input generators for the serving benchmark.

Everything the benchmark sends is generated here from the ``--seed``
argument alone, with no call into the program under test, so a change
to the program cannot change the traffic.  Queries are built as small
trees and rendered to the paper's text notation; a *spelling* of a tree
is one rendering with its commutative children in some order, so all
spellings of one tree share one canonical query fingerprint.

Trees are ``("leaf", text)``, ``("and", children)`` or ``("or", children)``.
"""

from __future__ import annotations

import bisect
import itertools
import random

LAST_NAMES = (
    "Clancy", "Klancy", "Smith", "Chang", "Garcia", "Tanen", "Widom",
    "Ullman", "Gray", "Codd", "Stone", "Knuth", "Hopper", "Liskov",
    "Lamport", "Turing", "Backus", "Dijkstra", "Hoare", "Wirth",
)
FIRST_NAMES = (
    "Tom", "John", "Kevin", "Hector", "Andy", "Jennifer", "Jeff", "Jim",
    "Ted", "Mike",
)
TITLE_WORDS = (
    "java", "jdk", "web", "www", "data", "mining", "query", "mapping",
    "systems", "compilers", "networks", "databases", "search", "logic",
    "design", "patterns", "graphs", "storage", "vision", "agents",
    "security", "parallel", "algorithms", "languages",
)
PUBLISHERS = ("oreilly", "wiley", "putnam", "prentice", "mit", "springer")
#: Category codes and the subject headings the bookstore catalogs carry.
CATEGORIES = {
    "D.3": "programming",
    "D.4": "operating systems",
    "H.2": "databases",
    "H.3": "information retrieval",
    "I.2": "artificial intelligence",
    "C.2": "networking",
}
YEARS = tuple(range(1990, 2000))

#: How many commuted spellings each distinct query gets.
SPELLINGS = 4
#: Exponent of the Zipf law that draws repeated queries.
ZIPF_S = 1.0


# -- query trees -------------------------------------------------------------


def leaf(text: str) -> tuple:
    return ("leaf", text)


def canonical(tree: tuple) -> object:
    """An order-free key: equal for every spelling of one tree."""
    if tree[0] == "leaf":
        return tree[1]
    return (tree[0], tuple(sorted((canonical(c) for c in tree[1]), key=repr)))


def render(tree: tuple, rng: random.Random | None = None, top: bool = True) -> str:
    """The tree in query syntax; ``rng`` shuffles commutative children."""
    if tree[0] == "leaf":
        return tree[1]
    children = list(tree[1])
    if rng is not None:
        rng.shuffle(children)
    text = f" {tree[0]} ".join(render(c, rng, top=False) for c in children)
    return text if top else f"({text})"


def spellings(tree: tuple, rng: random.Random) -> list[str]:
    """:data:`SPELLINGS` renderings of ``tree``; the first is the unshuffled one."""
    return [render(tree)] + [render(tree, rng) for _ in range(SPELLINGS - 1)]


def _zipf_sampler(n: int, rng: random.Random):
    cumulative = list(itertools.accumulate(1.0 / (k + 1) ** ZIPF_S for k in range(n)))
    total = cumulative[-1]

    def draw() -> int:
        return bisect.bisect_left(cumulative, rng.random() * total)

    return draw


def zipf_stream(
    variants: list[list[str]], length: int, rng: random.Random
) -> list[tuple[int, str]]:
    """``length`` draws of ``(distinct index, spelling)`` from a Zipf(:data:`ZIPF_S`)."""
    draw = _zipf_sampler(len(variants), rng)
    out = []
    for _ in range(length):
        k = draw()
        out.append((k, rng.choice(variants[k])))
    return out


# -- bookstore queries in the paper's shapes -----------------------------------


def _ln(rng):
    return leaf(f'[ln = "{rng.choice(LAST_NAMES)}"]')


def _fn(rng):
    return leaf(f'[fn = "{rng.choice(FIRST_NAMES)}"]')


def _kwd(word):
    return leaf(f"[kwd contains {word}]")


def _two(rng, pool):
    a, b = rng.sample(pool, 2)
    return a, b


def bookstore_tree(rng: random.Random, shape: str) -> tuple:
    """One query of a named paper shape over the ``book`` view."""
    if shape == "example1":  # [fn = F] and [ln = L]
        return ("and", (_fn(rng), _ln(rng)))
    if shape == "example2":  # ([ln = L1] or [ln = L2]) and [fn = F]
        l1, l2 = _two(rng, LAST_NAMES)
        return ("and", (
            ("or", (leaf(f'[ln = "{l1}"]'), leaf(f'[ln = "{l2}"]'))),
            _fn(rng),
        ))
    if shape == "qbook":  # Figure 7
        w1, w2 = _two(rng, TITLE_WORDS)
        m1, m2 = rng.sample(range(1, 13), 2)
        return ("and", (
            ("or", (("and", (_ln(rng), _fn(rng))), _kwd(w1), _kwd(w2))),
            leaf(f"[pyear = {rng.choice(YEARS)}]"),
            ("or", (leaf(f"[pmonth = {m1}]"), leaf(f"[pmonth = {m2}]"))),
        ))
    if shape == "author":  # one author, optionally a year
        parts = [_ln(rng)]
        if rng.random() < 0.5:
            parts.append(leaf(f"[pyear = {rng.choice(YEARS)}]"))
        return ("and", tuple(parts)) if len(parts) > 1 else parts[0]
    if shape == "topic":  # a keyword or a category, with a year
        topic = (
            _kwd(rng.choice(TITLE_WORDS))
            if rng.random() < 0.6
            else leaf(f'[category = "{rng.choice(sorted(CATEGORIES))}"]')
        )
        return ("and", (topic, leaf(f"[pyear = {rng.choice(YEARS)}]")))
    raise ValueError(f"unknown shape {shape!r}")


def distinct_trees(rng: random.Random, count: int, shapes: tuple[str, ...]) -> list[tuple]:
    """``count`` trees with pairwise-distinct canonical forms."""
    seen: set = set()
    out: list[tuple] = []
    while len(out) < count:
        tree = bookstore_tree(rng, shapes[len(out) % len(shapes)])
        key = canonical(tree)
        if key in seen:
            continue
        seen.add(key)
        out.append(tree)
    return out


HOT_SHAPES = ("example1", "example2", "qbook")
FEDERATION_SHAPES = ("example1", "example2", "qbook", "author", "topic")


def query_set(
    seed: int, label: str, count: int, shapes: tuple[str, ...]
) -> tuple[list[list[str]], list[str]]:
    """``count`` distinct queries (each as its spellings) plus one probe.

    The probe is one more distinct query, used to time set-up; it never
    appears in the workload stream.
    """
    rng = random.Random(f"{label}:{seed}")
    trees = distinct_trees(rng, count + 1, shapes)
    variants = [spellings(tree, rng) for tree in trees[:count]]
    return variants, [render(trees[count])]


#: Distinct queries behind the mediate_federation stream.
FEDERATION_QUERIES = 50


def hot_stream(seed: int, length: int, distinct: int = 300):
    """``translate_hot``: ``length`` draws from a Zipf over ``distinct`` bookstore queries."""
    variants, probe = query_set(seed, "hot", distinct, HOT_SHAPES)
    rng = random.Random(f"hot-stream:{seed}")
    return variants, probe, zipf_stream(variants, length, rng)


def federation_stream(seed: int, length: int):
    """``mediate_federation``: ``length`` draws from a Zipf over book-view queries."""
    variants, probe = query_set(seed, "federation", FEDERATION_QUERIES, FEDERATION_SHAPES)
    rng = random.Random(f"federation-stream:{seed}")
    return variants, probe, zipf_stream(variants, length, rng)


# -- the SKOS-shaped concordance ---------------------------------------------


#: Source concepts in the generated concordance (about 10k rules).
CONCEPTS = 7000
#: The spec's name: ``reload`` swaps a served spec by name, and
#: ``repro serve`` boots only built-in scenarios.
SPEC_NAME = "K_Amazon"


def concept(i: int) -> str:
    return f"c{i:05d}"


def skos_spec(seed: int, concepts: int = CONCEPTS) -> dict:
    """A declarative spec shaped like a SKOS concordance between vocabularies.

    Each source concept ``cNNNNN`` is, at random, an *exact* match (one
    exact rule onto its own target term), a *broader-only* match (one
    inexact rule relaxing it onto a shared broader target term), or an
    *orphan* with no rule at all.  Neighbouring non-orphan concepts are
    often inter-dependent: a two-pattern rule maps the pair onto one
    combined target term, which gives PSafe cross-matchings to find.
    """
    rng = random.Random(f"skos:{seed}")
    kinds = []
    for _ in range(concepts):
        r = rng.random()
        kinds.append("exact" if r < 0.65 else "broader" if r < 0.85 else "orphan")
    rules: list[dict] = []
    value_is_x = [{"cond": "value_is", "vars": ["X"]}]
    for i, kind in enumerate(kinds):
        match = [{"attr": concept(i), "op": "=", "bind": "X"}]
        if kind == "exact":
            rules.append({
                "name": f"X{i}", "match": match, "where": value_is_x,
                "emit": {"attr": f"t{i:05d}", "op": "=", "value": "$X"},
                "exact": True,
            })
        elif kind == "broader":
            rules.append({
                "name": f"B{i}", "match": match, "where": value_is_x,
                "emit": {"attr": f"g{i // 8:04d}", "op": "=", "value": "$X"},
                "exact": False,
            })
    for i in range(concepts - 1):
        if "orphan" in (kinds[i], kinds[i + 1]) or rng.random() >= 0.8:
            continue
        rules.append({
            "name": f"D{i}",
            "match": [
                {"attr": concept(i), "op": "=", "bind": "X"},
                {"attr": concept(i + 1), "op": "=", "bind": "Y"},
            ],
            "where": [{"cond": "value_is", "vars": ["X", "Y"]}],
            "let": [{"var": "N", "fn": "ln_fn_to_name", "args": ["$X", "$Y"]}],
            "emit": {"attr": f"d{i:05d}", "op": "=", "value": "$N"},
            "exact": True,
        })
    return {
        "name": SPEC_NAME,
        "target": "Amazon",
        "description": f"generated SKOS-shaped concordance, seed {seed}",
        "rules": rules,
    }


#: Upper bound on the product of one cold query's ∨-group widths.
MAX_ALTERNATIVES = 8
#: Consecutive concepts one cold query draws its attributes from.
WINDOW = 18


def cold_tree(rng: random.Random) -> tuple:
    """An ∧/∨ query of 8–16 constraints over :data:`WINDOW` neighbouring concepts.

    The ∨-groups' widths multiply to at most :data:`MAX_ALTERNATIVES`,
    which bounds how far Disjunctivize can expand one query.  Unbounded,
    about 1% of mappings rendered past 64 KiB, the line limit at which
    the cluster front-end drops a worker as dead, so translate_sharded
    would measure failover instead of serving.
    """
    n = rng.randint(8, 16)
    start = rng.randrange(CONCEPTS - WINDOW)
    attrs = [concept(start + j) for j in rng.sample(range(WINDOW), n)]
    leaves = [leaf(f'[{a} = "v{rng.randrange(30)}"]') for a in attrs]
    groups: list[tuple] = []
    product = 1
    i = 0
    while i < n:
        width = rng.choice((1, 1, 2, 2, 3))
        if i + width > n or product * width > MAX_ALTERNATIVES:
            width = 1
        product *= width
        part = leaves[i:i + width]
        groups.append(part[0] if width == 1 else ("or", tuple(part)))
        i += width
    return ("and", tuple(groups))


def cold_stream(seed: int, length: int):
    """``translate_cold``: ``length`` never-repeated queries, plus one probe query."""
    rng = random.Random(f"cold-stream:{seed}")
    seen: set = set()
    queries: list[str] = []
    while len(queries) < length + 1:
        tree = cold_tree(rng)
        key = canonical(tree)
        if key in seen:
            continue
        seen.add(key)
        queries.append(render(tree, rng))
    return queries[1:], queries[:1]


# -- federation catalogs -----------------------------------------------------


def _book(rng: random.Random, isbn: int) -> dict:
    words = rng.sample(TITLE_WORDS, rng.randint(2, 4))
    last = rng.choice(LAST_NAMES)
    author = last if rng.random() < 0.1 else f"{last}, {rng.choice(FIRST_NAMES)}"
    return {
        "title": " ".join(w.capitalize() for w in words),
        "author": author,
        "year": rng.choice(YEARS),
        "month": rng.randint(1, 12),
        "publisher": rng.choice(PUBLISHERS),
        "isbn": f"{isbn:09d}X",
        "subject": rng.choice(sorted(CATEGORIES.values())),
    }


#: Share of each catalog's books that the other catalog also carries.
SHARED = 0.6


def catalogs(seed: int, books: int = 500) -> dict:
    """Two bookstore catalogs of ``books`` rows, :data:`SHARED` of them in common."""
    rng = random.Random(f"catalogs:{seed}")
    common = [_book(rng, i) for i in range(int(books * SHARED))]
    amazon = common + [_book(rng, 100000 + i) for i in range(books - len(common))]
    clbooks = common + [_book(rng, 200000 + i) for i in range(books - len(common))]
    rng.shuffle(amazon)
    rng.shuffle(clbooks)
    return {"amazon": amazon, "clbooks": clbooks}
