"""The mediation plan: each distinct ``mediate`` query is planned once.

The contracts under test:

* A plan lives in the mediator's translation cache under the mediator's
  scope, every served spec's (name, content digest) and the query
  fingerprint: a ``mediate`` admitted after ``reload_spec`` answers
  under the new spec, even while a request admitted before the reload
  is still building its plan under the old one.
* Mediators sharing one cache never exchange plans.
* ``invalidate`` drops and counts plans; snapshots export translations
  only and skip plans without calling them stale or unknown.
* Cached plans are read-only and answer like an uncached mediator and
  like Eq. 1 (the "plan cache" row of the differential matrix).
* The residue ``F`` runs its stored-attribute tests before its
  view-virtual ones.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mediator.mediator as mediator_module
from repro.core.errors import EvaluationError, TranslationError
from repro.core.parser import parse_query
from repro.core.tdqm import tdqm_translate
from repro.mediator import Mediator, bookstore_federation, bookstore_mediator
from repro.perf import TranslationCache
from repro.resilience import ResilienceConfig
from repro.rules.declarative import spec_from_dict
from repro.serve import MediationService, ServiceConfig
from repro.serve.snapshot import snapshot_payload

QUERY = '[ln = "Clancy"]'

#: ``ln`` still maps to ``author``, but no longer exactly: the plan's
#: residue F keeps the constraint, where the built-in K_Amazon drops it.
INEXACT = {
    "name": "K_Amazon",
    "target": "Amazon",
    "rules": [
        {
            "name": "V1",
            "match": [{"attr": "ln", "op": "=", "bind": "L"}],
            "where": [{"cond": "value_is", "vars": ["L"]}],
            "emit": {"attr": "author", "op": "=", "value": "$L"},
            "exact": False,
            "doc": "variant: ln -> author, declared inexact",
        }
    ],
}


def plan_entries(cache: TranslationCache) -> int:
    """Entries the snapshot export leaves out: the cache's plans."""
    return len(cache) - len(cache.export_entries())


class TestReloadServesTheNewPlan:
    def test_mediate_after_reload_answers_under_the_new_spec(self):
        service = MediationService(bookstore_mediator("amazon"), ServiceConfig())
        before = service.mediate(QUERY)
        assert str(before.plan.filter) == "true"
        new_spec = spec_from_dict(INEXACT)
        assert service.reload_spec(new_spec)["changed"] is True
        after = service.mediate(QUERY)
        assert str(after.plan.filter) == QUERY
        assert after.plan.mappings["Amazon"] == (
            tdqm_translate(parse_query(QUERY), new_spec).mapping
        )
        assert after.rows == before.rows  # both specs are sound

    def test_request_held_in_its_plan_build_across_a_reload(self, monkeypatch):
        # Mediate A is held inside its plan build, under the old spec,
        # across a reload.  Mediate B of the same query, admitted after
        # reload_spec returned, must not wait for A or share its plan:
        # it plans under the new rules.  A's plan, built from the table
        # it read, answers A alone.
        service = MediationService(bookstore_mediator("amazon"), ServiceConfig())
        real = mediator_module.build_filter
        entered = threading.Event()
        release = threading.Event()
        held = []

        def build_filter(query, specs, cache=None):
            if not held:
                held.append(specs["Amazon"])
                entered.set()
                release.wait(timeout=10.0)
            return real(query, specs, cache=cache)

        monkeypatch.setattr(mediator_module, "build_filter", build_filter)
        answers: dict[str, object] = {}

        def mediate(label: str) -> None:
            answers[label] = service.mediate(QUERY)

        first = threading.Thread(target=mediate, args=("A",))
        first.start()
        try:
            assert entered.wait(timeout=10.0)
            old_spec = held[0]
            service.reload_spec(spec_from_dict(INEXACT))
            second = threading.Thread(target=mediate, args=("B",))
            second.start()
            second.join(timeout=5.0)
            assert not second.is_alive(), "B waited for the plan admitted before the swap"
            assert "A" not in answers  # A is still held
            assert str(answers["B"].plan.filter) == QUERY
        finally:
            release.set()
            first.join(timeout=10.0)
        assert not first.is_alive()
        assert old_spec is not service.mediator.specs["Amazon"]
        assert str(answers["A"].plan.filter) == "true"  # A kept the rules it started with
        # A's plan went under the retired digest: a later request still
        # gets the new spec's plan.
        assert str(service.mediate(QUERY).plan.filter) == QUERY


class TestPlanScope:
    def test_mediators_sharing_a_cache_never_exchange_plans(self):
        # Same views, sources and specs; only the kwd virtual differs.
        # Clbooks cannot express kwd, so F keeps it and the virtual
        # decides the rows.
        cache = TranslationCache()
        words = bookstore_mediator("clbooks")
        plain = Mediator(
            views=words.views,
            sources=words.sources,
            specs=words.specs,
            view_virtuals=words.view_virtuals,
            translation_cache=cache,
        )
        title_only = Mediator(
            views=words.views,
            sources=words.sources,
            specs=words.specs,
            view_virtuals={
                **words.view_virtuals,
                "kwd": lambda row, op, value: words.view_virtuals["kwd"](
                    {"title": row["title"], "subject": ""}, op, value
                ),
            },
            translation_cache=cache,
        )
        query = parse_query("[kwd contains programming]")
        first = plain.answer_mediated(query)
        second = title_only.answer_mediated(query)
        assert str(first.plan.filter) == str(query)
        assert Counter(first.rows) == Counter(plain.answer_direct(query))
        assert Counter(second.rows) == Counter(title_only.answer_direct(query))
        assert len(second.rows) < len(first.rows)
        assert plan_entries(cache) == 2
        # Each mediator keeps hitting its own plan.
        assert plain.answer_mediated(query).rows == first.rows
        assert title_only.answer_mediated(query).rows == second.rows

    def test_with_resilience_shares_the_cache_not_the_plans(self):
        plain = bookstore_federation()
        resilient = plain.with_resilience(ResilienceConfig())
        query = parse_query('[ln = "Clancy"] and [pyear = 1997]')
        assert resilient.answer_mediated(query).rows == plain.answer_mediated(query).rows
        assert plan_entries(plain.translation_cache) == 2


class TestPlanBookkeeping:
    def test_invalidate_drops_and_counts_plans(self):
        mediator = bookstore_federation()
        cache = mediator.translation_cache
        mediator.answer_mediated(parse_query(QUERY))
        translations = len(cache.export_entries())
        assert plan_entries(cache) == 1
        # The plan's key names both served specs, so either name drops it.
        amazon = sum(1 for key, _ in cache.export_entries() if key[1] == "K_Amazon")
        assert cache.invalidate("K_Clbooks") == translations - amazon + 1
        assert plan_entries(cache) == 0
        assert cache.stats.invalidations == translations - amazon + 1
        assert len(cache) == amazon

    def test_plan_lookups_are_cache_lookups(self):
        mediator = bookstore_federation()
        cache = mediator.translation_cache
        mediator.answer_mediated(parse_query(QUERY))
        after_miss = cache.stats
        mediator.answer_mediated(parse_query(QUERY))
        after_hit = cache.stats
        assert after_hit.hits == after_miss.hits + 1  # the plan, nothing else
        assert after_hit.misses == after_miss.misses

    def test_snapshot_skips_plans_without_counting_them(self):
        mediator = bookstore_federation()
        cache = mediator.translation_cache
        mediator.answer_mediated(parse_query(QUERY))
        assert plan_entries(cache) == 1
        specs = {spec.name: spec for spec in mediator.specs.values()}
        payload, report = snapshot_payload(cache, specs)
        assert report.entries == len(cache) - 1
        assert report.skipped_stale == 0 and report.skipped_unknown == 0
        assert sum(len(s["entries"]) for s in payload["specs"].values()) == report.entries

    def test_a_failed_build_is_not_stored(self):
        mediator = bookstore_federation()
        cache = mediator.translation_cache
        with pytest.raises(EvaluationError, match="unknown view"):
            mediator.answer_mediated(parse_query("[nope.ln = 1]"))
        assert len(cache) == 0
        assert cache.stats.misses == 1


class TestReadOnlyPlans:
    def test_cached_mappings_reject_mutation(self):
        mediator = bookstore_federation()
        query = parse_query(QUERY)
        answer = mediator.answer_mediated(query)
        with pytest.raises(TypeError):
            answer.plan.mappings["Amazon"] = parse_query('[author = "King"]')  # type: ignore[index]
        with pytest.raises(TypeError):
            del answer.plan.mappings["Amazon"]  # type: ignore[attr-defined]
        again = mediator.answer_mediated(query)
        assert again.plans[0] is answer.plans[0]
        assert again.rows == answer.rows


class TestCheapestFirstResidue:
    QUERY = "[kwd contains java] and [pyear = 1997]"

    def _counting(self):
        base = bookstore_federation()
        seen: list[object] = []
        kwd = base.view_virtuals["kwd"]

        def counted(row, op, value):
            seen.append(row["pyear"])
            return kwd(row, op, value)

        mediator = Mediator(
            views=base.views,
            sources=base.sources,
            specs=base.specs,
            view_virtuals={**base.view_virtuals, "kwd": counted},
        )
        return mediator, seen

    def test_kwd_runs_only_on_rows_the_stored_test_admits(self):
        mediator, seen = self._counting()
        query = parse_query(self.QUERY)
        answer = mediator.answer_mediated(query)
        # Amazon enforces both conjuncts; Clbooks neither, so F is the
        # whole query there, in the query's order.
        filters = [str(plan.filter) for plan in answer.plans]
        assert filters == ["true", self.QUERY]
        clbooks_1997 = [
            row for row in mediator.sources["Clbooks"].relation("catalog").rows()
            if row["year"] == 1997
        ]
        assert seen == [1997] * len(clbooks_1997)
        assert Counter(answer.rows) == Counter(mediator.answer_direct(query))

    def test_a_raising_virtual_only_raises_on_admitted_rows(self):
        mediator, _ = self._counting()
        # _match_text rejects "=", but no Clbooks book is from 1900, so
        # the stored test answers every row before kwd is asked.
        assert mediator.answer_mediated(
            parse_query('[kwd = "java"] and [pyear = 1900]')
        ).rows == []
        with pytest.raises(TranslationError, match="only contains"):
            mediator.answer_mediated(parse_query('[kwd = "java"] and [pyear = 1997]'))

    def test_a_stored_test_that_raises_is_retried_in_query_order(self):
        # The stored test raises on every row (no such attribute); in the
        # query's order kwd rejects each row first, so the query answers
        # today and must keep answering the same.
        mediator, _ = self._counting()
        query = parse_query("[kwd contains zzzz] and [shelf = 3]")
        assert mediator.answer_mediated(query).rows == []
        uncached = bookstore_federation()
        uncached.translation_cache = None
        assert uncached.answer_mediated(query).rows == []


# -- the "plan cache" row of the differential matrix ----------------------------

LAST_NAMES = ("Smith", "Clancy", "Klancy", "Tanen", "Chang")
FIRST_NAMES = ("John", "Tom", "Joe", "Andy", "Kevin")
TITLE_WORDS = ("java", "web", "www", "data", "queries", "compilers", "jdk")
YEARS = (1994, 1996, 1997, 1998)
MONTHS = tuple(range(1, 13))
CATEGORIES = ("D.3", "D.4", "H.2", "C.2")


def _leaf(text: str) -> tuple:
    return ("leaf", text)


@st.composite
def book_trees(draw) -> tuple:
    """One book-view query in the benchmark's shapes (author, topic,
    example1/2, qbook), as a tree of ``("and"|"or", children)`` nodes."""

    def ln():
        return _leaf(f'[ln = "{draw(st.sampled_from(LAST_NAMES))}"]')

    def fn():
        return _leaf(f'[fn = "{draw(st.sampled_from(FIRST_NAMES))}"]')

    def kwd():
        return _leaf(f"[kwd contains {draw(st.sampled_from(TITLE_WORDS))}]")

    def year():
        return _leaf(f"[pyear = {draw(st.sampled_from(YEARS))}]")

    shape = draw(st.sampled_from(("author", "topic", "example1", "example2", "qbook")))
    if shape == "author":
        return ("and", (ln(), year())) if draw(st.booleans()) else ln()
    if shape == "topic":
        category = _leaf(f'[category = "{draw(st.sampled_from(CATEGORIES))}"]')
        return ("and", (kwd() if draw(st.booleans()) else category, year()))
    if shape == "example1":
        return ("and", (fn(), ln()))
    if shape == "example2":
        l1, l2 = draw(st.lists(st.sampled_from(LAST_NAMES), min_size=2, max_size=2, unique=True))
        return ("and", (("or", (_leaf(f'[ln = "{l1}"]'), _leaf(f'[ln = "{l2}"]'))), fn()))
    m1, m2 = draw(st.lists(st.sampled_from(MONTHS), min_size=2, max_size=2, unique=True))
    return ("and", (
        ("or", (("and", (ln(), fn())), kwd(), kwd())),
        year(),
        ("or", (_leaf(f"[pmonth = {m1}]"), _leaf(f"[pmonth = {m2}]"))),
    ))


def _render(tree: tuple, shuffle) -> str:
    """Query text for ``tree``, each node's children in ``shuffle``'s order."""
    if tree[0] == "leaf":
        return tree[1]
    parts = [_render(child, shuffle) for child in tree[1]]
    shuffle(parts)
    return "(" + f" {tree[0]} ".join(parts) + ")"


#: One cached federation for every example, so later examples (and each
#: example's second spelling) are served from plans built earlier.
_CACHED = bookstore_federation()


@given(book_trees(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_cached_plans_answer_like_uncached_and_like_eq1(tree, rng):
    first = parse_query(_render(tree, rng.shuffle))
    commuted = parse_query(_render(tree, rng.shuffle))
    uncached = bookstore_federation()
    uncached.translation_cache = None
    _CACHED.answer_mediated(first)
    served = _CACHED.answer_mediated(commuted).rows
    assert served == uncached.answer_mediated(commuted).rows
    assert Counter(served) == Counter(uncached.answer_direct(commuted))
