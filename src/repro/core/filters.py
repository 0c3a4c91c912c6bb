"""Filter-query (residue) generation — the ``F`` of Eq. 2/3.

After translation, the mediator must post-filter the combined source
results with the conditions not *fully* realized at the sources (Example
1: redo Q at the mediator; Example 3: ``F = c``, the one relaxed
constraint).  The paper defers the construction to references [15, 16];
we implement the sound, exactness-driven form those examples exhibit:

* Write ``Q`` as a top-level conjunction ``c1 ∧ ... ∧ ck`` (a
  non-conjunctive ``Q`` is a single conjunct).
* Per source, partition the conjuncts with Algorithm PSafe (dependent
  conjuncts translate *jointly*, so exactness must be judged per block:
  ``[ln = "Clancy"] ∧ [fn = "Tom"]`` is exact at Amazon only as a pair).
* A conjunct may be dropped from ``F`` iff its block's translation at some
  source is *exact* — logically equivalent, not merely subsuming — because
  that source then removes precisely the tuples the block would.
* Everything else stays in ``F``.

Exactness of a translation is computed by TDQM from the rules' ``exact``
flags (see :class:`repro.core.matching.Rule`); the result is always sound,
merely conservative when a rule author under-declares exactness.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from repro.core.ast import And, Query, conj
from repro.core.matching import Matcher
from repro.core.normalize import normalize
from repro.core.psafe import psafe_partition
from repro.core.tdqm import tdqm_translate
from repro.obs import trace as obs
from repro.rules.spec import MappingSpecification

__all__ = ["FilterPlan", "build_filter", "translate_for_sources"]


@dataclass(frozen=True)
class FilterPlan:
    """Per-source mappings plus the residue filter — Eq. 2's ingredients.

    Invariant (Eq. 3): ``Q ≡ filter ∧ mappings[s1] ∧ ... ∧ mappings[sn]``
    where each mapping applies to its own source's tuples.  ``mappings``
    is read-only: a mediator caches its plans and hands the same
    :class:`FilterPlan` to every request for the query.
    """

    query: Query
    mappings: Mapping[str, Query]
    filter: Query


def translate_for_sources(
    query: Query, specs: dict[str, MappingSpecification]
) -> dict[str, Query]:
    """``S_i(Q)`` for each source, translated independently (Section 2)."""
    return {name: tdqm_translate(query, spec).mapping for name, spec in specs.items()}


def build_filter(
    query: Query, specs: dict[str, MappingSpecification], cache=None
) -> FilterPlan:
    """Translate ``query`` for every source and derive the residue filter.

    ``cache`` (a :class:`repro.perf.TranslationCache`) memoizes the
    per-source translations *and* the per-block exactness probes — the
    hottest part of the mediation path for repeated queries.  The plan is
    identical with or without it: translation is a pure function of the
    (normalized) query and the specification's rule set.
    """
    with obs.span("build_filter", sources=len(specs)):
        query = normalize(query)
        conjuncts = list(query.children) if isinstance(query, And) else [query]

        matchers: dict[str, Matcher] = {
            name: spec.matcher() for name, spec in specs.items()
        }
        mappings: dict[str, Query] = {}
        droppable: set[int] = set()
        for name, matcher in matchers.items():
            spec = specs[name]

            def translate(q: Query):
                if cache is not None:
                    return cache.tdqm(q, spec)
                return tdqm_translate(q, matcher)

            with obs.span("filter.source", source=name):
                mappings[name] = translate(query).mapping
                for block in psafe_partition(conjuncts, matcher):
                    sub = conj(conjuncts[i] for i in block)
                    if translate(sub).exact:
                        droppable.update(block)
                        obs.count("filter.exact_blocks")
                    else:
                        obs.count("filter.relaxed_blocks")

        residue = [c for i, c in enumerate(conjuncts) if i not in droppable]
        obs.count("filter.residue_conjuncts", len(residue))
        return FilterPlan(
            query=query, mappings=MappingProxyType(mappings), filter=conj(residue)
        )
