"""The mediation pipeline: Eq. 1 (direct) vs Eq. 2 (translated) answering.

:class:`Mediator` owns integrated views, the sources behind them, and one
mapping specification per source.  It answers a user constraint query two
ways:

* :meth:`answer_direct` — materialize every referenced view instance and
  evaluate ``Q`` over their cross product: ``σ_Q(V1 × ... × Vh)``, the
  semantics the user sees (Eq. 1 after view expansion).
* :meth:`answer_mediated` — translate ``Q`` per source with Algorithm
  TDQM, let each source evaluate its mapping natively over its own
  relation instances, reassemble view tuples through the conversion
  functions, and post-filter with the residue ``F``:
  ``σ_F[σ_S1(Q)(R1) × ... × σ_Sn(Q)(Rn) × X]`` (Eq. 2).

Eq. 3 (``Q ≡ F ∧ S1(Q) ∧ ... ∧ Sn(Q)``) says the two answers must agree —
the end-to-end correctness check the integration tests and the mediator
bench run on every workload.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from itertools import product

from repro.core.ast import AttrRef, Query
from repro.core.errors import EvaluationError, SourceUnavailableError, TranslationError
from repro.core.filters import FilterPlan, build_filter
from repro.core.normalize import normalize
from repro.core.tdqm import TranslationResult
from repro.engine.eval import RowEnv, Virtual, compile_predicate, evaluate
from repro.engine.source import Source
from repro.engine.views import UnionViewDef, ViewDef
from repro.obs import trace as obs
from repro.perf import TranslationCache, translate_batch
from repro.resilience import (
    ResilienceConfig,
    SourceOutcome,
    record_outcome,
    wrap_sources,
)
from repro.rules.spec import MappingSpecification

__all__ = ["Mediator", "MediatedAnswer"]

#: Sentinel: "construct a default TranslationCache" (pass None to disable).
_DEFAULT_CACHE = object()

#: One result: ((view, index) -> view tuple) frozen for comparison.
ResultRow = tuple


class MediatedAnswer:
    """The mediated result plus the plan(s) that produced it.

    For plain views there is exactly one plan; for *union* views (Section
    2) the query runs once per component choice and ``plans`` holds one
    :class:`~repro.core.filters.FilterPlan` per choice (the residue filter
    depends on which sources the choice involves).

    Under a resilient mediator the answer additionally carries
    **partial-answer semantics**: ``outcomes`` lists one
    :class:`~repro.resilience.SourceOutcome` per source call (status
    ok / retried / failed / timed-out / skipped-open-circuit) and
    ``complete`` is ``False`` when any call failed — the surviving rows
    are then the union of the choices whose sources all answered, never
    wrong rows, just possibly fewer.
    """

    def __init__(
        self,
        rows: list[ResultRow],
        plans: list[FilterPlan],
        outcomes: Sequence[SourceOutcome] | None = None,
        complete: bool = True,
    ):
        self.rows = rows
        self.plans = list(plans)
        #: Per-source-call outcome records (empty for non-resilient runs).
        self.outcomes: list[SourceOutcome] = list(outcomes or [])
        #: Did every source call succeed?  Partial answers are sound but
        #: may be missing the failed sources' contributions.
        self.complete = complete

    @property
    def plan(self) -> FilterPlan:
        """The (first) plan — the only one for non-union mediators."""
        if not self.plans:
            raise ValueError(
                "mediated answer has no plans: zero translation choices "
                "were executed for this query"
            )
        return self.plans[0]

    @property
    def failed_sources(self) -> list[str]:
        """Names of sources whose calls failed, in outcome order."""
        seen: list[str] = []
        for outcome in self.outcomes:
            if not outcome.ok and outcome.source not in seen:
                seen.append(outcome.source)
        return seen

    def __len__(self) -> int:
        return len(self.rows)


class Mediator:
    """A mediator integrating heterogeneous sources behind unified views."""

    def __init__(
        self,
        views: Mapping[str, ViewDef],
        sources: Mapping[str, Source],
        specs: Mapping[str, MappingSpecification],
        view_virtuals: Mapping[str, Virtual] | None = None,
        translation_cache: TranslationCache | None = _DEFAULT_CACHE,  # type: ignore[assignment]
        resilience: ResilienceConfig | None = None,
        interpret: bool = False,
    ):
        self.views = dict(views)
        # interpret=True runs every translation on the interpreted matcher
        # and bypasses the translation cache — the repro.perf.compile
        # escape hatch / equivalence oracle, at mediator granularity.
        self.interpret = interpret
        # With a resilience config every source sits behind its own
        # SourceAdapter (deadline + retry + breaker); without one the
        # sources are used as given and mediation is byte-identical to
        # the pre-resilience pipeline.
        self.resilience = resilience
        if resilience is not None:
            self.sources = wrap_sources(sources, resilience)
        else:
            self.sources = dict(sources)
        self.specs = dict(specs)
        self.view_virtuals = dict(view_virtuals or {})
        # Hot-path memo of whole translations (repro.perf).  Safe by
        # construction — cache keys pin each specification's version
        # stamp — so it is on by default; pass None to disable or your
        # own TranslationCache to share one across mediators.
        if translation_cache is _DEFAULT_CACHE:
            translation_cache = TranslationCache()
        self.translation_cache = translation_cache
        unknown = set(self.specs) - set(self.sources)
        if unknown:
            raise TranslationError(
                f"specifications for unknown sources: {sorted(unknown)}"
            )
        for view in self.views.values():
            missing = view.sources() - set(self.specs)
            if missing:
                raise TranslationError(
                    f"view {view.name!r} uses sources without a mapping "
                    f"specification: {sorted(missing)}"
                )

    def with_resilience(self, resilience: ResilienceConfig | None) -> Mediator:
        """This mediator with a different resilience config (or none).

        Adapters never stack: the new mediator wraps the *underlying*
        sources, and shares views, specs, virtuals, and the translation
        cache with this one.
        """
        return Mediator(
            views=self.views,
            sources={
                name: getattr(source, "source", source)
                for name, source in self.sources.items()
            },
            specs=self.specs,
            view_virtuals=self.view_virtuals,
            translation_cache=self.translation_cache,
            resilience=resilience,
            interpret=self.interpret,
        )

    # -- query analysis --------------------------------------------------------

    def view_instances(self, query: Query) -> list[tuple[str, int | None]]:
        """The (view, index) instances a query ranges over."""
        instances: set[tuple[str, int | None]] = set()
        for constraint in query.constraints():
            refs = [constraint.lhs]
            if isinstance(constraint.rhs, AttrRef):
                refs.append(constraint.rhs)
            for ref in refs:
                view = ref.view
                if view is None:
                    if len(self.views) != 1:
                        raise EvaluationError(
                            f"unqualified reference {ref} is ambiguous with "
                            f"{len(self.views)} views"
                        )
                    view = next(iter(self.views))
                if view not in self.views:
                    raise EvaluationError(f"unknown view {view!r} in {ref}")
                instances.add((view, ref.index))
        if not instances:
            # A constant query still ranges over the single view, if any.
            if len(self.views) == 1:
                instances.add((next(iter(self.views)), None))
        return sorted(instances, key=lambda vi: (vi[0], vi[1] if vi[1] is not None else -1))

    # -- Eq. 1: direct evaluation ---------------------------------------------

    def answer_direct(self, query: Query) -> list[ResultRow]:
        """Ground truth: evaluate Q over materialized view extensions."""
        with obs.span("mediator.answer_direct"):
            query = normalize(query)
            instances = self.view_instances(query)
            extensions = {
                view: self.views[view].materialize(self.sources)
                for view in {v for v, _ in instances}
            }
            out: list[ResultRow] = []
            pools = [extensions[view] for view, _ in instances]
            for combo in product(*pools):
                env_rows = {
                    ((view,), index): row
                    for (view, index), row in zip(instances, combo)
                }
                env = RowEnv(env_rows, self.view_virtuals)
                if evaluate(query, env):
                    out.append(_canonical(instances, combo))
            if obs.recording():
                scanned = 1
                for pool in pools:
                    scanned *= len(pool)
                obs.count("mediator.direct_rows_scanned", scanned)
                obs.count("mediator.direct_rows_emitted", len(out))
            return out

    # -- Eq. 2: translated evaluation -------------------------------------------

    def _components_of(self, view_name: str) -> list[ViewDef]:
        view = self.views[view_name]
        if isinstance(view, UnionViewDef):
            return list(view.components)
        return [view]

    def answer_mediated(
        self, query: Query, *, strict: bool | None = None
    ) -> MediatedAnswer:
        """Translate per source, execute natively, convert, post-filter.

        Union views are processed one component choice at a time (Section
        2), unioning the per-choice results.  The residue filter is
        computed per choice: a conjunct may be exactly enforced by one
        component's source but not another's.

        Under a resilience config, source calls fan out concurrently and
        failures degrade to a **partial answer** (``complete=False``,
        per-source outcomes attached): a choice with a failed source
        contributes no rows — conservative, never wrong.  ``strict=True``
        (or ``resilience.strict``) raises
        :class:`~repro.core.errors.SourceUnavailableError` instead.
        """
        if strict is None:
            strict = self.resilience.strict if self.resilience is not None else False
        with obs.span("mediator.answer_mediated"):
            query = normalize(query)
            instances = self.view_instances(query)
            choice_lists = [self._components_of(view) for view, _ in instances]

            rows: list[ResultRow] = []
            plans: list[FilterPlan] = []
            outcomes: list[SourceOutcome] = []
            for choice in product(*choice_lists):
                obs.count("mediator.choices")
                components = dict(zip(instances, choice))
                involved = set()
                for component in choice:
                    involved |= component.sources()
                specs = {name: self.specs[name] for name in sorted(involved)}
                plan = build_filter(
                    query,
                    specs,
                    cache=self.translation_cache,
                    interpret=self.interpret,
                )
                plans.append(plan)
                choice_rows, choice_outcomes = self._run_choice(
                    query, plan, instances, components
                )
                rows.extend(choice_rows)
                outcomes.extend(choice_outcomes)
            if not plans:
                # Constant query over zero instances: nothing to execute.
                plans.append(
                    build_filter(
                        query,
                        self.specs,
                        cache=self.translation_cache,
                        interpret=self.interpret,
                    )
                )
                if evaluate(plans[0].filter, RowEnv({}, self.view_virtuals)):
                    rows.append(())
            complete = all(outcome.ok for outcome in outcomes)
            if not complete:
                failed = [o for o in outcomes if not o.ok]
                obs.count("mediator.partial_answers")
                if strict:
                    names = sorted({o.source for o in failed})
                    raise SourceUnavailableError(
                        f"strict mediation failed: source(s) {names} "
                        f"unavailable ({', '.join(o.status for o in failed)})",
                        outcomes=tuple(failed),
                    )
            obs.count("mediator.rows_emitted", len(rows))
            return MediatedAnswer(rows, plans, outcomes=outcomes, complete=complete)

    def _source_keys(
        self,
        source_name: str,
        instances: list[tuple[str, int | None]],
        components: Mapping[tuple[str, int | None], ViewDef],
    ) -> dict:
        """Environment keys a source's relation instances bind in Eq. 2."""
        keys = {}
        for view, index in instances:
            for base in components[(view, index)].bases:
                if base.source == source_name:
                    keys[((view, base.relation), index)] = base.relation
        return keys

    def _execute_resilient(
        self,
        plan: FilterPlan,
        instances: list[tuple[str, int | None]],
        components: Mapping[tuple[str, int | None], ViewDef],
    ) -> tuple[list[list[dict]], list[SourceOutcome]]:
        """Fan the choice's source calls out over a thread pool.

        Each call goes through its :class:`~repro.resilience.SourceAdapter`
        (deadline/retry/breaker); a failed call contributes an *empty*
        rowset, so the choice's cross product — and hence its answer
        contribution — is empty.  Each pool worker runs under an
        ``obs.bind`` handoff prepared here in job order, so its spans and
        counters (including :func:`~repro.resilience.record_outcome`)
        land deterministically in the calling thread's trace.
        """
        assert self.resilience is not None
        ordered = sorted(plan.mappings)
        jobs = []  # (position, source adapter, keys, translated query)
        per_source: list[list[dict]] = [[] for _ in ordered]
        for position, source_name in enumerate(ordered):
            keys = self._source_keys(source_name, instances, components)
            if not keys:
                per_source[position] = [{}]
            else:
                jobs.append(
                    (position, self.sources[source_name], keys, plan.mappings[source_name])
                )
        outcomes: list[SourceOutcome] = []
        workers = self.resilience.workers_for(len(jobs))
        with obs.span("mediator.fanout", sources=len(jobs), workers=workers):
            if workers > 1 and len(jobs) > 1:
                # Handoffs are created here, in sorted-job order, so the
                # fanout span's children are deterministic however the
                # pool schedules the workers.
                bound = [
                    (job, obs.bind("mediator.call", source=job[1].name))
                    for job in jobs
                ]

                def run(entry):
                    (_, adapter, keys, translated), handoff = entry
                    with handoff:
                        rows, outcome = adapter.call(keys, translated)
                        record_outcome(outcome)
                        return rows, outcome

                with ThreadPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(run, bound))
            else:
                results = []
                for _, adapter, keys, translated in jobs:
                    with obs.span("mediator.call", source=adapter.name):
                        rows, outcome = adapter.call(keys, translated)
                        record_outcome(outcome)
                    results.append((rows, outcome))
            for (position, adapter, _, _), (rows, outcome) in zip(jobs, results):
                outcomes.append(outcome)
                if rows is not None:
                    obs.count("mediator.source_rows", len(rows))
                    per_source[position] = rows
        return per_source, outcomes

    def _run_choice(
        self,
        query: Query,
        plan: FilterPlan,
        instances: list[tuple[str, int | None]],
        components: Mapping[tuple[str, int | None], ViewDef],
    ) -> tuple[list[ResultRow], list[SourceOutcome]]:
        """One Eq. 2 execution with a fixed view-component per instance."""
        # Each source evaluates its mapping over the relation instances it
        # contributes to the queried view instances.
        outcomes: list[SourceOutcome] = []
        if self.resilience is not None:
            per_source, outcomes = self._execute_resilient(plan, instances, components)
        else:
            per_source = []
            for source_name in sorted(plan.mappings):
                source = self.sources[source_name]
                keys = self._source_keys(source_name, instances, components)
                if not keys:
                    per_source.append([{}])
                    continue
                started = time.perf_counter()
                with obs.span("mediator.execute", source=source_name):
                    executed = source.execute(keys, plan.mappings[source_name])
                    obs.count("mediator.source_rows", len(executed))
                registry = obs.metrics_sink()
                if registry is not None:
                    # Plain (non-resilient) path: scorecards come from here;
                    # the resilient path records via record_outcome instead.
                    registry.record_source_call(
                        source_name,
                        time.perf_counter() - started,
                        rows=len(executed),
                    )
                per_source.append(executed)

        # Reassemble view tuples through the conversion functions and apply
        # the residue filter F, compiled once for this choice's instances.
        residue = compile_predicate(
            plan.filter,
            [((view,), index) for view, index in instances],
            self.view_virtuals,
        )
        out: list[ResultRow] = []
        filtered = 0
        for parts in product(*per_source):
            merged: dict = {}
            for part in parts:
                merged.update(part)
            view_rows = []
            ok = True
            for view, index in instances:
                view_def = components[(view, index)]
                by_alias = {}
                for base in view_def.bases:
                    key = ((view, base.relation), index)
                    if key not in merged:
                        ok = False
                        break
                    by_alias[base.relation] = merged[key]
                if not ok:
                    break
                view_row = view_def.combine(by_alias)
                if view_row is None:
                    ok = False
                    break
                view_rows.append(view_row)
            if not ok:
                continue
            filtered += 1
            if residue(view_rows):
                out.append(_canonical(instances, view_rows))
        if obs.recording():
            # Post-filter selectivity: candidates that reached F vs survivors.
            obs.count("mediator.filter_candidates", filtered)
            obs.count("mediator.filter_survivors", len(out))
        return out, outcomes

    # -- batch translation -------------------------------------------------------

    def translate_many(
        self,
        queries: Sequence[Query | str],
        sources: Sequence[str] | None = None,
    ) -> list[dict[str, TranslationResult]]:
        """Translate a batch of queries for every (or the named) sources.

        The batch path shares everything shareable: each query is parsed,
        normalized, and fingerprinted once (not once per source), each
        source's compiled rule index is built once up front, and all
        translations go through this mediator's :class:`TranslationCache`
        — duplicate queries in the batch, and queries answered before,
        cost a cache lookup.

        Returns one ``{source name: TranslationResult}`` dict per query,
        in input order.
        """
        from repro.core.parser import parse_query

        if sources is None:
            selected = dict(self.specs)
        else:
            unknown = set(sources) - set(self.specs)
            if unknown:
                raise TranslationError(
                    f"translate_many: unknown sources {sorted(unknown)}"
                )
            selected = {name: self.specs[name] for name in sources}
        parsed = [
            parse_query(query) if isinstance(query, str) else query
            for query in queries
        ]
        return translate_batch(
            parsed, selected, cache=self.translation_cache, interpret=self.interpret
        )

    # -- verification ------------------------------------------------------------

    def check_equivalence(self, query: Query) -> bool:
        """Do Eq. 1 and Eq. 2 agree (as multisets) on this query?"""
        direct = Counter(self.answer_direct(query))
        mediated = Counter(self.answer_mediated(query).rows)
        return direct == mediated


def _canonical(instances, rows) -> ResultRow:
    """A hashable, order-stable rendering of one result combination."""
    return tuple(
        (view, index, tuple(sorted((k, _freeze(v)) for k, v in row.items())))
        for (view, index), row in zip(instances, rows)
    )


def _freeze(value: object) -> object:
    if isinstance(value, (list, set)):
        return tuple(sorted(map(str, value)))
    return value
