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

Everything in Eq. 2 except the source rows is a pure function of ``Q``
and the served specifications, so :meth:`Mediator.answer_mediated`
plans each distinct query once.  Per view-component choice a plan holds
the :class:`~repro.core.filters.FilterPlan`, each source's call, the
reassembly layout, and ``F`` compiled with each ∧/∨ node's tests of
stored attributes ahead of its view virtuals.  Plans live in the
mediator's :class:`~repro.perf.TranslationCache`, keyed by the
mediator, every served spec's name and content digest, and the query
fingerprint; a repeated query costs one lookup, the source scans, and
the post-filter.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Collection, Iterable, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

from repro.core.ast import And, AttrRef, Not, Or, Query
from repro.core.errors import EvaluationError, SourceUnavailableError, TranslationError
from repro.core.filters import FilterPlan, build_filter
from repro.core.normalize import normalize
from repro.core.tdqm import TranslationResult
from repro.engine.eval import RowEnv, RowPredicate, Virtual, compile_predicate, evaluate
from repro.engine.source import Source
from repro.engine.views import UnionViewDef, ViewDef
from repro.obs import trace as obs
from repro.perf import TranslationCache, query_fingerprint, translate_batch
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

#: A view instance a query ranges over: (view name, index or None).
_Instance = tuple[str, int | None]

#: Per view instance: its component and its (environment key, alias) pairs.
_Layout = tuple[tuple[ViewDef, tuple[tuple[tuple, str], ...]], ...]


@dataclass(frozen=True)
class _Choice:
    """Eq. 2 for one view-component choice, minus the source rows."""

    plan: FilterPlan
    #: (source name, {environment key: relation}, S_i(Q)), by source name.
    calls: tuple[tuple[str, Mapping[tuple, str], Query], ...]
    #: In the order of the plan's instances.
    layout: _Layout
    #: ``F`` compiled cheapest-first (see :func:`_cheapest_first`).
    residue: RowPredicate


@dataclass(frozen=True)
class _Plan:
    """Everything of one query's Eq. 2 answer except the source rows."""

    instances: tuple[_Instance, ...]
    choices: tuple[_Choice, ...]


class MediatedAnswer:
    """The mediated result plus the plan(s) that produced it.

    For plain views there is exactly one plan; for *union* views (Section
    2) the query runs once per component choice and ``plans`` holds one
    :class:`~repro.core.filters.FilterPlan` per choice (the residue filter
    depends on which sources the choice involves).  The plans come from
    the mediator's plan cache and are shared by every answer to the same
    query (commuted spellings included), so they are read-only.

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
    ):
        self.views = dict(views)
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
        # construction — cache keys pin each specification's content
        # digest — so it is on by default; pass None to disable or your
        # own TranslationCache to share one across mediators.
        if translation_cache is _DEFAULT_CACHE:
            translation_cache = TranslationCache()
        self.translation_cache = translation_cache
        # Plans depend on this mediator's views, virtuals and sources, not
        # only on its specs, so mediators sharing a cache key theirs apart.
        self._plan_scope = object()
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
        cache with this one.  It keys its own mediation plans in that
        cache.
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

        The plan comes from the translation cache (see the module
        docstring).  Its ``F`` runs each ∧/∨ node's stored-attribute
        tests before its view-virtual ones, so a residue conjunct that
        raises, such as ``[kwd = "x"]``, raises only on rows an earlier
        stored-attribute test lets through, as rows the source mapping
        filters out never reach ``F`` at all.  A row on which that order
        raises is re-tested in the query's own order, so every answer
        equals the query-order one and every error is one that order
        raises.

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
            plan = self._plan(query)
            rows: list[ResultRow] = []
            outcomes: list[SourceOutcome] = []
            for choice in plan.choices:
                obs.count("mediator.choices")
                choice_rows, choice_outcomes = self._run_choice(plan.instances, choice)
                rows.extend(choice_rows)
                outcomes.extend(choice_outcomes)
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
            return MediatedAnswer(
                rows,
                [choice.plan for choice in plan.choices],
                outcomes=outcomes,
                complete=complete,
            )

    def _plan(self, query: Query) -> _Plan:
        """The cached plan for normalized ``query`` (built on a miss)."""
        # One read of the spec table: the key and the plan must come from
        # the same table, or a reload between them files new rules under
        # an old key.
        specs = self.specs
        cache = self.translation_cache
        if cache is None:
            return self._build_plan(query, specs)
        return cache.plan(
            self._plan_scope,
            specs,
            query_fingerprint(query, normalized=True),
            lambda: self._build_plan(query, specs),
        )

    def _build_plan(
        self, query: Query, specs: Mapping[str, MappingSpecification]
    ) -> _Plan:
        """Eq. 2 for normalized ``query`` under ``specs``, minus the rows."""
        instances = tuple(self.view_instances(query))
        keys = [((view,), index) for view, index in instances]
        choices = []
        # Zero instances (a constant query over several views) still make
        # one choice: product() of nothing yields one empty combination.
        for components in product(*(self._components_of(view) for view, _ in instances)):
            involved: set[str] = set()
            for component in components:
                involved |= component.sources()
            plan = build_filter(
                query,
                {name: specs[name] for name in sorted(involved)},
                cache=self.translation_cache,
            )
            calls = tuple(
                (name, _source_keys(name, instances, components), plan.mappings[name])
                for name in sorted(plan.mappings)
            )
            layout = tuple(
                (
                    component,
                    tuple(
                        (((view, base.relation), index), base.relation)
                        for base in component.bases
                    ),
                )
                for (view, index), component in zip(instances, components)
            )
            choices.append(
                _Choice(plan, calls, layout, self._compile_residue(plan.filter, keys))
            )
        return _Plan(instances, tuple(choices))

    def _compile_residue(self, residue: Query, keys: Sequence[tuple]) -> RowPredicate:
        """``F`` compiled with its stored-attribute tests first.

        A row on which that order raises is evaluated again in the
        query's order, which answers or raises as it always did.
        """
        virtuals = self.view_virtuals
        ordered = _cheapest_first(residue, virtuals)
        fast = compile_predicate(ordered, keys, virtuals)
        if ordered is residue:
            return fast

        def predicate(rows: Sequence[Mapping]) -> bool:
            try:
                return fast(rows)
            except Exception:
                return evaluate(residue, RowEnv(dict(zip(keys, rows)), virtuals))

        return predicate

    def _execute_resilient(
        self, choice: _Choice
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
        jobs = [
            (self.sources[name], keys, translated)
            for name, keys, translated in choice.calls
        ]
        outcomes: list[SourceOutcome] = []
        per_source: list[list[dict]] = [[] for _ in jobs]
        workers = self.resilience.workers_for(len(jobs))
        with obs.span("mediator.fanout", sources=len(jobs), workers=workers):
            if workers > 1 and len(jobs) > 1:
                # Handoffs are created here, in sorted-job order, so the
                # fanout span's children are deterministic however the
                # pool schedules the workers.
                bound = [
                    (job, obs.bind("mediator.call", source=job[0].name))
                    for job in jobs
                ]

                def run(entry):
                    (adapter, keys, translated), handoff = entry
                    with handoff:
                        rows, outcome = adapter.call(keys, translated)
                        record_outcome(outcome)
                        return rows, outcome

                with ThreadPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(run, bound))
            else:
                results = []
                for adapter, keys, translated in jobs:
                    with obs.span("mediator.call", source=adapter.name):
                        rows, outcome = adapter.call(keys, translated)
                        record_outcome(outcome)
                    results.append((rows, outcome))
            for position, (rows, outcome) in enumerate(results):
                outcomes.append(outcome)
                if rows is not None:
                    obs.count("mediator.source_rows", len(rows))
                    per_source[position] = rows
        return per_source, outcomes

    def _run_choice(
        self, instances: tuple[_Instance, ...], choice: _Choice
    ) -> tuple[list[ResultRow], list[SourceOutcome]]:
        """One Eq. 2 execution with a fixed view-component per instance."""
        # Each source evaluates its mapping over the relation instances it
        # contributes to the queried view instances.
        outcomes: list[SourceOutcome] = []
        if self.resilience is not None:
            per_source, outcomes = self._execute_resilient(choice)
        else:
            per_source = []
            for source_name, keys, translated in choice.calls:
                started = time.perf_counter()
                with obs.span("mediator.execute", source=source_name):
                    executed = self.sources[source_name].execute(keys, translated)
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
        # the residue filter F.  One source's bound dicts are used as they
        # are; several sources' are merged per combination.
        bound_rows: Iterable[Mapping] = (
            per_source[0] if len(per_source) == 1 else map(_merged, product(*per_source))
        )
        layout = choice.layout
        residue = choice.residue
        out: list[ResultRow] = []
        filtered = 0
        for bound in bound_rows:
            view_rows = _reassemble(bound, layout)
            if view_rows is None:
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
        return translate_batch(parsed, selected, cache=self.translation_cache)

    # -- verification ------------------------------------------------------------

    def check_equivalence(self, query: Query) -> bool:
        """Do Eq. 1 and Eq. 2 agree (as multisets) on this query?"""
        direct = Counter(self.answer_direct(query))
        mediated = Counter(self.answer_mediated(query).rows)
        return direct == mediated


def _source_keys(
    source_name: str,
    instances: Sequence[_Instance],
    components: Sequence[ViewDef],
) -> dict[tuple, str]:
    """Environment keys a source's relation instances bind in Eq. 2."""
    keys = {}
    for (view, index), component in zip(instances, components):
        for base in component.bases:
            if base.source == source_name:
                keys[((view, base.relation), index)] = base.relation
    return keys


def _cheapest_first(query: Query, virtuals: Collection[str]) -> Query:
    """``query`` with each ∧/∨ node's children stably sorted by how many
    constraints on view-virtual attributes each contains.

    Tests of stored attributes then run before the virtuals (a ``kwd``
    tokenizes title and subject per row).  Returns ``query`` itself when
    no order changes.
    """
    if isinstance(query, Not):
        child = _cheapest_first(query.child, virtuals)
        return query if child is query.child else Not(child)
    if not isinstance(query, (And, Or)):
        return query
    children = [_cheapest_first(child, virtuals) for child in query.children]
    children.sort(
        key=lambda child: sum(c.lhs.attr in virtuals for c in child.iter_constraints())
    )
    if all(new is old for new, old in zip(children, query.children)):
        return query
    return type(query)(children)


def _merged(parts: Sequence[Mapping]) -> dict:
    merged: dict = {}
    for part in parts:
        merged.update(part)
    return merged


def _reassemble(bound: Mapping, layout: _Layout) -> list[Mapping] | None:
    """The view rows of one bound source combination, or ``None`` when a
    base is missing or the bases do not join."""
    view_rows = []
    for view_def, bindings in layout:
        by_alias = {}
        for key, alias in bindings:
            if key not in bound:
                return None
            by_alias[alias] = bound[key]
        view_row = view_def.combine(by_alias)
        if view_row is None:
            return None
        view_rows.append(view_row)
    return view_rows


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
