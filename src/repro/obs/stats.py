"""The ``repro stats`` pipeline: one fully-traced translation run.

Parses the query, translates it for every requested specification with
Algorithm TDQM, derives the residue filter, and — when the specifications
correspond to one of the built-in simulated scenarios — executes the
mediated pipeline end-to-end, all under a single :class:`~repro.obs.Tracer`.
The result bundles the mappings with the span tree and the counter set
(rules tried, prematch hits, matchings, suppressed submatchings,
Disjunctivize count, DNF terms, residue conjuncts, per-source rows), in
both human-readable and JSON form.

This module depends on :mod:`repro.core` and is therefore imported lazily
by the CLI, never from :mod:`repro.obs` itself.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.core.filters import FilterPlan, build_filter
from repro.core.json_io import query_to_json
from repro.core.metrics import query_stats
from repro.core.normalize import normalize
from repro.core.parser import parse_query
from repro.core.printer import to_text
from repro.core.tdqm import TranslationResult, tdqm_translate
from repro.obs.export import counters_table, render_span, report_to_dict
from repro.obs.trace import Tracer, gauge, span, tracing
from repro.rules.spec import MappingSpecification

if TYPE_CHECKING:
    from repro.mediator import Mediator

__all__ = [
    "StatsReport",
    "collect_stats",
    "builtin_mediator",
    "builtin_scenario",
    "render_stats",
    "stats_to_dict",
]


@dataclass
class StatsReport:
    """Everything one traced ``repro stats`` run produced."""

    query: object
    normalized: object
    results: dict[str, TranslationResult]
    plan: FilterPlan
    rows: int | None  # mediated row count; None when nothing was executed
    tracer: Tracer
    #: Per-source outcome records; ``None`` unless the run was resilient.
    outcomes: list | None = None
    #: ``False`` when a resilient run lost at least one source.
    complete: bool = True


def builtin_scenario(spec_names: set[str]) -> Callable[[], Mediator] | None:
    """The factory of the built-in mediator the named specs describe.

    Returns ``None`` when the specs do not correspond to a simulated
    scenario (e.g. a declarative spec file).  Builds nothing, so a caller
    can check a name set before it starts any work.
    """
    from repro.mediator import (
        bookstore_mediator,
        faculty_mediator,
        map_mediator,
    )

    if spec_names == {"K_Amazon"}:
        return partial(bookstore_mediator, "amazon")
    if spec_names == {"K_Clbooks"}:
        return partial(bookstore_mediator, "clbooks")
    if spec_names and spec_names <= {"K1", "K2"}:
        return faculty_mediator
    if spec_names == {"K_map"}:
        return map_mediator
    return None


def builtin_mediator(spec_names: set[str]):
    """The built-in mediator whose sources the named specs describe.

    Returns ``None`` when the specs do not correspond to a simulated
    scenario (e.g. a declarative spec file) — stats then covers
    translation and filtering only.
    """
    factory = builtin_scenario(spec_names)
    return None if factory is None else factory()


def collect_stats(
    query,
    specs: dict[str, MappingSpecification],
    mediator=None,
    *,
    resilience=None,
    strict: bool | None = None,
) -> StatsReport:
    """Run the traced pipeline: parse → translate per spec → filter → execute.

    With ``resilience`` (a :class:`~repro.resilience.ResilienceConfig`)
    the mediated execution goes through fault-tolerant source adapters
    and the report carries per-source outcomes plus the ``complete``
    flag; ``strict=True`` turns partial answers into
    :class:`~repro.core.errors.SourceUnavailableError`.
    """
    with tracing("repro.stats") as tracer:
        if isinstance(query, str):
            query = parse_query(query)
        normalized = normalize(query)
        shape = query_stats(normalized)
        gauge("query.nodes", shape.node_count)
        gauge("query.constraints", shape.distinct_constraints)
        gauge("query.dnf_terms", shape.dnf_terms)

        results: dict[str, TranslationResult] = {}
        for name, spec in specs.items():
            with span("translate", spec=name):
                result = tdqm_translate(query, spec)
                gauge("mapping.nodes", result.mapping.node_count())
            results[name] = result

        plan = build_filter(query, specs)

        rows: int | None = None
        outcomes: list | None = None
        complete = True
        if mediator is not None:
            if resilience is not None:
                mediator = mediator.with_resilience(resilience)
            answer = mediator.answer_mediated(query, strict=strict)
            rows = len(answer.rows)
            if resilience is not None:
                outcomes = list(answer.outcomes)
                complete = answer.complete

    return StatsReport(
        query=query,
        normalized=normalized,
        results=results,
        plan=plan,
        rows=rows,
        tracer=tracer,
        outcomes=outcomes,
        complete=complete,
    )


def stats_to_dict(report: StatsReport) -> dict:
    """JSON-compatible encoding of a :class:`StatsReport`."""
    out = {
        "query": to_text(report.query),
        "normalized": to_text(report.normalized),
        "mappings": {
            name: {
                "text": to_text(result.mapping),
                "exact": result.exact,
                "json": query_to_json(result.mapping),
            }
            for name, result in report.results.items()
        },
        "filter": {
            "text": to_text(report.plan.filter),
            "json": query_to_json(report.plan.filter),
        },
        "rows": report.rows,
    }
    if report.outcomes is not None:
        out["complete"] = report.complete
        out["sources"] = [outcome.to_dict() for outcome in report.outcomes]
    out.update(report_to_dict(report.tracer))
    return out


def render_stats(report: StatsReport) -> str:
    """Human-readable stats report: mappings, span tree, counter table."""
    lines: list[str] = []
    lines.append(f"query     : {to_text(report.query)}")
    if to_text(report.normalized) != to_text(report.query):
        lines.append(f"normalized: {to_text(report.normalized)}")
    for name, result in sorted(report.results.items()):
        exactness = "exact" if result.exact else "subsuming"
        lines.append(f"S({name}) = {to_text(result.mapping)}  [{exactness}]")
    lines.append(f"F = {to_text(report.plan.filter)}")
    if report.rows is not None:
        lines.append(f"rows = {report.rows}")
    if report.outcomes is not None:
        lines.append(f"complete = {report.complete}")
        lines.append("sources:")
        for outcome in report.outcomes:
            lines.append(
                f"  {outcome.source:<10} {outcome.status:<20} "
                f"attempts={outcome.attempts} rows={outcome.rows} "
                f"breaker={outcome.breaker_state}"
            )
    lines.append("")
    lines.append("spans:")
    lines.extend("  " + line for line in render_span(report.tracer.root))
    lines.append("")
    lines.append("counters:")
    lines.extend("  " + line for line in counters_table(report.tracer))
    return "\n".join(lines)
