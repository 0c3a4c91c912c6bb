"""Human-readable translation explanations.

``explain_translation`` narrates a full Algorithm TDQM run — the query
tree, the potential matchings M_p, every case taken during the traversal
(with PSafe partitions, Disjunctivize rewrites, and per-SCM matching
decisions), and the final mapping with its exactness verdict and size.
This is what the ``repro explain`` CLI command prints, and what an
integrator reads when a rule doesn't fire the way they expected.
"""

from __future__ import annotations

from repro.core.matching import Matcher
from repro.core.normalize import normalize
from repro.core.printer import render_tree, to_text
from repro.core.tdqm import tdqm_translate
from repro.obs.export import counters_table
from repro.obs.trace import tracing
from repro.rules.spec import MappingSpecification

__all__ = ["explain_translation"]


def explain_translation(query, spec: MappingSpecification) -> str:
    """A step-by-step account of translating ``query`` under ``spec``."""
    normalized = normalize(query)
    matcher: Matcher = spec.matcher()
    potential = matcher.potential(normalized.constraints())

    lines: list[str] = []
    lines.append(f"specification: {spec}")
    lines.append("")
    lines.append("query:")
    lines.extend("  " + line for line in render_tree(normalized).splitlines())
    lines.append("")
    lines.append(f"potential matchings M_p ({len(potential)}):")
    if potential:
        for matching in potential:
            group = " ∧ ".join(sorted(str(c) for c in matching.constraints))
            lines.append(
                f"  {matching.rule_name}: {group} -> {to_text(matching.emission)}"
            )
    else:
        lines.append("  (none — every constraint maps to True)")
    lines.append("")
    lines.append("traversal:")
    trace: list[str] = []
    with tracing("explain") as tracer:
        result = tdqm_translate(normalized, matcher, trace=trace)
    lines.extend("  " + line for line in trace)
    lines.append("")
    lines.append(f"mapping   : {to_text(result.mapping)}")
    lines.append(
        f"exact     : {result.exact}"
        + ("" if result.exact else "  (keep the original query in the filter F)")
    )
    lines.append(
        f"work      : scm_calls={result.stats.scm_calls} "
        f"psafe_calls={result.stats.psafe_calls} "
        f"blocks_rewritten={result.stats.blocks_rewritten}"
    )
    lines.append(
        f"size      : {result.mapping.node_count()} nodes "
        f"(input {normalized.node_count()})"
    )
    lines.append("")
    lines.append(f"counters  : ({tracer.root.elapsed_ms:.3f} ms traced)")
    lines.extend("  " + line for line in counters_table(tracer))
    return "\n".join(lines)
