"""Hot-path performance layer: fingerprints, indexing, compilation, caching.

The paper proves SCM is linear-time per conjunction (Section 4.4), but a
mediator serving heavy traffic sees the *same* canonical queries and the
same (source, specification) pairs over and over.  This package turns
that repetition into an order-of-magnitude win:

* :func:`query_fingerprint` — a canonical fingerprint of a normalized
  query, invariant under ∧/∨ commutativity and join re-orientation; the
  cache key ingredient;
* :class:`CompiledRuleIndex` — a per-specification attribute→rule
  inverted index plus per-rule head signatures, so the matcher probes
  only rules whose heads can bind the constraint group instead of
  scanning the whole library (:meth:`MappingSpecification.matcher`
  attaches it automatically);
* :func:`compile_rule` / :class:`CompiledRule` — each rule's pattern,
  conditions, and emit template compiled into Python closures at
  spec-load time; every indexed matcher dispatches through them, and the
  linear ``Matcher(spec.rules)`` walk is the oracle tests compare them to;
* :class:`TranslationCache` — an LRU memo of whole translations keyed by
  (algorithm, specification name, content digest, fingerprint);
  specifications are immutable and a reloaded spec carries its own
  digest, so stale entries can never be served;
* :func:`translate_batch` — shared-everything batch translation behind
  ``Mediator.translate_many`` and the ``repro batch`` CLI subcommand.

Design, key semantics, and benchmark methodology: ``docs/performance.md``
and ``docs/internals.md``.
"""

from repro.perf.cache import CacheStats, TranslationCache, translate_batch
from repro.perf.compile import CompiledRule, compile_rule
from repro.perf.fingerprint import canonical_form, query_fingerprint
from repro.perf.index import CompiledRuleIndex

__all__ = [
    "CacheStats",
    "CompiledRule",
    "CompiledRuleIndex",
    "TranslationCache",
    "canonical_form",
    "compile_rule",
    "query_fingerprint",
    "translate_batch",
]
