"""Simulated sources: relations + capability + a native query executor.

A :class:`Source` stands in for a remote system (a web bookstore, an IR
server, a legacy database).  Its executor

* **enforces its capability**: a query using unsupported vocabulary is
  rejected with :class:`~repro.core.errors.CapabilityError`, exactly the
  way a remote interface would refuse an unknown operator — this is what
  makes the expressibility requirement of Definition 1 testable;
* evaluates the query over the **cross product of the relation instances**
  the mediator names (the σ_{S_i(Q)}(R_i) factor of Eq. 2), honouring the
  source's virtual search attributes.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import product

from repro.core.ast import Query
from repro.core.errors import EvaluationError
from repro.engine.capabilities import Capability
from repro.engine.eval import Virtual, compile_predicate
from repro.engine.relation import Relation
from repro.obs import trace as obs

__all__ = ["Source"]


class Source:
    """One heterogeneous source: named relations behind a native interface."""

    def __init__(
        self,
        name: str,
        relations: Mapping[str, Relation],
        capability: Capability,
        virtuals: Mapping[str, Virtual] | None = None,
        grammar: "object | None" = None,
    ):
        self.name = name
        self.relations = dict(relations)
        self.capability = capability
        self.virtuals = dict(virtuals or {})
        #: Optional :class:`~repro.engine.grammar.QueryGrammar` restricting
        #: the *form* (not the vocabulary) of native calls.
        self.grammar = grammar

    def relation(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise EvaluationError(
                f"source {self.name!r} has no relation {name!r}"
            ) from None

    def select(
        self,
        instances: Mapping[tuple, str],
        query: Query,
    ) -> list[dict]:
        """Run a translated query over named relation instances.

        ``instances`` maps environment keys ``(qualifier, index)`` (see
        :class:`~repro.engine.eval.RowEnv`) to relation names of this
        source.  The result is one dict per surviving combination, keyed
        the same way — the source's contribution to Eq. 2's cross product.
        """
        with obs.span("source.select", source=self.name):
            self.capability.check(query, target=f"source {self.name!r}")
            if self.grammar is not None:
                self.grammar.check(query, target=f"source {self.name!r}")
            keys = list(instances)
            pools = [self.relation(instances[key]).rows() for key in keys]
            predicate = compile_predicate(query, keys, self.virtuals)
            out = [
                dict(zip(keys, combo)) for combo in product(*pools) if predicate(combo)
            ]
            if obs.enabled():
                scanned = 1
                for pool in pools:
                    scanned *= len(pool)
                obs.count("source.rows_scanned", scanned)
                obs.count("source.rows_emitted", len(out))
            return out

    def execute(
        self,
        instances: Mapping[tuple, str],
        query: Query,
    ) -> list[dict]:
        """Answer ``query`` regardless of grammar restrictions.

        For grammar-free sources this is :meth:`select`.  For restricted
        interfaces a :class:`~repro.engine.grammar.Wrapper` splits the
        query into conforming native calls and compensates locally — the
        mediation pipeline always goes through here.
        """
        if self.grammar is None:
            return self.select(instances, query)
        from repro.engine.grammar import Wrapper

        return Wrapper(self, self.grammar).select(instances, query)

    def select_rows(self, relation: str, query: Query) -> list[dict]:
        """Single-relation convenience: rows of ``relation`` matching query."""
        key = ((), None)
        return [
            bound[key] for bound in self.select({key: relation}, query)
        ]

    def execute_rows(self, relation: str, query: Query) -> list[dict]:
        """Single-relation convenience over :meth:`execute`."""
        key = ((), None)
        return [bound[key] for bound in self.execute({key: relation}, query)]

    def ping(self) -> dict:
        """Health probe: relation row counts, no query involved.

        Deliberately bypasses :meth:`select` — a grammar-restricted
        interface would reject an unconstrained probe query, but a health
        check only needs to prove the source answers at all.  The
        resilience layer (``repro sources``) runs this through a
        :class:`~repro.resilience.SourceAdapter` so probes get the same
        retry/breaker treatment as real calls.
        """
        counts = {name: len(rel.rows()) for name, rel in sorted(self.relations.items())}
        return {
            "source": self.name,
            "relations": counts,
            "rows": sum(counts.values()),
        }

    def __str__(self) -> str:
        rels = ", ".join(sorted(self.relations))
        return f"Source({self.name}: {rels})"
