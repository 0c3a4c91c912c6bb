"""Relational engine substrate: relations, evaluation, capabilities, sources."""

from repro.engine.capabilities import Capability
from repro.engine.eval import RowEnv, Virtual, compile_predicate, evaluate, evaluate_row
from repro.engine.grammar import QueryGrammar, Wrapper
from repro.engine.relation import Relation
from repro.engine.source import Source
from repro.engine.sources_builtin import (
    DEFAULT_AUBIB,
    DEFAULT_BOOKS,
    DEFAULT_PAPERS,
    DEFAULT_POINTS,
    DEFAULT_PROF,
    MAP_MEDIATOR_VIRTUALS,
    make_amazon,
    make_clbooks,
    make_map_source,
    make_t1,
    make_t2,
)
from repro.engine.views import BaseRef, ViewDef

__all__ = [
    "Relation", "Source", "Capability", "QueryGrammar", "Wrapper",
    "RowEnv", "Virtual",
    "evaluate", "evaluate_row", "compile_predicate", "BaseRef", "ViewDef",
    "make_amazon", "make_clbooks", "make_t1", "make_t2", "make_map_source",
    "DEFAULT_BOOKS", "DEFAULT_PAPERS", "DEFAULT_AUBIB", "DEFAULT_PROF",
    "DEFAULT_POINTS", "MAP_MEDIATOR_VIRTUALS",
]
