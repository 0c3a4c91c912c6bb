"""Tests for the relational engine (relation, eval, capabilities, source)."""

import typing
from collections.abc import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ast import (
    FALSE,
    TRUE,
    And,
    AttrRef,
    C,
    Constraint,
    Not,
    Or,
    Query,
    attr,
    conj,
    disj,
)
from repro.core.errors import CapabilityError, EvaluationError, SchemaError
from repro.core.matching import Matcher, Rule
from repro.core.parser import parse_query
from repro.core.subsume import empirical_equivalent, empirical_subsumes
from repro.engine.capabilities import Capability
from repro.engine.eval import RowEnv, compile_predicate, evaluate, evaluate_row
from repro.engine.relation import Relation
from repro.engine.source import Source
from repro.rules.dsl import attr_in, rule
from repro.text import TextCapability


class TestRelation:
    def test_insert_and_scan(self):
        rel = Relation("r", ("a", "b"))
        rel.insert({"a": 1, "b": 2})
        assert rel.rows() == [{"a": 1, "b": 2}]
        assert len(rel) == 1

    def test_schema_enforced(self):
        rel = Relation("r", ("a", "b"))
        with pytest.raises(SchemaError):
            rel.insert({"a": 1})
        with pytest.raises(SchemaError):
            rel.insert({"a": 1, "b": 2, "c": 3})

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Relation("r", ("a", "a"))

    def test_rows_is_a_copy(self):
        rel = Relation("r", ("a",), [{"a": 1}])
        rel.rows().append({"a": 2})
        assert len(rel) == 1

    def test_type_hints_resolve(self):
        hints = typing.get_type_hints(Relation.__iter__)
        assert hints["return"] == Iterator[dict]


@pytest.mark.parametrize(
    "target",
    [
        Matcher.potential,
        Matcher.matchings,
        Rule,
        empirical_subsumes,
        empirical_equivalent,
        rule,
        attr_in,
    ],
    ids=lambda target: target.__qualname__,
)
def test_annotation_names_resolve(target):
    # Every name an annotation uses is imported by its module.
    assert typing.get_type_hints(target)


class TestRowEnv:
    def test_qualified_resolution(self):
        env = RowEnv({(("fac", "prof"), None): {"ln": "Ullman"}})
        row, attr_name = env.resolve(attr("fac.prof.ln"))
        assert row["ln"] == "Ullman" and attr_name == "ln"

    def test_indexed_resolution(self):
        env = RowEnv(
            {
                (("fac",), 1): {"ln": "A"},
                (("fac",), 2): {"ln": "B"},
            }
        )
        assert env.lookup(attr("fac[2].ln")) == "B"

    def test_unindexed_abbreviation_unique(self):
        env = RowEnv({(("fac",), 1): {"ln": "A"}})
        assert env.lookup(attr("fac.ln")) == "A"

    def test_unindexed_abbreviation_ambiguous(self):
        env = RowEnv({(("fac",), 1): {"ln": "A"}, (("fac",), 2): {"ln": "B"}})
        with pytest.raises(EvaluationError):
            env.lookup(attr("fac.ln"))

    def test_bare_attr_single_instance(self):
        env = RowEnv({((), None): {"author": "Clancy"}})
        assert env.lookup(attr("author")) == "Clancy"

    def test_unresolvable(self):
        env = RowEnv({(("fac",), None): {"ln": "A"}})
        with pytest.raises(EvaluationError):
            env.lookup(attr("pub.ln"))

    def test_missing_attribute(self):
        env = RowEnv({((), None): {"a": 1}})
        with pytest.raises(EvaluationError):
            env.lookup(attr("b"))


class TestEvaluate:
    def test_selection(self):
        assert evaluate_row(parse_query("[a = 1]"), {"a": 1})
        assert not evaluate_row(parse_query("[a = 1]"), {"a": 2})

    def test_boolean_structure(self):
        q = parse_query("([a = 1] or [b = 2]) and [c = 3]")
        assert evaluate_row(q, {"a": 0, "b": 2, "c": 3})
        assert not evaluate_row(q, {"a": 0, "b": 0, "c": 3})

    def test_join_across_instances(self):
        q = Constraint(attr("fac[1].ln"), "=", attr("fac[2].ln"))
        env_eq = RowEnv({(("fac",), 1): {"ln": "X"}, (("fac",), 2): {"ln": "X"}})
        env_ne = RowEnv({(("fac",), 1): {"ln": "X"}, (("fac",), 2): {"ln": "Y"}})
        assert evaluate(q, env_eq)
        assert not evaluate(q, env_ne)

    def test_virtual_attribute_dispatch(self):
        virtuals = {"double": lambda row, op, v: row["a"] * 2 == v}
        assert evaluate_row(parse_query("[double = 4]"), {"a": 2}, virtuals)
        assert not evaluate_row(parse_query("[double = 5]"), {"a": 2}, virtuals)


class TestCapability:
    CAP = Capability.of(
        selections=[("author", "="), ("ti", "contains")],
        joins=[("name", "au", "=")],
        text=TextCapability(supports_near=False),
    )

    def test_selection_support(self):
        assert self.CAP.supports(C("author", "=", "x"))
        assert not self.CAP.supports(C("author", "contains", "x"))
        assert not self.CAP.supports(C("subject", "=", "x"))

    def test_join_support_order_insensitive(self):
        j1 = Constraint(attr("a.name"), "=", attr("b.au"))
        j2 = Constraint(attr("b.au"), "=", attr("a.name"))
        assert self.CAP.supports(j1) and self.CAP.supports(j2)
        assert not self.CAP.supports(Constraint(attr("a.x"), "=", attr("b.y")))

    def test_text_connectives_checked(self):
        ok = parse_query("[ti contains a (and) b]")
        bad = parse_query("[ti contains a (near) b]")
        assert self.CAP.supports(next(iter(ok.constraints())))
        assert not self.CAP.supports(next(iter(bad.constraints())))

    def test_violations_and_check(self):
        q = parse_query('[author = "x"] and [subject = "y"]')
        bad = self.CAP.violations(q)
        assert [c.lhs.attr for c in bad] == ["subject"]
        with pytest.raises(CapabilityError):
            self.CAP.check(q)
        self.CAP.check(parse_query('[author = "x"]'))


class TestSource:
    def _source(self):
        rel = Relation("r", ("a", "b"), [{"a": 1, "b": 10}, {"a": 2, "b": 20}])
        cap = Capability.of(selections=[("a", "="), ("b", ">")])
        return Source("S", {"r": rel}, cap)

    def test_select_rows(self):
        src = self._source()
        assert src.select_rows("r", parse_query("[a = 2]")) == [{"a": 2, "b": 20}]

    def test_capability_enforced(self):
        src = self._source()
        with pytest.raises(CapabilityError):
            src.select_rows("r", parse_query("[a < 2]"))

    def test_unknown_relation(self):
        with pytest.raises(EvaluationError):
            self._source().relation("nope")

    def test_cross_product_select(self):
        rel1 = Relation("r1", ("x",), [{"x": 1}, {"x": 2}])
        rel2 = Relation("r2", ("y",), [{"y": 1}, {"y": 2}])
        cap = Capability.of(selections=[], joins=[("x", "y", "=")])
        src = Source("S", {"r1": rel1, "r2": rel2}, cap)
        q = Constraint(attr("v.r1.x"), "=", attr("v.r2.y"))
        out = src.select(
            {(("v", "r1"), None): "r1", (("v", "r2"), None): "r2"}, q
        )
        assert len(out) == 2  # (1,1) and (2,2)


# -- compiled predicates vs the interpreter -----------------------------------


def _v(row, op, value):
    """A virtual answering from row contents and the operator it is given."""
    if op == "boom":
        raise EvaluationError(f"virtual v rejects {value!r}")
    matched = row.get("a") == value
    return matched if op in ("=", "in", "contains") else not matched


def _w(row, op, value):
    """A virtual whose answer is not a bool (compiled must pass it through)."""
    return row.get("b")


VIRTUALS = {"v": _v, "w": _w}

#: Environment keys: bare, indexed and unindexed view instances, a
#: relation instance, and a ``doc`` instance holding nested sub-documents.
ENV_KEYS = (
    ((), None),
    (("fac",), 1),
    (("fac",), 2),
    (("fac",), None),
    (("fac", "aubib"), None),
    (("doc",), None),
)

#: Reference paths beyond those naming a layout key: ambiguous
#: (``fac.ln`` over two ``fac`` instances), unresolvable (``pub``),
#: hierarchical (``doc.author.ln``), and virtual (``v``/``w``).
REF_PATHS = (
    ("a",), ("ln",), ("v",), ("w",), ("fac", "ln"), ("fac", "v"),
    ("fac", "aubib", "ln"), ("doc", "author", "ln"), ("doc", "author", "v"),
    ("pub", "ln"),
)
ATTRS = ("a", "b", "ln", "v", "w", "author")

OPS = (
    "=", "!=", "<", ">=", "contains", "starts", "in",
    "not-in", "not-contains", "boom", "bogus", "not-bogus",
)

SCALARS = st.sampled_from((None, 0, 1, 2, "x", "X ", "y z", (1, "x")))

#: Rows always carry ``a``/``b``; ``ln`` and the nested ``author``
#: sub-document may be missing.
rows = st.fixed_dictionaries(
    {"a": SCALARS, "b": SCALARS},
    optional={
        "ln": SCALARS,
        "author": st.fixed_dictionaries({}, optional={"ln": SCALARS, "a": SCALARS}),
    },
)

key_layouts = st.one_of(
    st.lists(st.sampled_from(ENV_KEYS), min_size=1, max_size=4, unique=True),
    # Two indexed instances of one view, so unindexed ``fac.*`` is ambiguous.
    st.lists(st.sampled_from(ENV_KEYS[3:]), max_size=2, unique=True).map(
        lambda extra: [ENV_KEYS[1], ENV_KEYS[2], *extra]
    ),
)


class _Mystery(Query):
    """A node type neither evaluator knows."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "_Mystery()"


def _junction(kind, children):
    """``kind`` over ``children`` without conj/disj's constant folding."""
    flat = []
    for child in children:
        flat.extend(child.children if type(child) is kind else [child])
    return kind(flat)


@st.composite
def cases(draw):
    """A key layout with its rows, and a query over references into it."""
    keys = draw(key_layouts)
    # A layout key's own path and index, or its path unindexed (the
    # ``fac.bib`` abbreviation, ambiguous over two indexed instances).
    named = st.builds(
        lambda key, name, indexed: AttrRef((*key[0], name), key[1] if indexed else None),
        st.sampled_from(keys),
        st.sampled_from(ATTRS),
        st.booleans(),
    )
    other = st.builds(
        AttrRef, st.sampled_from(REF_PATHS), st.sampled_from((None, 1, 2))
    )
    refs = st.one_of(named, named, other)
    constraints = st.builds(
        Constraint, refs, st.sampled_from(OPS), st.one_of(SCALARS, SCALARS, refs)
    )
    leaves = st.one_of(
        constraints, st.sampled_from((TRUE, FALSE, TRUE, FALSE, _Mystery()))
    )
    query = draw(
        st.recursive(
            leaves,
            lambda inner: st.one_of(
                st.builds(_junction, st.just(And), st.lists(inner, min_size=2, max_size=3)),
                st.builds(_junction, st.just(Or), st.lists(inner, min_size=2, max_size=3)),
                st.builds(Not, inner),
            ),
            max_leaves=6,
        )
    )
    return query, keys, draw(st.tuples(*(rows for _ in keys)))


def _outcome(thunk):
    try:
        value = thunk()
    except Exception as exc:  # noqa: BLE001 - the outcome is the comparison
        return ("raise", type(exc), str(exc))
    return ("ok", type(value), value)


class TestCompilePredicate:
    @settings(max_examples=600, deadline=None)
    @given(case=cases())
    def test_matches_interpreter(self, case):
        query, keys, bound = case
        predicate = compile_predicate(query, keys, VIRTUALS)  # never raises
        env = RowEnv(dict(zip(keys, bound)), VIRTUALS)
        assert _outcome(lambda: predicate(bound)) == _outcome(
            lambda: evaluate(query, env)
        )

    def test_junctions_answer_bools(self):
        raw = Constraint(attr("w"), "=", 1)  # the virtual answers 7
        keys, row = [((), None)], ({"b": 7},)
        env = RowEnv(dict(zip(keys, row)), VIRTUALS)
        for query in (raw, And([raw, raw]), Or([raw, raw]), Not(raw)):
            compiled = compile_predicate(query, keys, VIRTUALS)(row)
            assert compiled == evaluate(query, env)
            assert type(compiled) is type(evaluate(query, env))

    def test_negated_virtual_answers_base_operator(self):
        keys, row = [((), None)], ({"a": 1, "b": 0},)
        env = RowEnv(dict(zip(keys, row)), VIRTUALS)
        for op in ("not-in", "not-contains", "!="):
            query = Constraint(attr("v"), op, 1)
            assert compile_predicate(query, keys, VIRTUALS)(row) is evaluate(query, env)

    def test_short_circuits_left_to_right(self):
        raises = Constraint(attr("missing"), "=", 1)
        keys = [((), None)]
        row = ({"a": 1},)
        assert not compile_predicate(conj([C("a", "=", 2), raises]), keys)(row)
        assert compile_predicate(disj([C("a", "=", 1), raises]), keys)(row)
        with pytest.raises(EvaluationError, match="'missing' not in tuple"):
            compile_predicate(conj([C("a", "=", 1), raises]), keys)(row)

    def test_row_dependent_references_fall_back(self):
        keys = [(("fac",), 1), (("fac",), 2)]
        ambiguous = compile_predicate(C("fac.ln", "=", "A"), keys)
        with pytest.raises(EvaluationError, match="ambiguous reference fac.ln"):
            ambiguous(({"ln": "A"}, {"ln": "B"}))
        nested = compile_predicate(
            C("doc.author.ln", "=", "Codd"), [(("doc",), None)]
        )
        assert nested(({"author": {"ln": "Codd"}},))
        assert not nested(({"author": {"ln": "Gray"}},))

    def test_zero_row_scan_raises_nothing(self):
        rel = Relation("r", ("a",))
        src = Source("S", {"r": rel}, Capability.of(selections=[("b", "bogus")]))
        assert src.select_rows("r", C("b", "bogus", 1)) == []
