"""Declarative (data-driven) mapping specifications.

The DSL of :mod:`repro.rules.dsl` builds rules out of Python callables —
maximal power, but the specification lives in code.  Real integration
teams maintain mapping specs as *data* (reviewable, diffable, loadable at
runtime), so this module defines a JSON-compatible rule description and a
loader::

    SPEC = {
        "name": "K_dates", "target": "Amazon",
        "rules": [
            {
                "name": "R6",
                "match": [
                    {"attr": "pyear", "op": "=", "bind": "Y"},
                    {"attr": "pmonth", "op": "=", "bind": "M"},
                ],
                "where": [{"cond": "value_is", "vars": ["Y", "M"]}],
                "let": [{"var": "D", "fn": "month_period", "args": ["$Y", "$M"]}],
                "emit": {"attr": "pdate", "op": "during", "value": "$D"},
                "exact": True,
            },
            ...
        ],
    }
    spec = spec_from_dict(SPEC)

Conventions:

* ``$NAME`` in any value position substitutes the bound variable ``NAME``
  (write a literal leading dollar as ``$$``);
* pattern fields — ``attr`` is a literal name, ``view.attr``, or ``?A``
  (a variable over the attribute name; bare ``?A`` with no ``view`` binds
  the whole reference); optional ``view`` (literal or ``?V``) and
  ``index`` (``?i``); ``op`` is a literal or ``?OP``; the right-hand side
  is ``{"bind": "X"}``, ``{"value": <literal>}``, or a nested attribute
  pattern ``{"attr": ...}`` for joins;
* ``where`` conditions: ``value_is``, ``attr_is``, ``distinct``,
  ``same_view`` (each with ``"vars"``), and ``attr_in`` (``"var"`` +
  ``"allowed"``);
* ``let`` steps: ``{"fn": name, "args": [...]}`` calling a registered
  function, or ``{"table": {...}, "key": ...}`` for a lookup that vetoes
  the match on a missing key, or ``{"rewrite": pattern-ref,
  "capability": {...}}`` running ``RewriteTextPat``;
* ``emit``: one constraint object, ``{"all": [...]}`` / ``{"any": [...]}``
  / ``{"not": ...}`` compounds, or the string ``"true"``;
* ``exact``: a boolean, or ``{"from": "RW"}`` to take the exactness of a
  rewrite result bound by a ``let`` step.

The default function registry exposes :mod:`repro.conversions`; pass
``functions=`` to extend it.

A loaded specification's
:attr:`~repro.rules.MappingSpecification.content_digest` is the sha256
of the payload's canonical JSON (``json.dumps(data, sort_keys=True)``),
so an edit to any field of the payload gives the specification a new
identity.  Values JSON lacks digest as their JSON image (a tuple as a
list, a set as a sorted list, anything else as its ``repr``), so two
payloads from Python callers that differ only there share a digest;
payloads that arrive as JSON cannot differ that way.  The keys of a
``let`` table are the exception, because a table looks its key up by
type: a payload with a table key that is not a string (``{1: "hit"}``,
which JSON would write as ``{"1": "hit"}``) digests each key of its
dicts together with the key's type, under a prefix no JSON text starts
with, so it never shares a digest with a JSON payload or with one whose
table keys differ only in type.  (The loader reads no other dict key
by value.)  A custom ``functions=`` registry is not part of the digest;
the serving stack always loads with the default registry.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterable, Mapping

from repro.conversions import (
    category_to_subject,
    cm_to_inches,
    dept_code,
    inches_to_cm,
    ln_fn_to_name,
    month_period,
    name_last,
    year_period,
)
from repro.core.ast import AttrRef, Constraint, Query, TRUE, attr, conj, disj, neg
from repro.core.errors import SpecificationError
from repro.core.matching import AttrPattern, ConstraintPattern, RejectMatch, Var
from repro.rules.dsl import (
    attr_in,
    attr_is,
    distinct,
    rule,
    same_view,
    value_is,
)
from repro.rules.spec import MappingSpecification
from repro.text import TextCapability, rewrite_text_pattern
from repro.text.patterns import TextPattern, Word

__all__ = ["spec_from_dict", "rule_from_dict", "DEFAULT_FUNCTIONS"]

#: Conversion functions referable by name from ``let`` steps.
DEFAULT_FUNCTIONS: dict[str, Callable] = {
    "month_period": month_period,
    "year_period": year_period,
    "ln_fn_to_name": ln_fn_to_name,
    "name_last": name_last,
    "dept_code": dept_code,
    "category_to_subject": category_to_subject,
    "inches_to_cm": inches_to_cm,
    "cm_to_inches": cm_to_inches,
    "str": str,
    "int": int,
    "lower": lambda s: str(s).lower(),
    "upper": lambda s: str(s).upper(),
}

_CONDITIONS = {
    "value_is": value_is,
    "attr_is": attr_is,
    "distinct": distinct,
    "same_view": same_view,
}


def _is_var(token: object) -> bool:
    return isinstance(token, str) and token.startswith("?") and len(token) > 1


def _var(token: str) -> Var:
    return Var(token[1:])


def _parse_component(token: object, what: str):
    """A pattern component: literal, ``?VAR``, or None."""
    if token is None:
        return None
    if _is_var(token):
        return _var(token)
    if isinstance(token, (str, int)):
        return token
    raise SpecificationError(f"bad {what} component: {token!r}")


def _parse_attr_pattern(data: Mapping) -> AttrPattern | Var:
    spec = data.get("attr")
    if spec is None:
        raise SpecificationError(f"pattern needs an 'attr' field: {data!r}")
    if _is_var(spec) and "view" not in data and "index" not in data:
        return _var(spec)  # whole-reference variable
    view = _parse_component(data.get("view"), "view")
    index = _parse_component(data.get("index"), "index")
    if isinstance(spec, str) and not _is_var(spec) and "." in spec:
        if view is not None:
            raise SpecificationError(
                f"attr {spec!r} is qualified AND a 'view' field is present"
            )
        view, spec = spec.split(".", 1)
    attr_component = _parse_component(spec, "attr")
    return AttrPattern(attr=attr_component, view=view, index=index)


def _parse_rhs(data: Mapping) -> object:
    keys = {"bind", "value", "attr"} & set(data)
    if len(keys) != 1:
        raise SpecificationError(
            f"pattern rhs needs exactly one of bind/value/attr: {data!r}"
        )
    if "bind" in data:
        return _var("?" + data["bind"])
    if "value" in data:
        return data["value"]
    return _parse_attr_pattern({k: v for k, v in data.items() if k != "op"})


def _parse_pattern(data: Mapping) -> ConstraintPattern:
    lhs = _parse_attr_pattern(data)
    op = data.get("op", "=")
    op = _var(op) if _is_var(op) else op
    rhs_fields = {k: data[k] for k in ("bind", "value") if k in data}
    if "rhs" in data:
        rhs = _parse_rhs(data["rhs"])
    elif rhs_fields:
        rhs = _parse_rhs(rhs_fields)
    else:
        raise SpecificationError(f"pattern needs a right-hand side: {data!r}")
    return ConstraintPattern(lhs=lhs, op=op, rhs=rhs)


def _parse_condition(data: Mapping) -> Callable:
    kind = data.get("cond")
    if kind == "attr_in":
        return attr_in(data["var"], data["allowed"])
    if kind in _CONDITIONS:
        return _CONDITIONS[kind](*data.get("vars", []))
    raise SpecificationError(f"unknown condition: {data!r}")


def _substitute(template: object, bindings: Mapping) -> object:
    """Resolve ``$NAME`` references inside a value template."""
    if isinstance(template, str):
        if template.startswith("$$"):
            return template[1:]
        if template.startswith("$"):
            name = template[1:]
            if name not in bindings:
                raise KeyError(name)
            return bindings[name]
        return template
    if isinstance(template, list):
        return [_substitute(item, bindings) for item in template]
    return template


def _parse_let(data: Mapping, functions: Mapping[str, Callable]):
    name = data.get("var")
    if not name:
        raise SpecificationError(f"let step needs a 'var': {data!r}")

    if "fn" in data:
        fn_name = data["fn"]
        if fn_name not in functions:
            raise SpecificationError(f"unknown function {fn_name!r} in let step")
        fn = functions[fn_name]
        args = data.get("args", [])

        def run(bindings, _fn=fn, _args=args):
            return _fn(*[_substitute(arg, bindings) for arg in _args])

        return name, run

    if "table" in data:
        table = dict(data["table"])
        key_template = data.get("key")

        def lookup(bindings, _table=table, _key=key_template):
            key = _substitute(_key, bindings)
            try:
                return _table[key]
            except (KeyError, TypeError):
                raise RejectMatch(f"no table entry for {key!r}") from None

        lookup.vocablint_hint = {  # type: ignore[attr-defined]
            "kind": "table",
            "keys": tuple(sorted(table, key=str)[:16]),
        }
        return name, lookup

    if "rewrite" in data:
        capability = TextCapability(**data.get("capability", {}))

        def run_rewrite(bindings, _cap=capability, _ref=data["rewrite"]):
            pattern = _substitute(_ref, bindings)
            if isinstance(pattern, str):
                pattern = Word(pattern)
            if not isinstance(pattern, TextPattern):
                raise RejectMatch(f"not a text pattern: {pattern!r}")
            return rewrite_text_pattern(pattern, _cap)

        return name, run_rewrite

    raise SpecificationError(f"let step needs fn/table/rewrite: {data!r}")


def _build_emit_ref(data: Mapping, bindings: Mapping) -> AttrRef:
    spec = _substitute(data["attr"], bindings)
    if isinstance(spec, AttrRef):
        ref = spec
    elif isinstance(spec, str):
        parts = [
            str(_substitute(part, bindings)) if part.startswith("$") else part
            for part in spec.split(".")
        ]
        ref = AttrRef(tuple(parts))
    else:
        raise SpecificationError(f"bad emit attr: {data['attr']!r}")
    if "index" in data:
        index = _substitute(data["index"], bindings)
        ref = ref.with_index(index if isinstance(index, int) or index is None else int(index))
    return ref


def _build_emit(data: object, bindings: Mapping) -> Query:
    if data == "true":
        return TRUE
    if not isinstance(data, Mapping):
        raise SpecificationError(f"bad emit clause: {data!r}")
    if "all" in data:
        return conj(_build_emit(item, bindings) for item in data["all"])
    if "any" in data:
        return disj(_build_emit(item, bindings) for item in data["any"])
    if "not" in data:
        return neg(_build_emit(data["not"], bindings))
    ref = _build_emit_ref(data, bindings)
    op = str(_substitute(data.get("op", "="), bindings))
    if "value" in data:
        rhs = _substitute(data["value"], bindings)
        # A rewrite result used as a value means its pattern.
        if hasattr(rhs, "pattern") and hasattr(rhs, "exact"):
            rhs = rhs.pattern
    elif "attr_rhs" in data:
        rhs = _build_emit_ref(data["attr_rhs"], bindings)
    else:
        raise SpecificationError(f"emit needs a value or attr_rhs: {data!r}")
    return Constraint(ref, op, rhs)


def rule_from_dict(
    data: Mapping, functions: Mapping[str, Callable] | None = None
):
    """Build one rule from its declarative description."""
    registry = dict(DEFAULT_FUNCTIONS)
    registry.update(functions or {})

    name = data.get("name")
    if not name:
        raise SpecificationError(f"rule needs a name: {data!r}")
    match = data.get("match")
    if not match:
        raise SpecificationError(f"rule {name!r} needs a 'match' list")
    patterns = [_parse_pattern(p) for p in match]
    conditions = [_parse_condition(c) for c in data.get("where", [])]
    let_steps = dict(
        _parse_let(step, registry) for step in data.get("let", [])
    )
    emit_template = data.get("emit")
    if emit_template is None:
        raise SpecificationError(f"rule {name!r} needs an 'emit' clause")

    def emit(bindings, _template=emit_template):
        return _build_emit(_template, bindings)

    exact_spec = data.get("exact", False)
    exact: bool | Callable
    if isinstance(exact_spec, Mapping) and "from" in exact_spec:
        source_var = exact_spec["from"]

        def _exact_from(bindings, _v=source_var):
            return bool(getattr(bindings[_v], "exact", False))

        exact = _exact_from
    else:
        exact = bool(exact_spec)

    return rule(
        name,
        patterns=patterns,
        emit=emit,
        where=conditions,
        let=let_steps,
        exact=exact,
        doc=data.get("doc", ""),
    )


def _json_image(value: object) -> object:
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    return repr(value)


def _has_typed_table(rules: Iterable[Mapping]) -> bool:
    """Does a ``let`` table of these (loaded) rules have a key that is
    not a string?"""
    return any(
        isinstance(step.get("table"), dict)
        and not all(isinstance(key, str) for key in step["table"])
        for rule in rules
        for step in rule.get("let", ())
    )


def _typed_keys(value: object) -> object:
    """``value`` with every dict key written as its type name and repr."""
    if isinstance(value, dict):
        return {
            f"{type(key).__name__}:{key!r}": _typed_keys(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_typed_keys(item) for item in value]
    return value


def _payload_digest(data: Mapping) -> str:
    """sha256 of the payload's canonical JSON (see the module docstring)."""
    if _has_typed_table(data["rules"]):
        # Only a Python caller can send these keys.  JSON text starts
        # with "{", never with this prefix.
        canonical = "typed-keys:" + json.dumps(
            _typed_keys(data), sort_keys=True, default=_json_image
        )
    else:
        try:
            canonical = json.dumps(data, sort_keys=True, default=_json_image)
        except TypeError:
            # Keys json cannot sort (mixed types) outside any table, where
            # the loader reads no key by value.  The repr still tells
            # payloads apart; it may tell equal ones apart too, which
            # costs a miss, not an answer.
            canonical = repr(data)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def spec_from_dict(
    data: Mapping, functions: Mapping[str, Callable] | None = None
) -> MappingSpecification:
    """Build a :class:`MappingSpecification` from its declarative form.

    The specification's content digest covers the whole payload (see the
    module docstring).
    """
    for field_name in ("name", "target", "rules"):
        if field_name not in data:
            raise SpecificationError(f"specification needs {field_name!r}")
    rules = tuple(rule_from_dict(r, functions) for r in data["rules"])
    spec = MappingSpecification(
        name=data["name"],
        target=data["target"],
        rules=rules,
        description=data.get("description", ""),
    )
    # The frozen dataclass's back door, as in its own __post_init__: the
    # loader records the digest, no caller chooses it.
    object.__setattr__(spec, "_digest", _payload_digest(data))
    return spec
