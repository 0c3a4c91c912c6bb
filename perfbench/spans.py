"""Span recording (inside the traced server) and span arithmetic (after it).

The traced launcher wraps public entry points of the program with
:func:`wrap`.  Each call records one span ``(id, request, parent, name,
start_ns, end_ns)``; the request id is assigned by the per-line handler
wrapper (:func:`wrap_line`), and the current request/parent travel in a
:mod:`contextvars` variable so the same code nests correctly both under
the threaded single-process server and inside the cluster front-end's
asyncio tasks.  Spans stay in memory and are written out by :func:`dump`
when the server shuts down.

The analysis half (:func:`self_times`, :func:`per_request`) is pure
arithmetic over those records, kept here so it can be tested on
hand-built span trees.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import re
from collections import Counter
from time import perf_counter_ns

#: (request id, span id) of the innermost open span, or None.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
_span_ids = itertools.count(1)
_request_ids = itertools.count(1)

#: Closed spans: (span id, request id, parent span id, name, start_ns, end_ns).
RECORDS: list[tuple] = []
#: request id -> client-assigned id parsed from the request line.
CLIENT_IDS: dict[int, int] = {}
#: request id -> program counters recorded under ``repro.obs.tracing()``.
COUNTERS: dict[int, dict] = {}

_CLIENT_ID = re.compile(r'\{"id": (\d+)')


def _open(name: str):
    current = _CURRENT.get()
    span_id = next(_span_ids)
    request, parent = current if current is not None else (0, 0)
    token = _CURRENT.set((request, span_id))
    return token, (span_id, request, parent, name)


def wrap(fn, name: str):
    """``fn`` recording one span named ``name`` per call."""
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            token, head = _open(name)
            start = perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                _CURRENT.reset(token)
                RECORDS.append((*head, start, end))

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token, head = _open(name)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            _CURRENT.reset(token)
            RECORDS.append((*head, start, end))

    return wrapper


def _begin_request(line: object) -> contextvars.Token:
    request = next(_request_ids)
    if isinstance(line, str):
        match = _CLIENT_ID.match(line)
        if match:
            CLIENT_IDS[request] = int(match.group(1))
    return _CURRENT.set((request, 0))


def wrap_line(fn, *, line_arg: int, count=None):
    """The per-line handler: opens a new request, then a ``line`` span.

    ``count`` (a context-manager factory yielding an object with a
    ``counters`` dict, i.e. ``repro.obs.tracing``) wraps the call so the
    program's own counters for this request are kept under its id.
    """
    traced = wrap(fn, "line")
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_handler(*args, **kwargs):
            token = _begin_request(args[line_arg])
            try:
                return await traced(*args, **kwargs)
            finally:
                _CURRENT.reset(token)

        return async_handler

    @functools.wraps(fn)
    def handler(*args, **kwargs):
        token = _begin_request(args[line_arg])
        request = _CURRENT.get()[0]
        try:
            if count is None:
                return traced(*args, **kwargs)
            with count() as tracer:
                result = traced(*args, **kwargs)
            if tracer.counters:
                COUNTERS[request] = dict(tracer.counters)
            return result
        finally:
            _CURRENT.reset(token)

    return handler


def install(target: object, attr: str, name: str, missing: list) -> None:
    """Replace ``target.attr`` by a span-recording wrapper, if it exists."""
    fn = getattr(target, attr, None)
    if fn is None:
        missing.append(f"{getattr(target, '__name__', target)}.{attr}")
        return
    setattr(target, attr, wrap(fn, name))


def dump(path: str, extra: dict | None = None) -> None:
    """Write every recorded span and counter set to ``path`` (JSON)."""
    payload = {"spans": RECORDS, "client_ids": CLIENT_IDS, "counters": COUNTERS, **(extra or {})}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


# -- analysis ------------------------------------------------------------------


def covered(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[tuple]) -> dict[int, int]:
    """span id -> duration minus the part covered by its child spans."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span_id, _request, parent, _name, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _request, _parent, _name, start, end in spans:
        inner = [
            (max(s, start), min(e, end))
            for s, e in children.get(span_id, ())
            if min(e, end) > max(s, start)
        ]
        out[span_id] = (end - start) - covered(inner)
    return out


def per_request(spans: list[tuple]) -> dict[int, dict[str, list[int]]]:
    """request id -> name -> [summed duration ns, summed self time ns, calls]."""
    selfs = self_times(spans)
    out: dict[int, dict[str, list[int]]] = {}
    for span_id, request, _parent, name, start, end in spans:
        if not request:
            continue
        entry = out.setdefault(request, {}).setdefault(name, [0, 0, 0])
        entry[0] += end - start
        entry[1] += selfs[span_id]
        entry[2] += 1
    return out


def sum_counters(counter_sets) -> Counter:
    total: Counter = Counter()
    for counters in counter_sets:
        total.update(counters)
    return total
