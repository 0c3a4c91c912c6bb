"""The `repro serve` wire protocol: JSON-lines requests and responses.

One request per line, one response per line — the same framing over
stdin/stdout and TCP.  Requests name an operation and carry an optional
client ``id`` that the response echoes verbatim, so clients may pipeline
and correlate out-of-order responses:

.. code-block:: json

    {"id": 1, "op": "translate", "query": "[ln = \\"Clancy\\"]"}
    {"id": 1, "ok": true, "op": "translate", "mappings": {"Amazon": {...}}}

Operations
----------

``ping``
    Liveness probe; responds ``{"ok": true, "pong": true}``.
``translate``
    ``query`` (required), ``sources`` (optional list) — per-source
    mappings with text/JSON renderings and exactness.
``mediate``
    ``query`` (required), ``strict`` (optional bool) — mediated rows
    plus completeness and per-source outcomes.
``batch``
    ``queries`` (required list of at most :data:`MAX_BATCH_QUERIES`),
    ``sources`` (optional) — one ``translate``-shaped result per query,
    through the batch path.
``stats``
    The service's exact counters and the shared cache snapshot.
``health``
    Cheap liveness summary: ``status`` (``ok``/``degraded`` by breaker
    state), in-flight/error counts, per-source breaker states.  Always
    available, registry or not.
``metrics``
    The continuous-telemetry snapshot (counters with rolling-window
    rates, gauges, latency histograms with p50/p95/p99).  With
    ``"format": "prometheus"`` the response carries the registry in
    Prometheus text exposition as a single ``text`` field instead.
``sources``
    Per-source scorecards: latency percentiles, error/retry rates,
    rows returned, breaker state, and a trailing-window error rate.
``slowlog``
    The ``n`` (default 10) slowest query fingerprints with per-
    fingerprint counts and max/mean latency.
``reload``
    Hot-swap mapping specifications without a restart: ``spec`` (one
    declarative spec dict), ``specs`` (a list of them), or ``registry``
    (a :mod:`repro.registry` directory whose *active* versions are
    loaded) — each named spec is atomically swapped into the running
    service via :meth:`MediationService.reload_spec
    <repro.serve.service.MediationService.reload_spec>`.  Responds with
    one report per spec (digests, affected sources, cache entries
    invalidated, ``changed`` false for a same-digest no-op).  In-flight
    requests complete against the spec they started with.
``snapshot``
    Write the service's warm-start cache snapshot now and respond with
    its :class:`~repro.serve.snapshot.SnapshotReport`.  A service
    started without ``--snapshot-dir`` answers ``{"ok": false,
    "error": {"type": "snapshot-disabled"}}``.

``metrics``, ``sources``, and ``slowlog`` need the service to run with
a metrics registry (``repro serve --metrics``); without one they answer
``{"ok": false, "error": {"type": "metrics-disabled"}}``.

Failures never tear the connection: every error becomes an
``{"ok": false, "error": {"type", "message"}}`` response.  An
overloaded service answers ``type = "overloaded"`` immediately —
clients treat it as back-pressure, not as a protocol error.

A line in either direction is bounded by :data:`MAX_LINE_BYTES`, in
every mode and on every transport: a longer request line is answered
with :data:`LINE_TOO_LONG`, and :func:`handle_line` answers a request
whose response line would pass the bound with a ``response-too-large``
error instead.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.core.errors import VocabMapError
from repro.core.json_io import query_to_json
from repro.core.printer import to_text
from repro.serve.service import MediationService, Overloaded

if TYPE_CHECKING:
    from repro.core.tdqm import TranslationResult
    from repro.mediator.mediator import MediatedAnswer

__all__ = [
    "decode_line",
    "encode_response",
    "error_response",
    "handle_request",
    "handle_line",
    "resolve_reload_specs",
]

#: Longest JSON line (bytes, newline included) a server reads or writes,
#: on every transport.  asyncio's default of 64 KiB is smaller than one
#: batch response.  A longer request line is answered with
#: :data:`LINE_TOO_LONG`; a response that would pass the bound is answered
#: with a ``response-too-large`` error instead.
MAX_LINE_BYTES = 16 * 1024 * 1024

#: Most queries one ``batch`` request may carry.  A longer list is
#: answered ``bad-request`` before admission, so no work is done for it.
#: 4,096 Qbook-shaped queries answer about 4.5 MB, well inside
#: :data:`MAX_LINE_BYTES`; a smaller batch with large results can still
#: pass the line bound and gets ``response-too-large``.
MAX_BATCH_QUERIES = 4096

#: Operations a request may name.
OPS = (
    "ping",
    "translate",
    "mediate",
    "batch",
    "stats",
    "health",
    "metrics",
    "sources",
    "slowlog",
    "reload",
    "snapshot",
)


def resolve_reload_specs(request: dict, served: "set[str] | None" = None) -> list[dict]:
    """The declarative spec dicts one ``reload`` request names.

    Accepts ``spec`` (one dict), ``specs`` (a list of dicts), or
    ``registry`` (a :mod:`repro.registry` directory — every *active*
    version is loaded, filtered to ``served`` spec names when given).
    Shared by the single-process dispatcher and the cluster front-end so
    both modes resolve one request shape identically.
    """
    if "registry" in request:
        root = request["registry"]
        if not isinstance(root, str) or not root:
            raise ValueError("'registry' must be a directory path")
        from repro.registry import SpecRegistry

        registry = SpecRegistry(root)
        names = [
            name
            for name in registry.names()
            if served is None or name in served
        ]
        specs = [registry.load_raw(name) for name in names]
        if not specs:
            raise ValueError(
                f"registry {root!r} has no active specification "
                f"matching the served set {sorted(served or ())}"
            )
        return specs
    if "specs" in request:
        specs = request["specs"]
        if not isinstance(specs, list) or not all(isinstance(s, dict) for s in specs):
            raise ValueError("'specs' must be a list of declarative spec objects")
        if not specs:
            raise ValueError("'specs' must not be empty")
        return specs
    spec = request.get("spec")
    if not isinstance(spec, dict):
        raise ValueError("reload needs 'spec', 'specs', or 'registry'")
    return [spec]


def _jsonable(value: object) -> object:
    """A JSON-encodable rendering of one row value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _mapping_payload(result: "TranslationResult") -> dict:
    return {
        "text": to_text(result.mapping),
        "json": query_to_json(result.mapping),
        "exact": result.exact,
    }


def _answer_payload(answer: "MediatedAnswer") -> dict:
    rows = [
        [
            {
                "view": view,
                "index": index,
                "row": {k: _jsonable(v) for k, v in pairs},
            }
            for view, index, pairs in row
        ]
        for row in answer.rows
    ]
    payload: dict = {"rows": rows, "count": len(answer.rows), "complete": answer.complete}
    if answer.outcomes:
        payload["sources"] = [outcome.to_dict() for outcome in answer.outcomes]
    return payload


class _MetricsDisabled(VocabMapError):
    """An admin op needs the registry the service was started without."""


def _require_metrics_op(service: MediationService, op: str) -> None:
    if service.metrics is None:
        raise _MetricsDisabled(
            f"op {op!r} needs continuous telemetry; "
            "restart with `repro serve --metrics`"
        )


def _require_query(request: dict) -> str:
    query = request.get("query")
    if not isinstance(query, str) or not query.strip():
        raise ValueError("request needs a non-empty string 'query'")
    return query


def _optional_sources(request: dict) -> list[str] | None:
    sources = request.get("sources")
    if sources is None:
        return None
    if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
        raise ValueError("'sources' must be a list of source names")
    return sources


def handle_request(service: MediationService, request: dict) -> dict:
    """Dispatch one decoded request; always returns a response dict."""
    response: dict = {}
    if not isinstance(request, dict):
        return {
            "ok": False,
            "error": {"type": "bad-request", "message": "request must be a JSON object"},
        }
    if "id" in request:
        response["id"] = request["id"]
    op = request.get("op")
    response["op"] = op
    try:
        if op == "ping":
            response.update(ok=True, pong=True)
        elif op == "translate":
            results = service.translate(
                _require_query(request), sources=_optional_sources(request)
            )
            response.update(
                ok=True,
                mappings={name: _mapping_payload(r) for name, r in sorted(results.items())},
            )
        elif op == "mediate":
            strict = request.get("strict")
            if strict is not None and not isinstance(strict, bool):
                raise ValueError("'strict' must be a boolean")
            answer = service.mediate(_require_query(request), strict=strict)
            response["ok"] = True
            response.update(_answer_payload(answer))
        elif op == "batch":
            queries = request.get("queries")
            if not isinstance(queries, list) or not all(
                isinstance(q, str) for q in queries
            ):
                raise ValueError("'queries' must be a list of query strings")
            if len(queries) > MAX_BATCH_QUERIES:
                raise ValueError(
                    f"'queries' holds {len(queries)} queries, more than "
                    f"MAX_BATCH_QUERIES ({MAX_BATCH_QUERIES}); split the batch"
                )
            batched = service.translate_batch(queries, sources=_optional_sources(request))
            response.update(
                ok=True,
                results=[
                    {name: _mapping_payload(r) for name, r in sorted(per.items())}
                    for per in batched
                ],
            )
        elif op == "stats":
            response.update(ok=True, stats=service.stats())
        elif op == "health":
            response.update(ok=True, health=service.health())
        elif op == "metrics":
            fmt = request.get("format", "json")
            if fmt not in ("json", "prometheus"):
                raise ValueError("'format' must be 'json' or 'prometheus'")
            _require_metrics_op(service, op)
            if fmt == "prometheus":
                from repro.obs.export import render_prometheus

                service.metrics_snapshot()  # refresh derived cache gauges
                response.update(
                    ok=True, format="prometheus",
                    text=render_prometheus(service.metrics),
                )
            else:
                response.update(ok=True, metrics=service.metrics_snapshot())
        elif op == "sources":
            _require_metrics_op(service, op)
            response.update(ok=True, sources=service.scorecards())
        elif op == "slowlog":
            n = request.get("n", 10)
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise ValueError("'n' must be a positive integer")
            _require_metrics_op(service, op)
            response.update(ok=True, slowlog=service.slowlog(n))
        elif op == "reload":
            from repro.rules.declarative import spec_from_dict

            served = {spec.name for spec in service.mediator.specs.values()}
            reports = [
                service.reload_spec(spec_from_dict(data))
                for data in resolve_reload_specs(request, served)
            ]
            response.update(ok=True, reload=reports)
        elif op == "snapshot":
            timer = service.snapshot_timer
            if timer is None:
                return error_response(
                    request,
                    "snapshot-disabled",
                    "service runs without --snapshot-dir; nothing to persist",
                )
            response.update(ok=True, snapshot=timer.write_now().to_dict())
        else:
            raise ValueError(
                f"unknown op {op!r}; expected one of {', '.join(OPS)}"
            )
    except Overloaded as exc:
        response.update(
            ok=False, error={"type": "overloaded", "message": str(exc), "limit": exc.limit}
        )
    except _MetricsDisabled as exc:
        response.update(
            ok=False, error={"type": "metrics-disabled", "message": str(exc)}
        )
    except (ValueError, VocabMapError) as exc:
        kind = "bad-request" if isinstance(exc, ValueError) else type(exc).__name__
        response.update(ok=False, error={"type": kind, "message": str(exc)})
    return response


def error_response(request: object, kind: str, message: str) -> dict:
    """A structured ``{"ok": false}`` response, echoing the request id/op."""
    response: dict = {}
    if isinstance(request, dict):
        if "id" in request:
            response["id"] = request["id"]
        response["op"] = request.get("op")
    response.update(ok=False, error={"type": kind, "message": message})
    return response


#: The one answer to a request line longer than :data:`MAX_LINE_BYTES`.
LINE_TOO_LONG = error_response(
    None,
    "bad-request",
    f"request line longer than MAX_LINE_BYTES ({MAX_LINE_BYTES} bytes)",
)


def decode_line(line: str) -> tuple[dict | None, dict | None]:
    """Decode one request line; returns ``(request, error_response)``.

    Exactly one of the pair is non-``None``.  Decoding failures include
    the obvious :class:`json.JSONDecodeError` *and* the pathological
    inputs the stdlib decoder turns into other exceptions — deeply
    nested garbage raises :class:`RecursionError` from the C scanner —
    all of which must become a structured ``bad-json`` response rather
    than an exception that tears down the client's connection.
    """
    try:
        request = json.loads(line)
    except (ValueError, RecursionError) as exc:
        return None, error_response(None, "bad-json", str(exc) or type(exc).__name__)
    if not isinstance(request, dict):
        return None, {
            "ok": False,
            "error": {"type": "bad-request", "message": "request must be a JSON object"},
        }
    return request, None


def encode_response(response: dict) -> str:
    """Encode one response line; never raises on hostile request echoes.

    A response embeds the client's ``id`` verbatim, and a *valid* JSON
    request can still carry an id too deep for the encoder (the decoder
    and encoder recurse differently) — degrade to a structured error
    without the echo instead of killing the connection.
    """
    try:
        return json.dumps(response, sort_keys=True)
    except (ValueError, TypeError, RecursionError) as exc:
        return json.dumps(
            error_response(
                None, "bad-request", f"response not encodable: {type(exc).__name__}"
            ),
            sort_keys=True,
        )


def handle_line(service: MediationService, line: str) -> str:
    """Decode one request line, dispatch it, encode one response line.

    The one line handler of every transport, in single-process mode and
    in each cluster worker.  Never raises on client input: malformed
    JSON — including adversarial inputs like kilobyte-deep nesting that
    trip :class:`RecursionError` inside the decoder — becomes an
    ``{"ok": false, "error": {"type": "bad-json"}}`` response like any
    other error, and the connection stays up.  A response line that would
    pass :data:`MAX_LINE_BYTES` is replaced by a ``response-too-large``
    error that keeps the request's ``id``.
    """
    request, decode_error = decode_line(line)
    if decode_error is not None:
        return json.dumps(decode_error, sort_keys=True)
    assert request is not None
    encoded = encode_response(handle_request(service, request))
    if len(encoded) + 1 > MAX_LINE_BYTES:  # ASCII JSON: 1 char = 1 byte
        return encode_response(
            error_response(
                request,
                "response-too-large",
                f"response line of {len(encoded) + 1} bytes exceeds "
                f"MAX_LINE_BYTES ({MAX_LINE_BYTES}); split the request",
            )
        )
    return encoded
