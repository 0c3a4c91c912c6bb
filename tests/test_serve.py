"""repro.serve: MediationService semantics, protocol, and transports."""

from __future__ import annotations

import io
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.parser import MAX_NESTING, parse_query
from repro.core.tdqm import tdqm_translate
from repro.mediator import bookstore_federation, bookstore_mediator
from repro.obs import trace as obs
from repro.serve import (
    MediationService,
    Overloaded,
    ServiceConfig,
    handle_line,
    handle_request,
    serve_jsonl,
    serve_tcp,
)
from repro.serve import protocol
from repro.serve.worker import bootstrap_service
from repro.serve.protocol import LINE_TOO_LONG, MAX_BATCH_QUERIES, MAX_LINE_BYTES

QUERY = '[ln = "Clancy"] and [fn = "Tom"]'
QUERIES = [
    QUERY,
    "[pyear = 1997] and [pmonth = 5]",
    '([ln = "Clancy"] or [ln = "Klancy"]) and [fn = "Tom"]',
    '([kwd contains www] or ([ln = "Smith"] and [fn = "John"])) and [pyear = 1997]',
]


def nested_query(depth: int) -> str:
    """``depth`` nested groups alternating ∧ and ∨: a tree that deep."""
    query = '[ln = "Clancy"]'
    for level in range(depth):
        if level % 2:
            query = f"([pyear = {1990 + level % 10}] or {query})"
        else:
            query = f'({query} and [fn = "Tom"])'
    return query


def pattern_in_groups(query_depth: int, pattern_depth: int) -> str:
    """A ``contains`` pattern in ``pattern_depth`` groups, inside ``query_depth``."""
    pattern = "(" * pattern_depth + "www (near) web" + ")" * pattern_depth
    return "(" * query_depth + f"[kwd contains {pattern}]" + ")" * query_depth


def make_service(**config) -> MediationService:
    return MediationService(
        bookstore_mediator("amazon"), ServiceConfig(**config) if config else None
    )


class TestServiceSemantics:
    def test_translate_matches_direct_pipeline(self):
        service = make_service()
        direct = tdqm_translate(parse_query(QUERY), service.mediator.specs["Amazon"])
        served = service.translate(QUERY)
        assert set(served) == {"Amazon"}
        assert served["Amazon"].mapping == direct.mapping
        assert served["Amazon"].exact == direct.exact

    def test_mediate_matches_direct_pipeline(self):
        service = make_service()
        expected = bookstore_mediator("amazon").answer_mediated(parse_query(QUERY))
        answer = service.mediate(QUERY)
        assert sorted(answer.rows) == sorted(expected.rows)
        assert answer.complete

    def test_translate_batch_matches_loop(self):
        service = make_service()
        batched = service.translate_batch(QUERIES)
        assert len(batched) == len(QUERIES)
        for text, per_spec in zip(QUERIES, batched):
            direct = tdqm_translate(
                parse_query(text), service.mediator.specs["Amazon"]
            )
            assert per_spec["Amazon"].mapping == direct.mapping

    def test_unknown_source_rejected(self):
        from repro.core.errors import TranslationError

        uncached = make_service()
        uncached.mediator.translation_cache = None
        # With or without a cache, translate takes one path.
        for service in (make_service(), uncached):
            with pytest.raises(TranslationError, match="^translate: unknown sources"):
                service.translate(QUERY, sources=["nope"])

    def test_stats_shape(self):
        service = make_service()
        service.translate(QUERY)
        stats = service.stats()
        assert stats["requests"] == stats["completed"] == 1
        assert stats["rejected"] == stats["errors"] == 0
        assert stats["in_flight"] == 0
        assert stats["cache"]["misses"] >= 1
        assert stats["latency_max_ms"] >= 0.0

    def test_error_counted_and_raised(self):
        from repro.core.errors import ParseError

        service = make_service()
        with pytest.raises(ParseError):
            service.translate("[[[")
        assert service.stats()["errors"] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_concurrency=0)
        with pytest.raises(ValueError):
            ServiceConfig(queue_depth=-1)


class TestAdmissionControl:
    def test_overload_rejects_fast(self):
        service = make_service(max_concurrency=1, queue_depth=0)
        release = threading.Event()
        entered = threading.Event()

        def slow_answer(query, strict=None):
            entered.set()
            release.wait(timeout=10.0)
            return bookstore_mediator("amazon").answer_mediated(query, strict=strict)

        service.mediator.answer_mediated = slow_answer  # type: ignore[method-assign]
        occupant = threading.Thread(target=lambda: service.mediate(QUERY))
        occupant.start()
        assert entered.wait(timeout=10.0)
        with pytest.raises(Overloaded) as info:
            # A *different* query: must be rejected by admission, not coalesced.
            service.mediate(QUERIES[1])
        assert info.value.limit == 1
        release.set()
        occupant.join(timeout=10.0)
        stats = service.stats()
        assert stats["rejected"] == 1
        assert stats["requests"] == 1  # the rejected call was never admitted

    def test_queue_admits_up_to_depth(self):
        service = make_service(max_concurrency=1, queue_depth=2)
        assert service.config.admission_limit == 3

    def test_rejection_emits_obs_counter(self):
        service = make_service(max_concurrency=1, queue_depth=0)
        with obs.tracing("t") as tracer:
            with service._admitted_request():
                with pytest.raises(Overloaded):
                    with service._admitted_request():
                        pass
        assert tracer.counters["serve.rejected"] == 1
        assert tracer.counters["serve.requests"] == 1


class TestServiceSingleFlight:
    def test_commuted_duplicates_share_by_fingerprint(self):
        service = make_service()
        a = service.translate('[ln = "Clancy"] and [fn = "Tom"]')
        b = service.translate('[fn = "Tom"] and [ln = "Clancy"]')
        assert a["Amazon"] is b["Amazon"]  # cache-level dedup by fingerprint


class TestAcceptanceLoad:
    """ISSUE 5 acceptance: 16 threads, one shared service, exact everything."""

    def test_sixteen_thread_load(self):
        n_threads, rounds = 16, 25
        service = make_service(max_concurrency=8, queue_depth=16 * 25)
        serial = {
            text: tdqm_translate(
                parse_query(text), service.mediator.specs["Amazon"]
            )
            for text in QUERIES
        }
        responses: list[list] = [[] for _ in range(n_threads)]
        start = threading.Barrier(n_threads)

        def client(tid: int) -> None:
            start.wait()
            for r in range(rounds):
                text = QUERIES[(tid + r) % len(QUERIES)]
                responses[tid].append((text, service.translate(text)))

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(client, range(n_threads)))

        # Every request got a response...
        assert all(len(per) == rounds for per in responses)
        # ...bit-identical to the serial pipeline...
        for per_thread in responses:
            for text, served in per_thread:
                assert served["Amazon"].mapping == serial[text].mapping
                assert served["Amazon"].exact == serial[text].exact
        # ...with exact service and cache accounting (no lost updates):
        # every request performs exactly one cache lookup.
        stats = service.stats()
        assert stats["requests"] == stats["completed"] == n_threads * rounds
        assert stats["rejected"] == 0 and stats["errors"] == 0
        cache = stats["cache"]
        assert cache["hits"] + cache["misses"] == stats["requests"]
        assert cache["misses"] >= len(QUERIES)


class TestProtocol:
    def test_ping(self):
        response = handle_request(make_service(), {"op": "ping", "id": 9})
        assert response == {"id": 9, "op": "ping", "ok": True, "pong": True}

    def test_translate_roundtrip(self):
        response = handle_request(
            make_service(), {"op": "translate", "query": QUERY, "id": "a"}
        )
        assert response["ok"] and response["id"] == "a"
        assert response["mappings"]["Amazon"]["exact"] is True
        assert "author" in response["mappings"]["Amazon"]["text"]

    def test_mediate_roundtrip(self):
        response = handle_request(make_service(), {"op": "mediate", "query": QUERY})
        assert response["ok"] and response["complete"]
        assert response["count"] == len(response["rows"])
        assert response["rows"][0][0]["view"] == "book"

    def test_batch_roundtrip(self):
        response = handle_request(
            make_service(), {"op": "batch", "queries": QUERIES}
        )
        assert response["ok"]
        assert len(response["results"]) == len(QUERIES)

    def test_batch_past_the_bound_is_rejected_before_admission(self):
        service = make_service()
        too_many = [QUERY] * (MAX_BATCH_QUERIES + 1)
        response = handle_request(service, {"op": "batch", "queries": too_many})
        assert response["ok"] is False
        assert response["error"]["type"] == "bad-request"
        assert str(MAX_BATCH_QUERIES) in response["error"]["message"]
        assert service.stats()["requests"] == 0
        assert handle_request(service, {"op": "batch", "queries": QUERIES})["ok"]
        assert service.stats()["requests"] == 1

    def test_stats_roundtrip(self):
        response = handle_request(make_service(), {"op": "stats"})
        assert response["ok"] and "cache" in response["stats"]

    def test_snapshot_op_writes_through_the_service_timer(self, tmp_path):
        disabled = handle_request(make_service(), {"op": "snapshot", "id": 1})
        assert disabled["error"]["type"] == "snapshot-disabled"
        service, restored = bootstrap_service(
            ["K_Amazon"], ServiceConfig(), snapshot_dir=str(tmp_path), snapshot_interval=0
        )
        assert restored is None
        try:
            service.translate(QUERY)
            response = handle_request(service, {"op": "snapshot", "id": 2})
        finally:
            service.snapshot_timer.stop()
        assert response["ok"] and response["id"] == 2
        assert response["snapshot"]["entries"] == 1
        assert response["snapshot"]["path"] == str(tmp_path / "shard-0.json")

    @pytest.mark.parametrize(
        "request_,expected_type",
        [
            ({"op": "nope"}, "bad-request"),
            ({"op": "translate"}, "bad-request"),
            ({"op": "translate", "query": 7}, "bad-request"),
            ({"op": "translate", "query": QUERY, "sources": "Amazon"}, "bad-request"),
            ({"op": "mediate", "query": QUERY, "strict": "yes"}, "bad-request"),
            ({"op": "batch", "queries": "nope"}, "bad-request"),
            ({"op": "translate", "query": "[[["}, "ParseError"),
        ],
    )
    def test_errors_never_tear_the_stream(self, request_, expected_type):
        response = handle_request(make_service(), request_)
        assert response["ok"] is False
        assert response["error"]["type"] == expected_type

    def test_bad_json_line(self):
        response = json.loads(handle_line(make_service(), "{nope"))
        assert response["ok"] is False
        assert response["error"]["type"] == "bad-json"

    def test_overload_maps_to_backpressure_error(self):
        service = make_service(max_concurrency=1, queue_depth=0)
        with service._admitted_request():
            response = handle_request(service, {"op": "translate", "query": QUERY})
        assert response["error"]["type"] == "overloaded"
        assert response["error"]["limit"] == 1


class TestJsonLinesTransport:
    def _run(self, lines: list[str], **kwargs) -> list[dict]:
        out = io.StringIO()
        handled = serve_jsonl(make_service(), io.StringIO("\n".join(lines)), out, **kwargs)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert handled == len(responses)
        return responses

    def test_sequential_round_trip(self):
        responses = self._run(
            [
                json.dumps({"id": i, "op": "translate", "query": text})
                for i, text in enumerate(QUERIES)
            ]
            + ["", "# a comment"]
        )
        assert len(responses) == len(QUERIES)
        assert [r["id"] for r in responses] == list(range(len(QUERIES)))

    def test_pipelined_no_lost_or_duplicated_responses(self):
        n = 48
        requests = [
            json.dumps(
                {"id": i, "op": "translate", "query": QUERIES[i % len(QUERIES)]}
            )
            for i in range(n)
        ]
        responses = self._run(requests, workers=8)
        assert len(responses) == n
        ids = sorted(r["id"] for r in responses)
        assert ids == list(range(n))  # exactly once each
        assert all(r["ok"] for r in responses)

    def test_lines_past_the_bound_get_structured_errors(self, monkeypatch):
        # A request line past the bound is dropped and answered, and the
        # stream goes on; a response past it becomes response-too-large.
        too_long = json.dumps({"op": "translate", "query": "x" * MAX_LINE_BYTES})
        responses = self._run([too_long, json.dumps({"id": 2, "op": "ping"})])
        assert responses == [
            LINE_TOO_LONG, {"id": 2, "op": "ping", "ok": True, "pong": True},
        ]
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 300)
        (response,) = self._run([json.dumps({"id": 3, "op": "batch", "queries": QUERIES})])
        assert response["id"] == 3
        assert response["error"]["type"] == "response-too-large"


class TestTcpTransport:
    def test_tcp_round_trip(self):
        service = make_service()
        server = serve_tcp(service, port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection((host, port), timeout=10.0) as conn:
                handle = conn.makefile("rw", encoding="utf-8")
                for i in range(3):
                    handle.write(
                        json.dumps({"id": i, "op": "translate", "query": QUERY}) + "\n"
                    )
                handle.write(json.dumps({"op": "stats", "id": 99}) + "\n")
                handle.flush()
                responses = [json.loads(handle.readline()) for _ in range(4)]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)
        assert [r["id"] for r in responses] == [0, 1, 2, 99]
        assert all(r["ok"] for r in responses)
        # `stats` is not admission-controlled; only the translates count.
        assert responses[3]["stats"]["requests"] == 3

    def test_lines_past_the_bound_get_structured_errors(self, monkeypatch):
        server = serve_tcp(make_service(), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(server.server_address[:2], timeout=60.0) as conn:
                handle = conn.makefile("rw", encoding="utf-8")

                def call(line: str) -> dict:
                    handle.write(line + "\n")
                    handle.flush()
                    return json.loads(handle.readline())

                too_long = json.dumps({"op": "translate", "query": "x" * MAX_LINE_BYTES})
                assert call(too_long) == LINE_TOO_LONG
                # The line's tail is dropped, not answered as a second line.
                assert call(json.dumps({"id": 1, "op": "ping"})) == {
                    "id": 1, "op": "ping", "ok": True, "pong": True,
                }
                # The bound is exact: MAX_LINE_BYTES, newline included.
                head = '{"id": 1, "op": "ping", "pad": "'
                pad = MAX_LINE_BYTES - len(head) - 3
                assert call(head + "x" * pad + '"}')["pong"] is True
                assert call(head + "x" * (pad + 1) + '"}') == LINE_TOO_LONG
                monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 300)
                response = call(json.dumps({"id": 2, "op": "batch", "queries": QUERIES}))
                assert response["id"] == 2
                assert response["error"]["type"] == "response-too-large"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)

class TestMalformedInputHardening:
    """Hostile input must produce structured errors, never a dead socket."""

    def test_deeply_nested_garbage_over_tcp_answers_and_keeps_serving(self):
        # json.loads raises RecursionError (not JSONDecodeError) from the
        # C scanner on kilobyte-deep nesting; before the decode guard the
        # handler thread died and the connection dropped silently.
        service = make_service()
        server = serve_tcp(service, port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection((host, port), timeout=10.0) as conn:
                handle = conn.makefile("rw", encoding="utf-8")
                handle.write("[" * 200_000 + "\n")
                handle.flush()
                response = json.loads(handle.readline())
                assert response["ok"] is False
                assert response["error"]["type"] == "bad-json"
                # The connection survived and still serves real requests.
                handle.write(
                    json.dumps({"id": 1, "op": "translate", "query": QUERY}) + "\n"
                )
                handle.flush()
                follow_up = json.loads(handle.readline())
                assert follow_up["ok"] is True
                assert follow_up["id"] == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)

    def test_truncated_json_gets_bad_json_response(self):
        from repro.serve import decode_line

        request, error = decode_line('{"op": "ping", ')
        assert request is None
        assert error is not None and error["error"]["type"] == "bad-json"

    def test_non_object_request_gets_bad_request_response(self):
        from repro.serve import decode_line

        request, error = decode_line("[1, 2, 3]")
        assert request is None
        assert error is not None and error["error"]["type"] == "bad-request"

    @pytest.mark.parametrize(
        "query",
        [nested_query(MAX_NESTING), pattern_in_groups(60, MAX_NESTING - 60)],
        ids=["query", "query+pattern"],
    )
    def test_nesting_at_the_bound_translates_and_mediates(self, query):
        service = MediationService(bookstore_federation(), ServiceConfig())
        for op in ("translate", "mediate"):
            response = json.loads(handle_line(service, json.dumps({"op": op, "query": query})))
            assert response["ok"] is True, response

    @pytest.mark.parametrize(
        "query",
        [
            nested_query(MAX_NESTING + 1),
            "(" * 1000 + '[ln = "x"]' + ")" * 1000,
            "not " * 1000 + '[ln = "x"]',
            pattern_in_groups(0, 1000),
            pattern_in_groups(60, MAX_NESTING - 59),
        ],
        ids=["one-deeper", "parens", "nots", "pattern", "query+pattern"],
    )
    def test_nesting_past_the_bound_is_a_structured_parse_error(self, query):
        service = MediationService(bookstore_federation(), ServiceConfig())
        for op in ("translate", "mediate"):
            response = json.loads(handle_line(service, json.dumps({"op": op, "query": query})))
            assert response["ok"] is False
            assert response["error"]["type"] == "ParseError"
            assert f"deeper than {MAX_NESTING} levels" in response["error"]["message"]

    def test_handle_line_answers_recursion_bomb(self):
        response = json.loads(handle_line(make_service(), "[" * 200_000))
        assert response["ok"] is False
        assert response["error"]["type"] == "bad-json"

    def test_unencodable_response_degrades_to_structured_error(self):
        from repro.serve import encode_response

        # A valid request can echo an id too deep for the encoder.
        deep: list = []
        probe = deep
        for _ in range(200_000):
            probe.append([])
            probe = probe[0]
        line = encode_response({"id": deep, "ok": True, "op": "ping"})
        response = json.loads(line)
        assert response["ok"] is False
        assert "not encodable" in response["error"]["message"]
