"""Tests of the benchmark itself (not of the program it measures).

Run from the checkout root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import audit  # noqa: E402
import client  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from stats import ThinSample, percentile  # noqa: E402


def _request_bytes(seed: int) -> list[bytes]:
    hot = [q for _, q in gen.hot_stream(seed, length=500)[2]]
    cold = gen.cold_stream(seed, length=200)[0]
    fed = [q for _, q in gen.federation_stream(seed, length=300)[2]]
    bodies = [audit.body("translate", q) for q in hot + cold] + [
        audit.body("mediate", q) for q in fed
    ]
    extra = json.dumps([gen.skos_spec(seed, concepts=300), gen.catalogs(seed, books=40)])
    return [audit.request_line(i, b) for i, b in enumerate(bodies)] + [extra.encode()]


def test_same_seed_same_request_bytes():
    assert _request_bytes(7) == _request_bytes(7)
    assert _request_bytes(7) != _request_bytes(8)


def test_spellings_share_one_fingerprint_and_cold_never_repeats():
    variants, _probe, _stream = gen.hot_stream(3, distinct=30, length=10)
    for spellings in variants:
        assert len(set(audit.fingerprints(spellings))) == 1
    queries, probe = gen.cold_stream(3, length=300)
    prints = audit.fingerprints(queries + probe)
    assert len(set(prints)) == len(prints)


def test_percentile_refuses_thin_samples():
    values = [float(v) for v in range(1, 1001)]
    assert percentile(values, 0.99) == 990.0
    assert percentile(values, 0.5) == 500.0
    with pytest.raises(ThinSample):
        percentile(values[:999], 0.99)
    with pytest.raises(ThinSample):
        percentile([1.0] * 15, 0.5)


def test_failures_sort_beyond_every_latency():
    values = [1.0] * 980 + [float("inf")] * 20
    assert percentile(values, 0.99) == float("inf")
    assert percentile(values, 0.5) == 1.0


def test_self_time_on_a_hand_built_span_tree():
    # line [0, 100] has children decode [10, 20] and service [20, 90];
    # service has children parse [25, 35] and a cache lookup [40, 80]
    # whose own child tdqm [45, 75] leaves the lookup 10 of self time.
    tree = [
        (1, 7, 0, "line", 0, 100),
        (2, 7, 1, "protocol.decode", 10, 20),
        (3, 7, 1, "service", 20, 90),
        (4, 7, 3, "parser.parse", 25, 35),
        (5, 7, 3, "cache.lookup", 40, 80),
        (6, 7, 5, "tdqm.translate", 45, 75),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {1: 20, 2: 10, 3: 20, 4: 10, 5: 10, 6: 30}
    per = spans.per_request(tree)[7]
    assert per["line"] == [100, 20, 1]
    assert per["service"] == [70, 20, 1]


def test_self_time_counts_overlapping_children_once():
    tree = [
        (1, 1, 0, "front", 0, 100),
        (2, 1, 1, "a", 10, 60),
        (3, 1, 1, "b", 40, 70),
        (4, 1, 1, "c", 90, 130),
    ]
    assert spans.self_times(tree)[1] == 100 - 60 - 10


def test_wrappers_record_nested_spans_per_request():
    spans.RECORDS.clear()

    def inner(x):
        return x + 1

    wrapped_inner = spans.wrap(inner, "inner")

    def handler(service, line):
        return wrapped_inner(len(line))

    handle = spans.wrap_line(handler, line_arg=1)
    assert handle(None, '{"id": 42, "op": "ping"}') == 25
    by_name = {r[3]: r for r in spans.RECORDS}
    assert by_name["inner"][2] == by_name["line"][0]
    assert by_name["inner"][1] == by_name["line"][1] != 0
    assert spans.CLIENT_IDS[by_name["line"][1]] == 42


@pytest.fixture(scope="module")
def reference():
    return audit.Reference()


def test_audit_counts_a_corrupted_response_as_a_failure(reference):
    variants, _probe, _stream = gen.hot_stream(5, distinct=3, length=10)
    bodies = [audit.body("translate", v[0]) for v in variants]
    good = [reference.expected(b, i).encode() for i, b in enumerate(bodies)]
    corrupted = good[1].replace(b'"ok": true', b'"ok": tru')
    samples = [
        (0, 0, 0, 1, good[0]),
        (1, 1, 0, 1, corrupted),
        (2, 0, 0, 1, None),
    ]
    assert audit.audit(reference, bodies, samples) == [1, 2]
    assert audit.audit(reference, bodies, [(0, 0, 0, 1, good[0])]) == []


def test_audit_accepts_another_spelling_of_the_same_query(reference):
    variants, _probe, _stream = gen.hot_stream(5, distinct=40, length=10)
    qbook = variants[2]
    own, other = audit.body("translate", qbook[0]), audit.body("translate", qbook[1])
    served = reference.expected(other, 9).encode()
    if served != reference.expected(own, 9).encode():
        assert not reference.matches(own, 9, served)
    assert reference.matches(own, 9, served, [other])


def test_prefill_on_workers_matches_serial_reference(reference, monkeypatch):
    variants, _probe, _stream = gen.hot_stream(11, distinct=12, length=10)
    bodies = [audit.body("translate", q) for v in variants for q in v]
    parallel = audit.Reference()
    monkeypatch.setattr(audit.Reference, "PARALLEL_FROM", 1)
    assert threading.active_count() == 1  # else prefill would not fork workers
    parallel.prefill(bodies, processes=2)
    assert [parallel.template(b) for b in bodies] == [reference.template(b) for b in bodies]
    assert client.children() == []  # no pool worker or helper process outlives it


class _Echo(socketserver.StreamRequestHandler):
    def handle(self):
        for line in self.rfile:
            self.wfile.write(line)


@pytest.fixture
def echo_server():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _Echo)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def _lines(n: int) -> list[bytes]:
    return [b'{"id": %d}\n' % i for i in range(n)]


@pytest.mark.parametrize("spin", [True, False])
def test_closed_loop_answers_in_order_until_the_lines_run_out(echo_server, spin):
    lines, probed = _lines(50), []
    window = client.closed_loop(echo_server.server_address, lines, 30.0, spin, (20, probed.append))
    assert [s[0] for s in window.samples] == list(range(50))
    assert probed in ([20], [21])  # once, when 20 were done (two may finish together)
    assert all(s[4] + b"\n" == lines[s[0]] for s in window.samples)
    assert window.seconds < 30.0


def test_a_connection_lost_on_send_is_a_failed_request(echo_server, monkeypatch):
    write, calls = client._write, []

    def flaky(sock, data):
        calls.append(data)
        if len(calls) == 3:
            raise BrokenPipeError("peer went away")
        write(sock, data)

    monkeypatch.setattr(client, "_write", flaky)
    window = client.closed_loop(echo_server.server_address, _lines(20), 30.0, spin=False)
    assert [s[0] for s in window.samples] == list(range(20))
    assert [s[0] for s in window.samples if s[4] is None] == [2]


def test_a_server_that_is_gone_ends_the_window_with_failures(monkeypatch):
    listener = socket.create_server(("127.0.0.1", 0))
    address = listener.getsockname()

    def gone(sock, data):
        listener.close()  # no more connections accepted
        raise ConnectionResetError("server stopped")

    monkeypatch.setattr(client, "_write", gone)
    window = client.closed_loop(address, _lines(20), 30.0, spin=True)
    assert [s[4] for s in window.samples] == [None] * client.CONNECTIONS


def test_peak_rss_reads_the_server_tree():
    proc = client.ServerProcess(
        [sys.executable, "-c", "import time; time.sleep(30)"],
        cwd=HERE, env=dict(os.environ), log_path=os.devnull,
    )
    try:
        deadline = time.monotonic() + 10
        while proc.peak_rss_mb() < 1.0 and time.monotonic() < deadline:
            time.sleep(0.05)  # still between fork and the interpreter's start
        assert proc.peak_rss_mb() > 1.0
    finally:
        proc.stop(timeout=5)
    assert proc.proc.poll() is not None


def test_stop_waits_for_what_the_server_left_behind(tmp_path):
    assert client.adopt_orphans()
    log = str(tmp_path / "server.log")
    server = (
        "import subprocess, sys, time\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "print(f'serving test on 127.0.0.1:1 child={child.pid}', file=sys.stderr, flush=True)\n"
        "time.sleep(60)\n"
    )
    proc = client.ServerProcess([sys.executable, "-c", server], cwd=HERE, env=dict(os.environ),
                                log_path=log)
    try:
        proc.wait_address(timeout=30)
        with open(log, encoding="utf-8") as handle:
            orphan = int(handle.read().split("child=")[1].split()[0])
    finally:
        proc.stop(timeout=5)
    assert not os.path.exists(f"/proc/{orphan}")
    assert client.children() == []


def test_rationale_names_every_per_layer_metric_once():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "rationale.json"), encoding="utf-8") as handle:
        rationale = json.load(handle)
    assert list(rationale["per_layer"]) == [m["name"] for m in bench["per_layer"]]
    assert {w["name"] for w in bench["workloads"]} <= set(rationale["workloads"])
    for info in rationale["per_layer"].values():
        assert set(info["applies"]) <= set(rationale["workloads"])
