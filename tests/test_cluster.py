"""repro.serve.cluster: least-loaded routing and the worker-process front-end.

The contracts under test, in increasing machinery:

* A worker answers through :func:`~repro.serve.handle_line`, which
  answers a response past the line bound with a structured error, and a
  client's ``shard`` op with the unknown-op error.
* The 2-process cluster answers every protocol op **bit-identically** to
  a single-process :func:`~repro.serve.handle_line` — same bytes for
  translate/mediate/batch/errors — under both sequential and 16-client
  concurrent load, with zero lost responses; an overlong client line
  gets one structured error and the connection keeps serving.
* Routing: a request goes to the live shard with the fewest requests
  in flight, so a second client is not queued behind a busy shard.
* Operational behavior: exact aggregated stats, graceful degradation
  when a worker is killed, rolling restart that loses nothing and comes
  back warm from the dead worker's snapshot, and workers serving under
  the cluster's resilience config exactly as one process does.

Workers are real spawned processes, so these tests are the slowest in
the suite; they share one cluster per class where the ops are read-only.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.obs.stats import builtin_mediator
from repro.resilience import FaultPolicy, ResilienceConfig, RetryPolicy
from repro.serve import (
    ClusterConfig,
    ClusterServer,
    MediationService,
    ServiceConfig,
    handle_line,
    protocol,
)
from repro.serve.worker import bootstrap_service

QUERY = '[ln = "Clancy"] and [fn = "Tom"]'
QUERIES = [
    QUERY,
    '[ln = "King"]',
    "[pyear = 1997] and [pmonth = 5]",
    '([ln = "Clancy"] or [ln = "Klancy"]) and [fn = "Tom"]',
    "this does not parse ((",
]


def reference_service() -> MediationService:
    return MediationService(builtin_mediator({"K_Amazon"}), ServiceConfig())


class TestWorkerLineHandler:
    """A worker's line handler is the single-process ``handle_line``."""

    def test_response_past_the_line_bound_is_a_structured_error(self, monkeypatch):
        # Past the bound the front-end would read the line as a dead shard.
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 300)
        service = reference_service()
        line = json.dumps({"id": "big", "op": "batch", "queries": [QUERY] * 3})
        encoded = handle_line(service, line)
        assert len(encoded) < 300
        response = json.loads(encoded)
        assert response["id"] == "big"
        assert response["ok"] is False
        assert response["error"]["type"] == "response-too-large"
        small = json.dumps({"id": 2, "op": "ping"})
        assert json.loads(handle_line(service, small)) == {
            "id": 2, "op": "ping", "ok": True, "pong": True,
        }

    def test_shard_op_is_an_unknown_op(self):
        line = json.dumps({"id": 1, "op": "shard"})
        response = json.loads(handle_line(reference_service(), line))
        assert response["error"]["type"] == "bad-request"
        assert response["error"]["message"].startswith("unknown op 'shard'")


def cluster_config(**overrides) -> ClusterConfig:
    defaults = dict(
        spec_names=("K_Amazon",),
        processes=2,
        service=ServiceConfig(),
        snapshot_interval=0.0,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestClusterConfig:
    def test_rejects_negative_snapshot_limit(self):
        # A negative limit would slice off the coldest entries silently.
        with pytest.raises(ValueError, match="snapshot_limit"):
            cluster_config(snapshot_limit=-1)

    def test_rejects_an_unknown_scenario(self):
        # Checked on the config, so no worker is spawned to find out.
        with pytest.raises(ValueError, match="does not name a built-in scenario"):
            cluster_config(spec_names=("K_Bogus",))


class Client:
    """One JSON-lines connection to the cluster front-end."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=60.0)
        self.handle = self.sock.makefile("rw", encoding="utf-8")

    def call_raw(self, line: str) -> str:
        self.handle.write(line + "\n")
        self.handle.flush()
        return self.handle.readline().rstrip("\n")

    def call(self, request: dict) -> dict:
        return json.loads(self.call_raw(json.dumps(request)))

    def close(self):
        self.sock.close()


def ping_line(length: int) -> str:
    """A ``ping`` request line of exactly ``length`` bytes, newline included."""
    head = '{"id": 1, "op": "ping", "pad": "'
    return head + "x" * (length - len(head) - 3) + '"}'


def reference_lines(ops=("translate", "mediate")) -> dict[str, str]:
    """Single-process responses, keyed by the exact request line."""
    service = MediationService(builtin_mediator({"K_Amazon"}), ServiceConfig())
    lines = {}
    for i, query in enumerate(QUERIES):
        for op in ops:
            line = json.dumps({"id": f"{op}-{i}", "op": op, "query": query})
            lines[line] = handle_line(service, line)
    batch = json.dumps({"id": "batch", "op": "batch", "queries": QUERIES[:4]})
    lines[batch] = handle_line(service, batch)
    bad_batch = json.dumps({"id": "bad", "op": "batch", "queries": QUERIES})
    lines[bad_batch] = handle_line(service, bad_batch)
    return lines


@pytest.fixture(scope="class")
def cluster():
    server = ClusterServer(cluster_config())
    server.start()
    yield server
    server.stop()


@pytest.mark.usefixtures("cluster")
class TestClusterProtocol:
    def test_responses_bit_identical_to_single_process(self, cluster):
        client = Client(cluster.address)
        try:
            for line, expected in reference_lines().items():
                assert client.call_raw(line) == expected
        finally:
            client.close()

    def test_concurrent_load_loses_nothing_and_stays_identical(self, cluster):
        expected = reference_lines()
        lines = list(expected)
        failures: list[str] = []
        done = threading.Barrier(17, timeout=120.0)

        def drive(offset: int) -> None:
            client = Client(cluster.address)
            try:
                for round_ in range(3):
                    line = lines[(offset + round_) % len(lines)]
                    got = client.call_raw(line)
                    if got != expected[line]:
                        failures.append(f"client {offset}: {got[:80]}")
            finally:
                client.close()
                done.wait()

        threads = [
            threading.Thread(target=drive, args=(i,), daemon=True) for i in range(16)
        ]
        for thread in threads:
            thread.start()
        done.wait()
        for thread in threads:
            thread.join(timeout=30.0)
        assert failures == []

    def test_ping_and_unknown_op(self, cluster):
        client = Client(cluster.address)
        try:
            assert client.call({"id": 1, "op": "ping"})["pong"] is True
            response = client.call({"id": 2, "op": "nonsense"})
            assert response["ok"] is False
            assert response["error"]["type"] == "bad-request"
        finally:
            client.close()

    def test_malformed_json_gets_structured_error(self, cluster):
        client = Client(cluster.address)
        try:
            response = json.loads(client.call_raw('{"op": "ping", '))
            assert response["ok"] is False
            assert response["error"]["type"] == "bad-json"
            # Connection must still be serving afterwards.
            assert client.call({"op": "ping"})["ok"] is True
        finally:
            client.close()

    def test_stats_aggregate_exactly(self, cluster):
        client = Client(cluster.address)
        try:
            stats = client.call({"op": "stats"})["stats"]
            shard_stats = [
                entry["stats"] for entry in stats["shards"] if "stats" in entry
            ]
            assert len(shard_stats) == 2
            for counter in ("requests", "completed", "rejected"):
                assert stats[counter] == sum(s[counter] for s in shard_stats)
            cache = stats["cache"]
            for counter in ("size", "coalesced"):
                assert cache[counter] == sum(s["cache"][counter] for s in shard_stats)
            assert stats["frontend"]["processes"] == 2
            assert stats["frontend"]["requests"] > 0
        finally:
            client.close()

    def test_shards_topology(self, cluster):
        client = Client(cluster.address)
        try:
            shards = client.call({"op": "shards"})["shards"]
            assert [s["shard"] for s in shards] == [0, 1]
            assert all(s["alive"] for s in shards)
            assert all(isinstance(s["pid"], int) for s in shards)
        finally:
            client.close()

    def test_health_reports_every_shard(self, cluster):
        client = Client(cluster.address)
        try:
            health = client.call({"op": "health"})["health"]
            assert health["status"] == "ok"
            assert [s["shard"] for s in health["shards"]] == [0, 1]
        finally:
            client.close()

    def test_drain_excludes_then_resume_restores(self, cluster):
        client = Client(cluster.address)
        try:
            drained = client.call({"op": "drain", "shard": 0})
            assert drained["shard"]["draining"] is True
            # Everything still answers while one shard is draining.
            for query in QUERIES[:3]:
                assert client.call({"op": "translate", "query": query})["ok"]
            resumed = client.call({"op": "drain", "shard": 0, "resume": True})
            assert resumed["shard"]["draining"] is False
            bad = client.call({"op": "drain", "shard": 99})
            assert bad["ok"] is False and bad["error"]["type"] == "bad-request"
        finally:
            client.close()

    def test_overlong_line_gets_one_error_and_the_connection_serves_on(self, cluster):
        client = Client(cluster.address)
        try:
            line = json.dumps({"op": "translate", "query": "x" * (17 * 1024 * 1024)})
            response = json.loads(client.call_raw(line))
            assert response["ok"] is False
            assert response["error"]["type"] == "bad-request"
            assert "MAX_LINE_BYTES" in response["error"]["message"]
            # The line's tail is discarded, not answered as a second line.
            assert client.call({"id": 1, "op": "ping"}) == {
                "id": 1, "op": "ping", "ok": True, "pong": True,
            }
        finally:
            client.close()

    def test_the_line_bound_is_exact(self, cluster):
        # The bound of every transport: MAX_LINE_BYTES, newline included.
        client = Client(cluster.address)
        try:
            line = ping_line(protocol.MAX_LINE_BYTES)
            assert json.loads(client.call_raw(line))["pong"] is True
            line = ping_line(protocol.MAX_LINE_BYTES + 1)
            assert json.loads(client.call_raw(line)) == protocol.LINE_TOO_LONG
        finally:
            client.close()

    def test_a_forward_past_the_bound_is_answered_not_sent(self, cluster):
        # U+4E2D is 3 bytes as the client sends it and 6 once the front-end
        # forwards it as a \uXXXX escape: under the bound, then past it.
        text = "\u4e2d" * (protocol.MAX_LINE_BYTES // 5)
        requests = [
            {"id": "q", "op": "translate", "query": text},
            {"id": "r", "op": "reload", "spec": {"name": "K_Amazon", "note": text}},
        ]
        client = Client(cluster.address)
        client.sock.settimeout(30.0)  # a forward the worker drops never returns
        try:
            responses = []
            for request in requests:
                line = json.dumps(request, ensure_ascii=False)
                assert len(line.encode("utf-8")) < protocol.MAX_LINE_BYTES
                responses.append(json.loads(client.call_raw(line)))
            too_long = protocol.LINE_TOO_LONG
            assert responses == [
                {"id": "q", "op": "translate", **too_long},
                {
                    "id": "r",
                    "op": "reload",
                    "ok": False,
                    "reload": [{"shard": 0, **too_long}, {"shard": 1, **too_long}],
                },
            ]
            # Nothing is left in flight or draining, and the client serves on.
            shards = client.call({"op": "shards"})["shards"]
            assert [(s["in_flight"], s["draining"]) for s in shards] == [(0, False)] * 2
            assert client.call({"id": 1, "op": "ping"})["pong"] is True
        finally:
            client.close()


class TestLeastLoadedRouting:
    def test_second_request_goes_to_the_idle_shard(self):
        with ClusterServer(cluster_config()) as cluster:
            busy = Client(cluster.address)
            other = Client(cluster.address)
            try:
                busy.handle.write(
                    json.dumps({"op": "batch", "queries": [QUERY] * 3000}) + "\n"
                )
                busy.handle.flush()
                deadline = time.monotonic() + 60.0
                while not any(
                    shard["in_flight"] == 1
                    for shard in other.call({"op": "shards"})["shards"]
                ):
                    assert time.monotonic() < deadline
                # The same query: a fingerprint router would queue it
                # behind the batch on the busy shard.
                assert other.call({"op": "translate", "query": QUERY})["ok"]
                assert json.loads(busy.handle.readline())["ok"]
                shards = other.call({"op": "shards"})["shards"]
                assert [shard["routed"] for shard in shards] == [1, 1]
            finally:
                busy.close()
                other.close()


class TestClusterResilience:
    def test_worker_death_degrades_gracefully(self):
        with ClusterServer(cluster_config()) as cluster:
            client = Client(cluster.address)
            try:
                for query in QUERIES[:4]:
                    assert client.call({"op": "translate", "query": query})["ok"]
                cluster.kill_shard(0)
                # Every query still answers on the surviving shard.
                for query in QUERIES[:4]:
                    response = client.call({"op": "translate", "query": query})
                    assert response["ok"], response
                health = client.call({"op": "health"})["health"]
                assert health["status"] == "degraded"
                stats = client.call({"op": "stats"})["stats"]
                assert stats["frontend"]["worker_deaths"] == 1
            finally:
                client.close()

    def test_large_batch_response_is_not_a_worker_death(self):
        # 400 Qbook-shaped translations answer ~450 KB on one line, far
        # past asyncio's default 64 KiB stream limit.
        queries = [
            f'(([ln = "Smith{i}"] and [fn = "John"]) or [kwd contains www{i}] '
            f"or [kwd contains web]) and [pyear = {1990 + i % 10}] and "
            f"([pmonth = {1 + i % 12}] or [pmonth = {1 + (i + 1) % 12}])"
            for i in range(400)
        ]
        with ClusterServer(cluster_config()) as cluster:
            client = Client(cluster.address)
            try:
                batch = client.call({"op": "batch", "queries": queries})
                assert batch["ok"] is True, batch.get("error")
                assert len(batch["results"]) == len(queries)
                follow_up = client.call({"op": "translate", "query": QUERY})
                assert follow_up["ok"] is True, follow_up
                stats = client.call({"op": "stats"})["stats"]
                assert stats["frontend"]["worker_deaths"] == 0
            finally:
                client.close()

    def test_rolling_restart_loses_nothing_and_restores_warm(self, tmp_path):
        config = cluster_config(snapshot_dir=str(tmp_path))
        with ClusterServer(config) as cluster:
            client = Client(cluster.address)
            try:
                expected = {}
                for i, query in enumerate(QUERIES[:4]):
                    line = json.dumps({"id": i, "op": "translate", "query": query})
                    expected[line] = client.call_raw(line)
                # Write snapshots, then restart each shard in turn.
                assert client.call({"op": "snapshot"})["ok"]
                for shard_id in (0, 1):
                    restarted = client.call({"op": "restart", "shard": shard_id})
                    assert restarted["ok"], restarted
                    assert restarted["restart"]["alive"] is True
                    assert restarted["restart"]["restarts"] == 1
                    # The replacement came up warm from the snapshot.
                    restored = restarted["restart"]["restored"]
                    assert restored is not None
                    assert restored["discarded_stale"] == 0
                # Bit-identical answers after the full rolling restart.
                for line, before in expected.items():
                    assert client.call_raw(line) == before
                assert client.call({"op": "health"})["health"]["status"] == "ok"
            finally:
                client.close()

    def test_cold_vs_warm_restart_restores_entries(self, tmp_path):
        config = cluster_config(snapshot_dir=str(tmp_path))
        with ClusterServer(config) as cluster:
            client = Client(cluster.address)
            try:
                for query in QUERIES[:4]:
                    client.call({"op": "translate", "query": query})
                reports = client.call({"op": "snapshot"})["snapshots"]
                exported = sum(r["snapshot"]["entries"] for r in reports if r.get("ok"))
                assert exported > 0
            finally:
                client.close()
        # A brand-new cluster over the same snapshot dir starts warm:
        # the same queries hit the restored entries instead of missing.
        with ClusterServer(config) as cluster:
            client = Client(cluster.address)
            try:
                for query in QUERIES[:4]:
                    assert client.call({"op": "translate", "query": query})["ok"]
                cache = client.call({"op": "stats"})["stats"]["cache"]
                assert cache["hits"] > 0
                assert cache["size"] >= exported > 0
            finally:
                client.close()

    def test_workers_serve_under_the_cluster_resilience_config(self):
        resilience = ResilienceConfig(
            retry=RetryPolicy(retries=1), fault_policies={"Amazon": FaultPolicy(fail=1)}
        )
        line = json.dumps({"id": 1, "op": "mediate", "query": QUERY})
        # Workers receive a pickled copy; the fault policy here stays unused
        # until the single-process service below calls it.
        with ClusterServer(cluster_config(resilience=resilience)) as cluster:
            client = Client(cluster.address)
            try:
                served = json.loads(client.call_raw(line))
            finally:
                client.close()
        service, _ = bootstrap_service(("K_Amazon",), ServiceConfig(), resilience=resilience)
        expected = json.loads(handle_line(service, line))
        (outcome,) = served["sources"]
        assert (outcome["status"], outcome["attempts"]) == ("retried", 2)
        for answer in (served, expected):
            for source in answer["sources"]:
                del source["elapsed_ms"]
        assert served == expected


#: Declarative K_Amazon variants for the hot-reload tests — the first
#: maps ``ln`` to ``author-word``, the second to plain ``author``; both
#: answer differently from the built-in spec for the queries above.
RELOAD_V1 = {
    "name": "K_Amazon",
    "target": "Amazon",
    "rules": [
        {
            "name": "V1",
            "match": [{"attr": "ln", "op": "=", "bind": "L"}],
            "where": [{"cond": "value_is", "vars": ["L"]}],
            "emit": {"attr": "author-word", "op": "=", "value": "$L"},
            "exact": True,
            "doc": "variant: ln -> author-word",
        },
        {
            "name": "V2",
            "match": [{"attr": "publisher", "op": "=", "bind": "N"}],
            "where": [{"cond": "value_is", "vars": ["N"]}],
            "emit": {"attr": "publisher", "op": "=", "value": "$N"},
            "exact": True,
            "doc": "variant: publisher rename",
        },
    ],
}

RELOAD_V2 = {
    "name": "K_Amazon",
    "target": "Amazon",
    "rules": [
        {
            "name": "V1",
            "match": [{"attr": "ln", "op": "=", "bind": "L"}],
            "where": [{"cond": "value_is", "vars": ["L"]}],
            "emit": {"attr": "author", "op": "=", "value": "$L"},
            "exact": True,
            "doc": "variant2: ln -> author",
        }
    ],
}


def reload_reference_lines(payload) -> dict[str, str]:
    """Single-process responses under one reloaded spec version."""
    from repro.rules.declarative import spec_from_dict

    service = MediationService(builtin_mediator({"K_Amazon"}), ServiceConfig())
    if payload is not None:
        service.reload_spec(spec_from_dict(payload))
    lines = {}
    for i, query in enumerate(QUERIES[:4]):
        line = json.dumps({"id": f"reload-{i}", "op": "translate", "query": query})
        lines[line] = handle_line(service, line)
    return lines


class TestClusterReload:
    def test_rolling_reload_swaps_every_shard_and_rollback_restores(self, tmp_path):
        from repro.registry import SpecRegistry

        registry = SpecRegistry(tmp_path)
        registry.publish(RELOAD_V1)
        builtin_ref = reload_reference_lines(None)
        v1_ref = reload_reference_lines(RELOAD_V1)
        v2_ref = reload_reference_lines(RELOAD_V2)

        with ClusterServer(cluster_config()) as cluster:
            client = Client(cluster.address)
            try:
                for line, expected in builtin_ref.items():
                    assert client.call_raw(line) == expected

                response = client.call({"op": "reload", "registry": str(tmp_path)})
                assert response["ok"] is True
                assert len(response["reload"]) == 2  # one report per shard
                for entry in response["reload"]:
                    assert entry["ok"] is True, entry
                    (report,) = entry["reload"]
                    assert report["changed"] is True
                    assert report["spec"] == "K_Amazon"

                # Every shard serves the published version, bit-identical
                # to a single-process service on the same spec.
                for line, expected in v1_ref.items():
                    assert client.call_raw(line) == expected

                registry.publish(RELOAD_V2)
                assert client.call({"op": "reload", "registry": str(tmp_path)})["ok"]
                for line, expected in v2_ref.items():
                    assert client.call_raw(line) == expected

                # Rollback and reload: prior answers return bit-identically.
                registry.rollback("K_Amazon")
                assert client.call({"op": "reload", "registry": str(tmp_path)})["ok"]
                for line, expected in v1_ref.items():
                    assert client.call_raw(line) == expected

                stats = client.call({"op": "stats"})["stats"]
                assert stats["reloads"] == 6  # 3 rolling reloads x 2 shards
            finally:
                client.close()

    def test_reload_under_concurrent_clients_loses_nothing(self, tmp_path):
        from repro.registry import SpecRegistry

        registry = SpecRegistry(tmp_path)
        registry.publish(RELOAD_V1)
        registry.publish(RELOAD_V2)
        allowed: dict[str, set[str]] = {}
        for ref in (
            reload_reference_lines(None),
            reload_reference_lines(RELOAD_V1),
            reload_reference_lines(RELOAD_V2),
        ):
            for line, response in ref.items():
                allowed.setdefault(line, set()).add(response)
        lines = sorted(allowed)

        with ClusterServer(cluster_config()) as cluster:
            failures: list[str] = []
            counts = [0] * 8

            def drive(slot: int) -> None:
                client = Client(cluster.address)
                try:
                    for i in range(12):
                        line = lines[(slot + i) % len(lines)]
                        got = client.call_raw(line)
                        if got not in allowed[line]:
                            failures.append(f"client {slot}: {got[:100]}")
                            return
                        counts[slot] += 1
                finally:
                    client.close()

            threads = [
                threading.Thread(target=drive, args=(slot,), daemon=True)
                for slot in range(8)
            ]
            for thread in threads:
                thread.start()

            admin = Client(cluster.address)
            try:
                for cycle in range(4):
                    registry.rollback("K_Amazon", to_version=1 + cycle % 2)
                    response = admin.call(
                        {"op": "reload", "registry": str(tmp_path)}
                    )
                    assert response["ok"] is True, response
            finally:
                admin.close()
                for thread in threads:
                    thread.join(timeout=120.0)

            assert failures == []
            assert counts == [12] * 8
