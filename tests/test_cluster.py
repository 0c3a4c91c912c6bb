"""repro.serve.cluster: consistent-hash routing and the sharded front-end.

The contracts under test, in increasing machinery:

* :class:`HashRing` — deterministic placement, minimal disruption when a
  shard leaves (only the departed shard's keys move), usable balance.
* The 2-process cluster answers every protocol op **bit-identically** to
  a single-process :func:`~repro.serve.handle_line` — same bytes for
  translate/mediate/batch/errors — under both sequential and 16-client
  concurrent load, with zero lost responses.
* Operational behavior: exact aggregated stats, graceful degradation
  when a worker is killed, rolling restart that loses nothing and comes
  back warm from the dead worker's snapshot.

Workers are real spawned processes, so these tests are the slowest in
the suite; they share one cluster per class where the ops are read-only.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
from collections import Counter

import pytest

from repro.obs.stats import builtin_mediator
from repro.serve import (
    ClusterConfig,
    ClusterServer,
    HashRing,
    MediationService,
    ServiceConfig,
    handle_line,
)

QUERY = '[ln = "Clancy"] and [fn = "Tom"]'
QUERIES = [
    QUERY,
    '[ln = "King"]',
    "[pyear = 1997] and [pmonth = 5]",
    '([ln = "Clancy"] or [ln = "Klancy"]) and [fn = "Tom"]',
    "this does not parse ((",
]


def fingerprints(n: int):
    return [hashlib.sha256(str(i).encode()).hexdigest() for i in range(n)]


class TestHashRing:
    def test_route_is_deterministic(self):
        a = HashRing(range(4))
        b = HashRing(range(4))
        for key in fingerprints(200):
            assert a.route(key) == b.route(key)

    def test_single_key_always_lands_on_one_shard(self):
        ring = HashRing(range(8))
        key = fingerprints(1)[0]
        assert len({ring.route(key) for _ in range(50)}) == 1

    def test_only_departed_shards_keys_move(self):
        ring = HashRing(range(4))
        keys = fingerprints(2000)
        full = {key: ring.route(key) for key in keys}
        down = 2
        survivors = {0, 1, 3}
        for key in keys:
            rerouted = ring.route(key, survivors)
            if full[key] != down:
                assert rerouted == full[key]  # untouched shards keep their keys
            else:
                assert rerouted in survivors

    def test_balance_within_bounds(self):
        ring = HashRing(range(4), replicas=64)
        counts = Counter(ring.route(key) for key in fingerprints(10_000))
        assert set(counts) == {0, 1, 2, 3}
        # Virtual nodes keep the spread coarse but serviceable.
        assert max(counts.values()) < 3 * min(counts.values())

    def test_preference_is_a_permutation(self):
        ring = HashRing(range(5))
        for key in fingerprints(50):
            order = list(ring.preference(key))
            assert sorted(order) == [0, 1, 2, 3, 4]
            assert order[0] == ring.route(key)

    def test_route_honors_routable_subset(self):
        ring = HashRing(range(4))
        key = fingerprints(1)[0]
        assert ring.route(key, {3}) == 3
        with pytest.raises(LookupError):
            ring.route(key, set())

    def test_non_hex_keys_still_route(self):
        ring = HashRing(range(3))
        for key in ("text:not a query ((", "op:'stats':None", ""):
            assert ring.route(key) in {0, 1, 2}

    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            HashRing([])


def cluster_config(**overrides) -> ClusterConfig:
    defaults = dict(
        spec_names=("K_Amazon",),
        processes=2,
        service=ServiceConfig(),
        snapshot_interval=0.0,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


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
            for counter in ("requests", "completed", "rejected", "coalesced"):
                assert stats[counter] == sum(s[counter] for s in shard_stats)
            cache = stats["cache"]
            assert cache["size"] == sum(s["cache"]["size"] for s in shard_stats)
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


class TestClusterResilience:
    def test_worker_death_degrades_gracefully(self):
        with ClusterServer(cluster_config()) as cluster:
            client = Client(cluster.address)
            try:
                for query in QUERIES[:4]:
                    assert client.call({"op": "translate", "query": query})["ok"]
                cluster.kill_shard(0)
                # Every fingerprint still answers via ring failover.
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
