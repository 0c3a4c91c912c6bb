"""End-to-end tests for ``repro serve``: stdin JSON-lines and TCP."""

from __future__ import annotations

import io
import json
import socket
import threading

import pytest

from repro.cli import main

REQUEST = {"id": 1, "op": "translate", "query": '[ln = "Clancy"] and [fn = "Tom"]'}


def run_serve(monkeypatch, capsys, argv: list[str], lines: list[str]):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code = main(argv)
    captured = capsys.readouterr()
    return code, [json.loads(line) for line in captured.out.splitlines()], captured.err


class TestServeStdin:
    def test_one_shot_round_trip(self, monkeypatch, capsys):
        code, responses, _ = run_serve(
            monkeypatch, capsys, ["serve", "K_Amazon"], [json.dumps(REQUEST)]
        )
        assert code == 0
        assert len(responses) == 1
        response = responses[0]
        assert response["ok"] is True and response["id"] == 1
        assert "Clancy, Tom" in response["mappings"]["Amazon"]["text"]

    def test_pipelined_session_with_verbose_stats(self, monkeypatch, capsys):
        requests = [
            json.dumps({"id": i, "op": "translate", "query": REQUEST["query"]})
            for i in range(4)
        ] + [json.dumps({"id": "s", "op": "stats"}), "# trailing comment", ""]
        code, responses, err = run_serve(
            monkeypatch,
            capsys,
            ["serve", "K_Amazon", "--workers", "4", "-v"],
            requests,
        )
        assert code == 0
        assert sorted(str(r["id"]) for r in responses) == ["0", "1", "2", "3", "s"]
        assert all(r["ok"] for r in responses)
        assert "handled 5 request(s)" in err
        assert "service: " in err

    def test_bad_line_answers_instead_of_crashing(self, monkeypatch, capsys):
        code, responses, _ = run_serve(
            monkeypatch, capsys, ["serve", "K_Amazon"], ["{not json"]
        )
        assert code == 0
        assert responses[0]["ok"] is False
        assert responses[0]["error"]["type"] == "bad-json"

    def test_unknown_scenario_exits(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit, match="does not name a built-in"):
            main(["serve", "K_Bogus"])

    def test_bad_config_exits(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit, match="max_concurrency"):
            main(["serve", "K_Amazon", "--max-concurrency", "0"])


class TestServeTcpSmoke:
    def test_tcp_smoke_via_api(self):
        """The CLI's TCP path minus serve_forever: bind, serve, round-trip."""
        from repro.obs.stats import builtin_mediator
        from repro.serve import MediationService, serve_tcp

        service = MediationService(builtin_mediator({"K_Amazon"}))
        server = serve_tcp(service, port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection((host, port), timeout=10.0) as conn:
                handle = conn.makefile("rw", encoding="utf-8")
                handle.write(json.dumps(REQUEST) + "\n")
                handle.flush()
                response = json.loads(handle.readline())
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)
        assert response["ok"] is True and response["id"] == 1
        assert response["mappings"]["Amazon"]["exact"] is True

class TestServeClusterFlags:
    def test_processes_without_tcp_exits(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit, match="needs --tcp"):
            main(["serve", "K_Amazon", "--processes", "2"])

    def test_unknown_scenario_exits_before_forking(self, monkeypatch):
        from repro.serve.cluster import ClusterServer

        def spawn(self, shard):
            raise AssertionError("spawned a worker for an unknown scenario")

        monkeypatch.setattr(ClusterServer, "_spawn_worker", spawn)
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit, match=r"serve: \['K_Bogus'\] does not name a built-in"):
            main(["serve", "K_Bogus", "--tcp", "--processes", "2"])

    def test_zero_processes_exits(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit, match="--processes must be"):
            main(["serve", "K_Amazon", "--tcp", "--processes", "0"])

    def test_negative_snapshot_interval_exits(self, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit, match="interval"):
            main(
                [
                    "serve",
                    "K_Amazon",
                    "--snapshot-dir",
                    str(tmp_path),
                    "--snapshot-interval",
                    "-1",
                ]
            )

    def test_bad_fault_spec_exits_before_forking(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit, match="bad --fault"):
            main(
                [
                    "serve",
                    "K_Amazon",
                    "--tcp",
                    "--processes",
                    "2",
                    "--fault",
                    "nonsense",
                ]
            )


class TestServeSnapshotStdin:
    def test_snapshot_dir_persists_and_restores(self, monkeypatch, capsys, tmp_path):
        line = json.dumps(REQUEST)
        code, responses, _ = run_serve(
            monkeypatch,
            capsys,
            ["serve", "K_Amazon", "--snapshot-dir", str(tmp_path)],
            [line],
        )
        assert code == 0 and responses[0]["ok"]
        snapshot_file = tmp_path / "shard-0.json"
        assert snapshot_file.exists()
        payload = json.loads(snapshot_file.read_text(encoding="utf-8"))
        assert payload["kind"] == "repro.serve.cache-snapshot"
        assert sum(
            len(s["entries"]) for s in payload["specs"].values()
        ) > 0

        # Second run restores the entry: the translate is a cache hit.
        code, responses, err = run_serve(
            monkeypatch,
            capsys,
            ["serve", "K_Amazon", "--snapshot-dir", str(tmp_path), "-v"],
            [line, json.dumps({"id": 2, "op": "stats"})],
        )
        assert code == 0
        stats = next(r for r in responses if r["id"] == 2)["stats"]
        assert stats["cache"]["hits"] >= 1
