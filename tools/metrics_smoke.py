#!/usr/bin/env python
"""CI smoke check for telemetry and the line protocol on a *real* server process.

Starts ``repro serve --tcp --metrics --snapshot-dir DIR`` as a
subprocess (ephemeral port), drives a few requests over TCP, then
exercises the admin ops the way an operator would:

* ``health`` — must answer ``status: ok`` with the exact request count;
* ``slowlog`` — must rank the issued fingerprints;
* ``metrics`` (JSON) — counters/histograms must carry the exact totals;
* ``metrics`` (``format: prometheus``) — the text must parse cleanly
  with :func:`repro.obs.export.parse_prometheus` and reproduce the same
  numbers;
* ``snapshot`` — must write the translations served so far;
* a request line past ``MAX_LINE_BYTES`` — must get the ``bad-request``
  that names the bound, after which the same connection still answers
  ``ping``.

Exits non-zero with a diagnostic on any mismatch.  Run from the repo
root::

    PYTHONPATH=src python tools/metrics_smoke.py
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs.export import parse_prometheus  # noqa: E402
from repro.serve.protocol import MAX_LINE_BYTES  # noqa: E402

QUERIES = [
    '[ln = "Clancy"] and [fn = "Tom"]',
    "[pyear = 1997] and [pmonth = 5]",
    '[ln = "Smith"]',
]


def fail(message: str) -> None:
    print(f"metrics-smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def main() -> int:
    with tempfile.TemporaryDirectory() as snapshot_dir:
        return smoke(snapshot_dir)


def smoke(snapshot_dir: str) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "K_Amazon",
            "--tcp", "--port", "0", "--metrics", "--snapshot-dir", snapshot_dir,
        ],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO,
    )
    try:
        banner = proc.stderr.readline().strip()
        if " on " not in banner:
            fail(f"unexpected serve banner: {banner!r}")
        address = banner.split(" on ")[1].split(" ")[0]
        host, _, port = address.rpartition(":")
        print(f"metrics-smoke: server up at {address} ({banner})")

        with socket.create_connection((host, int(port)), timeout=10.0) as conn:
            handle = conn.makefile("rw", encoding="utf-8")

            def ask(request: dict) -> dict:
                handle.write(json.dumps(request) + "\n")
                handle.flush()
                return json.loads(handle.readline())

            for query in QUERIES:
                response = ask({"op": "translate", "query": query})
                if not response.get("ok"):
                    fail(f"translate failed: {response}")
            response = ask({"op": "mediate", "query": QUERIES[0]})
            if not response.get("ok"):
                fail(f"mediate failed: {response}")
            total = len(QUERIES) + 1

            health = ask({"op": "health"})
            if not health.get("ok") or health["health"]["status"] != "ok":
                fail(f"health not ok: {health}")
            if health["health"]["requests"] != total:
                fail(f"health.requests != {total}: {health['health']}")

            slowlog = ask({"op": "slowlog", "n": 10})
            if not slowlog.get("ok"):
                fail(f"slowlog failed: {slowlog}")
            if sum(e["count"] for e in slowlog["slowlog"]) != total:
                fail(f"slowlog counts != {total}: {slowlog['slowlog']}")

            metrics = ask({"op": "metrics"})
            if not metrics.get("ok"):
                fail(f"metrics failed: {metrics}")
            snapshot = metrics["metrics"]
            if snapshot["counters"]["serve.requests"]["total"] != total:
                fail(f"serve.requests != {total}: {snapshot['counters']}")
            histogram = snapshot["histograms"]["serve.request.latency"]
            if histogram["count"] != total:
                fail(f"latency histogram count != {total}: {histogram}")
            if not histogram["p50"] <= histogram["p95"] <= histogram["p99"]:
                fail(f"percentiles not monotone: {histogram}")

            prometheus = ask({"op": "metrics", "format": "prometheus"})
            if not prometheus.get("ok"):
                fail(f"prometheus metrics failed: {prometheus}")
            try:
                samples = parse_prometheus(prometheus["text"])
            except ValueError as exc:
                fail(f"malformed Prometheus exposition: {exc}")
            if samples[("repro_serve_requests_total", ())] != total:
                fail("Prometheus serve.requests total mismatch")
            if samples[("repro_serve_request_latency_seconds_count", ())] != total:
                fail("Prometheus latency histogram count mismatch")
            source_keys = [k for k in samples if k[0] == "repro_source_calls_total"]
            if not source_keys:
                fail("no per-source scorecard series in Prometheus output")

            snapshot = ask({"op": "snapshot"})
            if not snapshot.get("ok") or snapshot["snapshot"]["entries"] < 1:
                fail(f"snapshot wrote no entry: {snapshot}")
            overlong = ask({"op": "translate", "query": "x" * MAX_LINE_BYTES})
            error = overlong.get("error") or {}
            if error.get("type") != "bad-request" or "MAX_LINE_BYTES" not in error.get(
                "message", ""
            ):
                fail(f"overlong line not refused at the bound: {overlong}")
            if ask({"op": "ping"}).get("pong") is not True:
                fail("no ping answer after the overlong line")

        print(
            f"metrics-smoke: OK ({total} requests; "
            f"{len(samples)} Prometheus samples; "
            f"{len(source_keys)} source(s) on scorecards; "
            f"{snapshot['snapshot']['entries']} snapshot entries; "
            "overlong line refused, connection kept)"
        )
        return 0
    finally:
        proc.terminate()
        proc.wait(timeout=10.0)


if __name__ == "__main__":
    raise SystemExit(main())
