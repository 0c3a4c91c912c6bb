#!/usr/bin/env python
"""CI smoke check for the sharded cluster on a *real* server process.

Starts ``repro serve --processes 2 --tcp --metrics`` as a subprocess
(ephemeral port, snapshot dir in a tempdir), then exercises the cluster
the way an operator would:

* protocol ops — ``ping``/``translate``/``mediate`` answer over TCP and
  the aggregated ``stats``/``metrics`` carry the exact request totals;
* ``shards`` — both workers report alive with real pids;
* worker death — ``SIGKILL`` one worker by pid; every query must still
  answer on the surviving worker, ``health`` must degrade (not fail),
  and the front-end must account the death;
* rolling recovery — ``restart`` the dead shard; it must come back warm
  from its snapshot and ``health`` must return to ``ok``;
* hot reload — ``repro registry publish`` a spec variant, ``reload``
  it into the running cluster (no restart), observe the answers change;
  ``repro registry rollback`` + ``reload`` must restore the prior
  answers bit-identically;
* shutdown — ``SIGINT`` must stop the front-end cleanly (exit code 0)
  and leave no orphaned worker processes behind.

Exits non-zero with a diagnostic on any mismatch.  Run from the repo
root::

    PYTHONPATH=src python tools/cluster_smoke.py
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent

QUERIES = [
    '[ln = "Clancy"] and [fn = "Tom"]',
    "[pyear = 1997] and [pmonth = 5]",
    '[ln = "Smith"]',
    '([ln = "King"] or [ln = "Koontz"]) and [pyear = 1996]',
]

#: The hot-reload probe and two K_Amazon variants that answer it
#: differently (``author-word`` vs plain ``author``).
RELOAD_QUERY = '[ln = "Clancy"]'

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
            "doc": "smoke variant: ln -> author-word",
        }
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
            "doc": "smoke variant: ln -> author",
        }
    ],
}


def fail(message: str) -> None:
    print(f"cluster-smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def wait_until(predicate, timeout: float = 15.0, what: str = "condition") -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    fail(f"timed out after {timeout}s waiting for {what}")


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory(prefix="cluster-smoke-") as snapshot_dir:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "K_Amazon",
                "--tcp", "--port", "0", "--processes", "2", "--metrics",
                "--snapshot-dir", snapshot_dir,
            ],
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=REPO,
        )
        try:
            banner = proc.stderr.readline().strip()
            if " on " not in banner or "2 worker processes" not in banner:
                fail(f"unexpected serve banner: {banner!r}")
            address = banner.split(" on ")[1].split(" ")[0]
            host, _, port = address.rpartition(":")
            print(f"cluster-smoke: cluster up at {address} ({banner})")

            with socket.create_connection((host, int(port)), timeout=15.0) as conn:
                handle = conn.makefile("rw", encoding="utf-8")

                def ask(request: dict) -> dict:
                    handle.write(json.dumps(request) + "\n")
                    handle.flush()
                    line = handle.readline()
                    if not line:
                        fail(f"connection dropped answering {request}")
                    return json.loads(line)

                if ask({"op": "ping"}).get("pong") is not True:
                    fail("ping did not pong")
                for query in QUERIES:
                    response = ask({"op": "translate", "query": query})
                    if not response.get("ok"):
                        fail(f"translate failed: {response}")
                response = ask({"op": "mediate", "query": QUERIES[0]})
                if not response.get("ok"):
                    fail(f"mediate failed: {response}")
                total = len(QUERIES) + 1

                # Exact aggregated accounting across both shards.
                stats = ask({"op": "stats"})["stats"]
                if stats["frontend"]["processes"] != 2:
                    fail(f"frontend.processes != 2: {stats['frontend']}")
                if stats["requests"] != total:
                    fail(f"aggregated requests != {total}: {stats['requests']}")
                shard_requests = [
                    entry["stats"]["requests"]
                    for entry in stats["shards"]
                    if "stats" in entry
                ]
                if len(shard_requests) != 2 or sum(shard_requests) != total:
                    fail(f"per-shard requests do not sum to {total}: {shard_requests}")

                metrics = ask({"op": "metrics"})
                if not metrics.get("ok"):
                    fail(f"metrics failed: {metrics}")
                counters = metrics["metrics"]["aggregated"]["counters"]
                if counters.get("serve.requests") != total:
                    fail(f"aggregated serve.requests != {total}: {counters}")

                shards = ask({"op": "shards"})["shards"]
                if [s["shard"] for s in shards] != [0, 1]:
                    fail(f"unexpected topology: {shards}")
                if not all(s["alive"] for s in shards):
                    fail(f"not all shards alive at start: {shards}")
                pids = {s["shard"]: s["pid"] for s in shards}

                # Persist the warm cache, then kill one worker outright.
                snapshot = ask({"op": "snapshot"})
                if not snapshot.get("ok"):
                    fail(f"snapshot failed: {snapshot}")
                victim = 0
                os.kill(pids[victim], signal.SIGKILL)
                # The pid lingers as a zombie until the front-end reaps
                # it, so wait for the cluster's own view of the death.
                wait_until(
                    lambda: not next(
                        s for s in ask({"op": "shards"})["shards"]
                        if s["shard"] == victim
                    )["alive"],
                    what=f"front-end to notice worker {pids[victim]} died",
                )

                # Graceful degradation: every query still answers, health
                # says degraded, and the death is accounted.
                for query in QUERIES:
                    response = ask({"op": "translate", "query": query})
                    if not response.get("ok"):
                        fail(f"translate failed after worker death: {response}")
                wait_until(
                    lambda: ask({"op": "health"})["health"]["status"] == "degraded",
                    what="health to report degraded",
                )
                stats = ask({"op": "stats"})["stats"]
                if stats["frontend"]["worker_deaths"] != 1:
                    fail(f"worker_deaths != 1: {stats['frontend']}")
                print(
                    f"cluster-smoke: worker {pids[victim]} killed; "
                    "cluster degraded but serving"
                )

                # Rolling recovery: the replacement restores its snapshot.
                restarted = ask({"op": "restart", "shard": victim})
                if not restarted.get("ok") or not restarted["restart"]["alive"]:
                    fail(f"restart failed: {restarted}")
                restored = restarted["restart"]["restored"]
                if not restored or restored.get("restored", 0) <= 0:
                    fail(f"replacement did not restore warm: {restarted}")
                if ask({"op": "health"})["health"]["status"] != "ok":
                    fail("health did not return to ok after restart")
                for query in QUERIES:
                    if not ask({"op": "translate", "query": query}).get("ok"):
                        fail(f"translate failed after restart: {query}")
                print(
                    f"cluster-smoke: shard {victim} restarted warm "
                    f"({restored['restored']} cached translations restored)"
                )

                # Hot reload through the registry lifecycle: publish a
                # variant, reload the live cluster, verify the answers
                # change with zero restarts, then rollback + reload and
                # verify the prior answers return bit-identically.
                registry_dir = pathlib.Path(snapshot_dir) / "registry"

                def registry_cli(*argv: str) -> None:
                    command = [
                        sys.executable, "-m", "repro", "registry", *argv,
                    ]
                    done = subprocess.run(
                        command, env=env, cwd=REPO, capture_output=True, text=True
                    )
                    if done.returncode != 0:
                        fail(f"{' '.join(argv)} exited {done.returncode}: "
                             f"{done.stderr.strip()}")

                def canonical_translate() -> str:
                    response = ask({"op": "translate", "query": RELOAD_QUERY})
                    if not response.get("ok"):
                        fail(f"translate failed during reload check: {response}")
                    return json.dumps(response, sort_keys=True)

                pids_before_reload = {
                    s["shard"]: s["pid"] for s in ask({"op": "shards"})["shards"]
                }
                v1_file = pathlib.Path(snapshot_dir) / "v1.json"
                v2_file = pathlib.Path(snapshot_dir) / "v2.json"
                v1_file.write_text(json.dumps(RELOAD_V1), encoding="utf-8")
                v2_file.write_text(json.dumps(RELOAD_V2), encoding="utf-8")

                registry_cli("publish", str(registry_dir), "-f", str(v1_file))
                reloaded = ask({"op": "reload", "registry": str(registry_dir)})
                if not reloaded.get("ok"):
                    fail(f"reload failed: {reloaded}")
                if len(reloaded["reload"]) != 2 or not all(
                    entry.get("ok") for entry in reloaded["reload"]
                ):
                    fail(f"not every shard reloaded: {reloaded}")
                v1_answer = canonical_translate()
                if "author-word" not in v1_answer:
                    fail(f"published spec not serving: {v1_answer}")

                registry_cli("publish", str(registry_dir), "-f", str(v2_file))
                if not ask({"op": "reload", "registry": str(registry_dir)}).get("ok"):
                    fail("second reload failed")
                v2_answer = canonical_translate()
                if v2_answer == v1_answer or "author-word" in v2_answer:
                    fail(f"second publish not serving: {v2_answer}")

                registry_cli("rollback", str(registry_dir), "K_Amazon")
                if not ask({"op": "reload", "registry": str(registry_dir)}).get("ok"):
                    fail("post-rollback reload failed")
                if canonical_translate() != v1_answer:
                    fail("rollback + reload did not restore the prior answers")

                pids_after_reload = {
                    s["shard"]: s["pid"] for s in ask({"op": "shards"})["shards"]
                }
                if pids_after_reload != pids_before_reload:
                    fail(
                        "reload restarted workers: "
                        f"{pids_before_reload} -> {pids_after_reload}"
                    )
                print(
                    "cluster-smoke: hot reload OK "
                    "(publish -> new answers, rollback -> prior answers, "
                    "same worker pids)"
                )

                shards = ask({"op": "shards"})["shards"]
                worker_pids = [s["pid"] for s in shards]

            # Operator shutdown: SIGINT stops the front-end cleanly and
            # reaps every worker (no orphans surviving the parent).
            proc.send_signal(signal.SIGINT)
            code = proc.wait(timeout=30.0)
            if code != 0:
                fail(f"serve exited {code} on SIGINT")
            wait_until(
                lambda: not any(pid_alive(pid) for pid in worker_pids),
                what="workers to exit with the front-end",
            )
        finally:
            if proc.poll() is None:
                proc.terminate()
                proc.wait(timeout=10.0)

    print(
        f"cluster-smoke: OK (2 shards, {total} initial requests, "
        "worker death + warm restart + hot reload/rollback + clean shutdown)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
