"""End-to-end serving benchmark for ``repro serve``.

Usage, from the checkout root::

    python3 perfbench/run.py --workload translate_cold --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads in turn and ends with one JSON
object whose metric names carry the workload as a prefix.

One client process drives a live server over TCP/JSON-lines through 2
closed-loop connections.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the workload once untraced and once on a traced
server (:mod:`launch`) and reports the per-layer metrics.  Every input is
generated from ``--seed`` before timing starts (:mod:`gen`), and every
response is checked against an in-process reference after it ends
(:mod:`audit`).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it say what each number is and how many samples it rests on.
``perfbench/rationale.json`` records why each workload exists and which
layer each per-layer metric measures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import audit  # noqa: E402
import client  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from stats import ThinSample, median, percentile, ratio  # noqa: E402

#: With two or more CPUs, a single-process server runs on one and the
#: client on another, so neither steals the other's CPU and the two
#: server connection threads always share one core.  A cluster keeps every
#: CPU: its front-end and workers share them with the client by design.
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
#: Set-ups per end-to-end run: at least SETUPS, and more, up to MAX_SETUPS,
#: until they have taken SETUP_SECONDS together, so that a quick set-up is
#: timed more often; setup_s is their median.
SETUPS = 3
MAX_SETUPS = 9
SETUP_SECONDS = 2.5
#: Responses after which the server's peak RSS is read: a fixed amount of
#: work, because its memos grow with every request served, so read at the
#: end of the window a faster program would read as using more memory.
RSS_AFTER = 1000
#: Ids of set-up and admin requests, above any stream index.
ADMIN_ID = 900_000_000_000

RATIONALE = os.path.join(HERE, "rationale.json")


@dataclass(frozen=True)
class Workload:
    name: str
    op: str
    #: Requests generated per second of the window: many times the rate
    #: this commit serves, so a faster program does not run out of them.
    max_rps: int
    registry: bool = False
    processes: int = 1
    federation: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("translate_hot", "translate", 20000),
        Workload("translate_cold", "translate", 1500, registry=True),
        Workload("mediate_federation", "mediate", 5000, federation=True),
        Workload("translate_sharded", "translate", 1500, registry=True, processes=2),
    )
}


class BenchError(RuntimeError):
    """The benchmark could not produce a valid result."""


# -- inputs --------------------------------------------------------------------


class Inputs:
    """Everything generated from the seed, plus the reference to audit by."""

    def __init__(self, workload: Workload, seed: int, seconds: float, work: str):
        self.workload = workload
        length = math.ceil(seconds * workload.max_rps)
        self.work = work
        self.registry: str | None = None
        self.catalogs: str | None = None
        self.shape: dict = {}
        self.variants: list[list[str]] | None = None
        self.distinct_of: list[int] = []
        if workload.name == "translate_hot" or workload.federation:
            make = gen.federation_stream if workload.federation else gen.hot_stream
            self.variants, probe, stream = make(seed, length)
            queries = [q for _, q in stream]
            self.distinct_of = [k for k, _ in stream]
            self.shape.update(
                distinct_queries=len(self.variants), spellings=gen.SPELLINGS, zipf_s=gen.ZIPF_S
            )
        if workload.federation:
            cats = gen.catalogs(seed)
            self.catalogs = os.path.join(work, "catalogs.json")
            with open(self.catalogs, "w", encoding="utf-8") as handle:
                json.dump(cats, handle)
            self.shape.update(
                catalog_rows={"Amazon": len(cats["amazon"]), "Clbooks": len(cats["clbooks"])}
            )
        elif workload.registry:
            spec = gen.skos_spec(seed)
            queries, probe = gen.cold_stream(seed, length)
            self.registry = os.path.join(work, "registry")
            from repro.registry import SpecRegistry

            # The lint gate is not part of serving and costs seconds at
            # this size, so the publish skips it.
            SpecRegistry(self.registry).publish(spec, gate=False)
            self.shape.update(rules=len(spec["rules"]), concepts=gen.CONCEPTS)
        self.bodies = [audit.body(workload.op, q) for q in queries]
        self.queries = queries
        self.lines = [audit.request_line(i, b) for i, b in enumerate(self.bodies)]
        self.probe_body = audit.body(workload.op, probe[0])
        self.reference = audit.Reference(self.catalogs, self.registry)
        self._spellings = (
            [[audit.body(workload.op, q) for q in v] for v in self.variants]
            if self.variants
            else []
        )

    def spellings(self, index: int) -> list[str]:
        """Bodies of every commuted spelling of stream request ``index``."""
        return self._spellings[self.distinct_of[index]] if self._spellings else []

    def audit(self, window: client.Window) -> set[int]:
        # The servers are stopped by now, so the reference may use every CPU.
        os.sched_setaffinity(0, set(ALLOWED_CPUS))
        return set(
            audit.audit(
                self.reference,
                self.bodies,
                window.samples,
                self.spellings,
                processes=len(ALLOWED_CPUS),
            )
        )


# -- server lifecycle ----------------------------------------------------------


def server_argv(workload: Workload, inputs: Inputs, traced: bool, spans_out: str) -> list[str]:
    launcher = [sys.executable, os.path.join(HERE, "launch.py")]
    if workload.federation:
        argv = launcher + ["--mode", "federation", "--catalogs", inputs.catalogs]
        if traced:
            argv += ["--traced", "1", "--spans-out", spans_out]
        return argv
    serve = ["serve", "K_Amazon", "--tcp", "--port", "0"]
    if workload.processes > 1:
        serve += ["--processes", str(workload.processes)]
    if traced:
        return launcher + ["--mode", "cli", "--traced", "1", "--spans-out", spans_out, "--"] + serve
    return [sys.executable, "-m", "repro"] + serve


def server_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def server_cpus(workload: Workload) -> set[int] | None:
    if workload.processes > 1 or len(ALLOWED_CPUS) < 2:
        return None
    return {ALLOWED_CPUS[1]}


def client_cpus(workload: Workload) -> set[int]:
    return set(ALLOWED_CPUS) if server_cpus(workload) is None else {ALLOWED_CPUS[0]}


def drive(booted: Booted, inputs: Inputs, seconds: float, probe=None) -> client.Window:
    """The timed window; the client spins only on a CPU of its own."""
    spin = server_cpus(inputs.workload) is not None
    return client.closed_loop(booted.address, inputs.lines, seconds, spin, probe)


@dataclass
class Booted:
    server: client.ServerProcess
    address: tuple[str, int]
    setup_s: float
    reload_ms: float | None


def admin(address, request: dict) -> dict:
    conn = client.Connection(address)
    try:
        line = json.dumps({"id": ADMIN_ID, **request}).encode() + b"\n"
        reply = json.loads(conn.request(line))
    finally:
        conn.close()
    if not reply.get("ok"):
        raise BenchError(f"admin op {request.get('op')} failed: {reply}")
    return reply


def boot(workload: Workload, inputs: Inputs, traced: bool = False, tag: str = "") -> Booted:
    """Launch a server and time it up to its first correct workload response."""
    spans_out = os.path.join(inputs.work, f"spans{tag}.json")
    log = os.path.join(inputs.work, f"server{tag}.log")
    probe_id = ADMIN_ID + 1
    started = time.perf_counter()
    server = client.ServerProcess(
        server_argv(workload, inputs, traced, spans_out),
        cwd=ROOT,
        env=server_env(),
        log_path=log,
        cpus=server_cpus(workload),
    )
    try:
        address = server.wait_address()
        conn = client.Connection(address)
        try:
            reload_ms = None
            if inputs.registry is not None:
                line = json.dumps({"id": ADMIN_ID, "op": "reload", "registry": inputs.registry})
                t0 = time.perf_counter()
                reply = json.loads(conn.request(line.encode() + b"\n"))
                reload_ms = (time.perf_counter() - t0) * 1e3
                if not reply.get("ok"):
                    raise BenchError(f"reload failed: {reply}")
            response = conn.request(audit.request_line(probe_id, inputs.probe_body))
        finally:
            conn.close()
        setup_s = time.perf_counter() - started
        if not inputs.reference.matches(inputs.probe_body, probe_id, response):
            raise BenchError(f"set-up probe answered wrongly: {response[:500]!r}")
    except BaseException:
        server.stop()
        raise
    return Booted(server, address, setup_s, reload_ms)


# -- checks --------------------------------------------------------------------


def checks(inputs: Inputs, window: client.Window) -> tuple[list[str], dict]:
    """Input and semantic checks outside the window: (problems, shape facts)."""
    problems: list[str] = []
    sent = [s[0] for s in window.samples]
    facts: dict = {
        "max_response_bytes": max((len(s[4]) for s in window.samples if s[4]), default=0)
    }
    workload = inputs.workload
    if workload.name == "translate_hot":
        distinct = {fp for fp in audit.fingerprints([q for v in inputs.variants for q in v])}
        facts["distinct_fingerprints"] = len(distinct)
        if len(distinct) > 1024:
            problems.append(f"{len(distinct)} distinct fingerprints do not fit 1024 cache entries")
    elif workload.federation:
        firsts = [inputs.variants[k][0] for k in sorted({inputs.distinct_of[i] for i in sent})]
        facts["distinct_fingerprints"] = len(set(audit.fingerprints(firsts)))
        failed = audit.equivalence_failures(inputs.reference.mediator, firsts)
        facts["eq1_eq2_checked"] = len(firsts)
        if failed:
            problems.append(f"Eq. 1 != Eq. 2 on {len(failed)} queries, e.g. {failed[0]}")
    else:
        prints = audit.fingerprints([inputs.queries[i] for i in sent])
        facts["distinct_fingerprints"] = len(set(prints))
        if len(set(prints)) != len(prints):
            problems.append(f"{len(prints) - len(set(prints))} translate_cold requests repeat a fingerprint")
    return problems, facts


def latencies_ms(samples: list, failed: set[int]) -> list[float]:
    """Per-request latency; a failed request is slower than any limit."""
    return [
        float("inf") if index in failed else (received - sent) / 1e6
        for index, _c, sent, received, _r in samples
    ]


def throughput(window: client.Window, failed: set[int]) -> float:
    return ratio(len(window.samples) - len(failed), window.seconds)


# -- end-to-end run --------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_end_to_end(inputs: Inputs, seconds: float) -> dict:
    workload = inputs.workload
    setups: list[float] = []
    booted = None
    while len(setups) < SETUPS or (sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS):
        if booted is not None:
            booted.server.stop()
        booted = boot(workload, inputs, tag=f"-{len(setups)}")
        setups.append(booted.setup_s)
    rss: list[tuple[int, float]] = []

    def read_rss(done: int) -> None:
        rss.append((done, booted.server.peak_rss_mb()))

    try:
        window = drive(booted, inputs, seconds, (RSS_AFTER, read_rss))
        if not rss:  # the window ended first
            read_rss(len(window.samples))
        processes = len(booted.server.tree())
    finally:
        booted.server.stop()
    rss_at, rss_mb = rss[0]
    failed = inputs.audit(window)
    problems, facts = checks(inputs, window)
    rps = throughput(window, failed)
    lat = latencies_ms(window.samples, failed)
    attempted = len(lat)
    try:
        p50 = percentile(lat, 0.5)
        p99 = percentile(lat, 0.99)
    except ThinSample as exc:
        raise BenchError(f"{exc}; run longer") from None
    report = [
        f"throughput_rps = {rps:.4f} 1/s  "
        f"[{attempted - len(failed)} successful responses over {window.seconds:.3f} s]",
        f"p50_ms = {p50:.4f} ms  [n={attempted} samples]",
        f"p99_ms = {p99:.4f} ms  [n={attempted} samples, {attempted - math.ceil(0.99 * attempted)} beyond]",
        f"error_rate = {ratio(len(failed), attempted):.6f} ratio  [{len(failed)} failed of {attempted} attempted]",
        f"success_rate = {1 - ratio(len(failed), attempted):.6f} ratio  [n={attempted} attempted]",
        f"setup_s = {median(setups):.4f} s  [median of {len(setups)} set-ups: "
        + ", ".join(f"{s:.4f}" for s in setups) + "]",
        f"server_rss_mb = {rss_mb:.2f} MB  [VmHWM summed over {processes} server processes "
        f"after {rss_at} requests]",
    ]
    facts.update(samples={"p50_ms": attempted, "p99_ms": attempted, "setup_s": len(setups)})
    return {
        "report": report,
        "problems": problems,
        "facts": facts,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            "throughput_rps": metric(rps, "1/s"),
            "p50_ms": metric(p50, "ms"),
            "p99_ms": metric(p99, "ms"),
            "success_rate": metric(1 - ratio(len(failed), attempted), "ratio"),
            "setup_s": metric(median(setups), "s"),
            "server_rss_mb": metric(rss_mb, "MB"),
        },
    }


# -- traced run ------------------------------------------------------------------


def window_stats(address, workload: Workload) -> dict:
    out = {"stats": admin(address, {"op": "stats"})["stats"]}
    if workload.processes > 1:
        out["shards"] = admin(address, {"op": "shards"})["shards"]
    return out


def _delta(after: dict, before: dict, *keys: str) -> float:
    for key in keys[:-1]:
        after, before = after.get(key) or {}, before.get(key) or {}
    return (after.get(keys[-1]) or 0) - (before.get(keys[-1]) or 0)


def _worker_latency_total_ms(stats: dict) -> float:
    return sum(
        (shard.get("stats") or {}).get("latency_mean_ms", 0.0)
        * (shard.get("stats") or {}).get("completed", 0)
        for shard in stats.get("shards", [])
    )


def layer_metrics(
    inputs: Inputs,
    window: client.Window,
    failed: set[int],
    trace: dict,
    before: dict,
    after: dict,
    reload_ms: list[float],
    overhead: float,
) -> tuple[dict, dict]:
    """Per-layer metric values and their sample counts."""
    workload = inputs.workload
    records = [tuple(r) for r in trace["spans"]]
    requests = spans.per_request(records)
    client_of = {int(k): v for k, v in trace["client_ids"].items()}
    by_client = {v: k for k, v in client_of.items()}
    latency = {i: received - sent for i, _c, sent, received, _r in window.samples if i not in failed}
    ids = [by_client[i] for i in latency if i in by_client]
    counters = spans.sum_counters(trace["counters"].get(str(r), {}) for r in ids)
    nreq = len(ids)

    def per(name: str, field: int = 0, only: str | None = None) -> list[float]:
        out = []
        for r in ids:
            entry = requests.get(r, {})
            if only is not None and only not in entry:
                continue
            out.append(entry.get(name, (0, 0, 0))[field] / 1e3)
        return out

    def summed(names: tuple[str, ...]) -> list[float]:
        return [
            sum(requests.get(r, {}).get(n, (0, 0, 0))[0] for n in names) / 1e3 for r in ids
        ]

    values: dict[str, float] = {}
    samples: dict[str, int] = {}

    def put(name: str, series: list[float]) -> None:
        samples[name] = len(series)
        try:
            values[name] = percentile(series, 0.5)
        except ThinSample:
            pass  # reported as not measured, with its sample count

    def put_ratio(name: str, num: float, den: float, n: float | None = None) -> None:
        values[name] = ratio(num, den)
        samples[name] = int(den if n is None else n)

    put("server.transport_us", [
        (latency[client_of[r]] - requests.get(r, {}).get("line", (0,))[0]) / 1e3 for r in ids
    ])
    line_total = sum(requests.get(r, {}).get("line", (0, 0))[0] for r in ids)
    line_self = sum(requests.get(r, {}).get("line", (0, 0))[1] for r in ids)
    put_ratio("trace.residual_share", line_self, line_total, nreq)
    values["trace.overhead"] = overhead
    samples["trace.overhead"] = 2
    responses = [len(s[4]) for s in window.samples if s[4] is not None]
    put("protocol.response_bytes", [float(b) for b in responses])

    stats_b, stats_a = before["stats"], after["stats"]
    served = _delta(stats_a, stats_b, "requests")
    hits = _delta(stats_a, stats_b, "cache", "hits")
    misses = _delta(stats_a, stats_b, "cache", "misses")
    put_ratio("cache.hit_rate", hits, hits + misses)
    put_ratio("cache.evictions_per_req", _delta(stats_a, stats_b, "cache", "evictions"), served)
    put_ratio("service.coalesced_share", _delta(stats_a, stats_b, "coalesced"), served)

    if workload.processes == 1:
        put("protocol.decode_us", per("protocol.decode"))
        put("protocol.encode_us", summed(("protocol.encode", "protocol.render")))
        put("service.self_us", per("service", 1))
        put("parser.parse_us", per("parser.parse"))
        put("intern.intern_us", per("intern"))
        put("normalize.normalize_us", per("normalize"))
        put("fingerprint.fingerprint_us", per("fingerprint"))
        put("cache.lookup_us", per("cache.lookup", 1))
        put("tdqm.translate_us", per("tdqm.translate", only="tdqm.translate"))
        put("tdqm.psafe_us", per("tdqm.psafe", 1, only="tdqm.translate"))
        put("tdqm.ednf_us", per("tdqm.ednf", only="tdqm.translate"))
        put("tdqm.scm_us", per("tdqm.scm", only="tdqm.translate"))
        c = counters
        put_ratio("intern.hit_rate", c["perf.compile.intern.hits"],
                  c["perf.compile.intern.hits"] + c["perf.compile.intern.misses"])
        put_ratio("tdqm.cross_matchings_per_req", c["psafe.cross_matchings"], nreq)
        put_ratio("tdqm.disjunctivize_terms_per_req", c["tdqm.disjunctivize_terms"], nreq)
        put_ratio("compile.prematch_hit_rate", c["perf.compile.prematch.hits"],
                  c["perf.compile.prematch.hits"] + c["perf.compile.prematch.misses"])
        put_ratio("compile.closure_memo_hit_rate", c["perf.compile.memo_hits"],
                  c["perf.compile.memo_hits"] + c["perfbench.closure_memo.misses"])
        put_ratio("index.candidates_per_probe", c["perf.index.candidates"], c["perf.index.probes"])
        put_ratio("index.useful_share", c["perf.compile.matchings"], c["perf.index.candidates"])
        precompile = [r for r in records if r[3] == "compile.precompile"]
        values["reload.precompile_ms"] = sum(r[5] - r[4] for r in precompile) / 1e6
        samples["reload.precompile_ms"] = len(precompile)
        if workload.federation:
            put("filters.build_filter_us", per("filters.build_filter", 1))
            put("engine.source_us", per("engine.source"))
            put("mediator.postfilter_us", per("mediator.answer", 1))
            put_ratio("filters.residue_conjuncts_per_req", c["filter.residue_conjuncts"], nreq)
            put_ratio("engine.rows_scanned_per_req", c["source.rows_scanned"], nreq)
            put_ratio("engine.emit_share", c["source.rows_emitted"], c["source.rows_scanned"])
            put_ratio("mediator.survivor_share", c["mediator.filter_survivors"],
                      c["mediator.filter_candidates"])
    else:
        put("cluster.frontend_us", summed(("cluster.decode", "cluster.fingerprint", "cluster.encode")))
        completed = _delta(stats_a, stats_b, "completed")
        worker_ms = _worker_latency_total_ms(stats_a) - _worker_latency_total_ms(stats_b)
        client_us = ratio(sum(latency.values()), len(latency)) / 1e3
        values["cluster.hop_us"] = client_us - ratio(worker_ms, completed) * 1e3
        samples["cluster.hop_us"] = len(latency)
        routed = [
            a["routed"] - b["routed"] for a, b in zip(after["shards"], before["shards"])
        ]
        put_ratio("cluster.shard_imbalance", max(routed), sum(routed) / len(routed), sum(routed))
        values["cluster.failovers"] = float(_delta(stats_a, stats_b, "frontend", "failovers"))
        samples["cluster.failovers"] = int(served)
    if inputs.registry is not None:
        values["reload.reload_ms"] = median(reload_ms)
        samples["reload.reload_ms"] = len(reload_ms)
    return values, samples


def run_traced(inputs: Inputs, seconds: float) -> dict:
    workload = inputs.workload
    plain = boot(workload, inputs, tag="-plain")
    try:
        untraced = drive(plain, inputs, seconds)
    finally:
        plain.server.stop()
    traced = boot(workload, inputs, traced=True, tag="-traced")
    try:
        before = window_stats(traced.address, workload)
        window = drive(traced, inputs, seconds)
        after = window_stats(traced.address, workload)
    finally:
        code = traced.server.stop()
    if code != 0:
        raise BenchError(f"traced server exited with {code}; see {traced.server.log_path}")
    with open(os.path.join(inputs.work, "spans-traced.json"), encoding="utf-8") as handle:
        trace = json.load(handle)
    failed_plain = inputs.audit(untraced)
    failed = inputs.audit(window)
    problems, facts = checks(inputs, window)
    overhead = ratio(throughput(window, failed), throughput(untraced, failed_plain))
    reloads = [ms for ms in (plain.reload_ms, traced.reload_ms) if ms is not None]
    values, samples = layer_metrics(
        inputs, window, failed, trace, before, after, reloads, overhead
    )
    with open(RATIONALE, encoding="utf-8") as handle:
        rationale = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        units = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    report, metrics, notes = [], {}, []
    for name, info in rationale["per_layer"].items():
        unit = units[name]
        if workload.name not in info["applies"]:
            reason = why_not(rationale["why_not"], workload, name)
        elif name not in values:
            reason = f"only {samples.get(name, 0)} samples; a median needs 10 beyond it"
        else:
            report.append(f"{name} = {values[name]:.6g} {unit}  [n={samples[name]}; {info['measured_by']}]")
            metrics[name] = metric(values[name], unit)
            continue
        notes.append(f"{name}: not measured on {workload.name}: {reason}")
        metrics[name] = metric(0.0, unit)
    if trace.get("missing"):
        notes.append("wrappers not installed (attribute gone): " + ", ".join(trace["missing"]))
    return {
        "report": report + [f"n/a {note}" for note in notes],
        "problems": problems,
        "facts": facts,
        "attempted": len(untraced.samples) + len(window.samples),
        "failed": len(failed_plain) + len(failed),
        "metrics": metrics,
    }


def why_not(reasons: dict, workload: Workload, name: str) -> str:
    if name.startswith("cluster."):
        return reasons["single_process"]
    if name.startswith("reload.reload"):
        return reasons["no_reload"]
    if name.split(".")[0] in ("filters", "engine", "mediator"):
        return reasons["translate_*"]
    return reasons["translate_sharded"]


# -- entry point -----------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, print its report, and return its result object."""
    os.sched_setaffinity(0, client_cpus(workload))
    work = os.path.join(ROOT, ".perfbench_work", f"{workload.name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        inputs = Inputs(workload, seed, seconds, work)
        result = (run_traced if trace else run_end_to_end)(inputs, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's directory is still there
    shape = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "connections": client.CONNECTIONS,
        "loop": "closed",
        "server_processes": workload.processes,
        "requests_generated": len(inputs.lines),
        **inputs.shape,
        **result["facts"],
    }
    print("shape " + json.dumps(shape, sort_keys=True))
    for line in result["report"]:
        print(line)
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    return {
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A shell starts background jobs with SIGINT ignored, and servers would
    # inherit that; with a handler here they start with the default and
    # stop on the SIGINT that makes a traced server write its spans.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    client.adopt_orphans()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
            if len(names) > 1:
                print(f"result {name} " + json.dumps(results[name]))
    except (BenchError, client.ServerError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        client.reap_children()
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
