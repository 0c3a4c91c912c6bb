"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``translate``
    Translate a query for a target specification::

        python -m repro translate K_Amazon '[ln = "Clancy"] and [fn = "Tom"]'

``explain``
    Narrate the whole TDQM run (cases, partitions, matchings)::

        python -m repro explain K_Amazon '([ln = "a"] or [ln = "b"]) and [fn = "c"]'

``filter``
    Show per-source mappings plus the residue filter F (Eq. 2/3)::

        python -m repro filter K1,K2 '[fac.dept = cs]'

``stats``
    Run the fully-traced pipeline (translate, filter, execute when the
    specs name a built-in scenario) and emit the span tree + counter set::

        python -m repro stats K_Amazon '[ln = "Clancy"] and [fn = "Tom"]' --json

    Resilience flags (``--timeout/--retries/--backoff/--strict``, plus
    ``--fault NAME=SPEC`` for deterministic fault injection) run the
    mediated execution through fault-tolerant source adapters and add a
    per-source outcome section to the report; see
    ``docs/fault_tolerance.md``.

``sources``
    Health-check the built-in simulated sources through the resilience
    layer (retry/breaker semantics apply) and list row counts::

        python -m repro sources
        python -m repro sources --fault 'Amazon=fail:3' --retries 1 --json

``batch``
    Translate many queries for many specifications in one pass, sharing
    normalization, compiled rule indexes, and the translation cache::

        python -m repro batch K_Amazon,K_map '[ln = "Clancy"]' '[subject = "war"]'
        python -m repro batch K_Amazon --queries-file queries.txt --json

``serve``
    Run the concurrent mediation service (``repro.serve``) over one of
    the built-in scenarios, speaking JSON-lines on stdin/stdout (the
    default) or TCP (``--tcp``)::

        echo '{"op": "translate", "query": "[ln = \\"Clancy\\"]"}' \\
            | python -m repro serve K_Amazon
        python -m repro serve K_Amazon --tcp --port 7654

    Admission control (``--max-concurrency``/``--queue-depth``),
    pipelined stdin handling (``--workers``), and the resilience flags
    all apply; ``--metrics`` turns on continuous telemetry (the
    ``metrics``/``sources``/``slowlog``/``health`` admin ops); see
    ``docs/serving.md`` for the protocol and tuning.

``top``
    Snapshot a running ``serve --tcp`` instance: health, throughput,
    per-source scorecards, and the slow-query log::

        python -m repro top 127.0.0.1:7654
        python -m repro top --json

``specs``
    List the built-in mapping specifications and their rules.

``audit``
    Report which of a query's constraints no rule can touch::

        python -m repro audit K_Amazon '[ln = "x"] and [shoe-size = 9]'

``lint``
    Statically analyze mapping specifications (vocablint)::

        python -m repro lint all
        python -m repro lint K_Amazon,K_map --severity info
        python -m repro lint shop -f spec.json --vocab vocab.json --json

    Exit code 0 when clean, 1 when any diagnostic reaches the
    ``--fail-on`` severity (default ``error``); see
    ``docs/static_analysis.md`` for the VM0xx catalog.

Every command additionally accepts ``--trace`` (print the span tree to
stderr) and ``--stats`` (print the aggregate counters to stderr); see
``docs/observability.md`` for the counter glossary.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from repro.core.errors import SpecificationError, VocabMapError
from repro.core.explain import explain_translation
from repro.core.filters import build_filter
from repro.core.json_io import query_to_json
from repro.core.parser import parse_query
from repro.core.printer import to_text
from repro.core.tdqm import tdqm_translate
from repro.obs import counters_table, current_tracer, render_span, tracing
from repro.rules import audit_vocabulary, builtin_specifications

__all__ = ["main", "build_arg_parser"]


def _spec(name: str, spec_file: str | None = None):
    if spec_file is not None:
        from repro.rules.declarative import spec_from_dict

        with open(spec_file) as handle:
            data = json.load(handle)
        if isinstance(data, list):
            loaded = {entry["name"]: spec_from_dict(entry) for entry in data}
        else:
            spec = spec_from_dict(data)
            loaded = {spec.name: spec}
        if name in loaded:
            return loaded[name]
        if len(loaded) == 1 and name in ("", "-"):
            return next(iter(loaded.values()))
        known = ", ".join(sorted(loaded))
        raise SystemExit(f"{spec_file} defines {known}, not {name!r}")
    specs = builtin_specifications()
    if name not in specs:
        known = ", ".join(sorted(specs))
        raise SystemExit(f"unknown specification {name!r}; built-ins: {known}")
    return specs[name]


def _json_counters(payload: dict) -> dict:
    """Attach the active tracer's counters to a ``--json`` payload."""
    tracer = current_tracer()
    if tracer is not None:
        payload["counters"] = dict(sorted(tracer.counters.items()))
    return payload


def _cmd_translate(args) -> int:
    query = parse_query(args.query)
    result = tdqm_translate(query, _spec(args.spec, args.spec_file))
    if args.json:
        payload = {
            "spec": args.spec,
            "query": to_text(query),
            "mapping": query_to_json(result.mapping),
            "mapping_text": to_text(result.mapping),
            "exact": result.exact,
        }
        print(json.dumps(_json_counters(payload), indent=2, sort_keys=True))
        return 0
    print(to_text(result.mapping))
    if args.verbose:
        print(f"exact: {result.exact}", file=sys.stderr)
    return 0


def _cmd_explain(args) -> int:
    query = parse_query(args.query)
    print(explain_translation(query, _spec(args.spec, args.spec_file)))
    return 0


def _cmd_filter(args) -> int:
    query = parse_query(args.query)
    specs = {name: _spec(name) for name in args.specs.split(",")}
    plan = build_filter(query, specs)
    if args.json:
        payload = {
            "query": to_text(query),
            "mappings": {
                name: {
                    "text": to_text(mapping),
                    "json": query_to_json(mapping),
                }
                for name, mapping in sorted(plan.mappings.items())
            },
            "filter": {
                "text": to_text(plan.filter),
                "json": query_to_json(plan.filter),
            },
        }
        print(json.dumps(_json_counters(payload), indent=2, sort_keys=True))
        return 0
    for name in sorted(plan.mappings):
        print(f"S({name}) = {to_text(plan.mappings[name])}")
    print(f"F = {to_text(plan.filter)}")
    return 0


def _cmd_batch(args) -> int:
    from repro.perf import TranslationCache, translate_batch

    specs = {name: _spec(name, args.spec_file) for name in args.specs.split(",")}
    texts = list(args.queries)
    if args.queries_file:
        handle = sys.stdin if args.queries_file == "-" else open(args.queries_file)
        with handle:
            texts.extend(
                line.strip() for line in handle
                if line.strip() and not line.lstrip().startswith("#")
            )
    if not texts:
        raise SystemExit("batch: no queries given (positional args or --queries-file)")
    queries = [parse_query(text) for text in texts]
    cache = TranslationCache()
    results = translate_batch(queries, specs, cache=cache)
    if args.json:
        payload = {
            "specs": sorted(specs),
            "results": [
                {
                    "query": text,
                    "mappings": {
                        name: {
                            "text": to_text(result.mapping),
                            "json": query_to_json(result.mapping),
                            "exact": result.exact,
                        }
                        for name, result in sorted(per_spec.items())
                    },
                }
                for text, per_spec in zip(texts, results)
            ],
            "cache": cache.stats.to_dict(),
        }
        print(json.dumps(_json_counters(payload), indent=2, sort_keys=True))
        return 0
    for text, per_spec in zip(texts, results):
        print(f"Q = {text}")
        for name in sorted(per_spec):
            result = per_spec[name]
            exact = "exact" if result.exact else "subsuming"
            print(f"  S({name}) = {to_text(result.mapping)}  [{exact}]")
    if args.verbose:
        stats = cache.stats
        print(
            f"cache: {stats.hits} hits, {stats.misses} misses "
            f"({stats.hit_rate:.0%} hit rate)",
            file=sys.stderr,
        )
    return 0


def _resilience_from_args(args):
    """A ResilienceConfig from CLI flags, or None when none were given."""
    used = (
        args.timeout is not None
        or args.retries is not None
        or args.backoff is not None
        or args.strict
        or args.fault
    )
    if not used:
        return None
    from repro.resilience import FaultPolicy, ResilienceConfig, RetryPolicy

    fault_policies = {}
    for entry in args.fault or ():
        name, eq, spec = entry.partition("=")
        if not eq or not name or not spec:
            raise SystemExit(
                f"bad --fault {entry!r}: expected NAME=SPEC, e.g. 'Amazon=fail:2'"
            )
        try:
            fault_policies[name] = FaultPolicy.parse(spec)
        except ValueError as exc:
            raise SystemExit(f"bad --fault {entry!r}: {exc}") from None
    retry = RetryPolicy(
        retries=args.retries if args.retries is not None else 2,
        backoff_base=args.backoff if args.backoff is not None else 0.05,
    )
    return ResilienceConfig(
        timeout=args.timeout,
        retry=retry,
        strict=args.strict,
        fault_policies=fault_policies,
    )


def _cmd_stats(args) -> int:
    from repro.obs.stats import (
        builtin_mediator,
        collect_stats,
        render_stats,
        stats_to_dict,
    )

    specs = {name: _spec(name, args.spec_file) for name in args.spec.split(",")}
    mediator = None if args.no_execute else builtin_mediator(set(specs))
    resilience = _resilience_from_args(args)
    report = collect_stats(args.query, specs, mediator, resilience=resilience)
    if args.json:
        print(json.dumps(stats_to_dict(report), indent=2, sort_keys=True))
    else:
        print(render_stats(report))
    return 0


def _builtin_sources() -> dict:
    """Every simulated source the built-in scenarios define, by name."""
    from repro.mediator import (
        bookstore_federation,
        faculty_mediator,
        map_mediator,
        realty_mediator,
    )

    sources: dict = {}
    for factory in (bookstore_federation, faculty_mediator, realty_mediator, map_mediator):
        for name, source in factory().sources.items():
            sources.setdefault(name, source)
    return sources


def _cmd_sources(args) -> int:
    from repro.core.errors import SourceUnavailableError
    from repro.resilience import ResilienceConfig

    config = _resilience_from_args(args) or ResilienceConfig()
    reports = []
    healthy = True
    for name, source in sorted(_builtin_sources().items()):
        adapter = config.adapter_for(source)
        try:
            info = adapter.ping()
            outcome = adapter.last_outcome
            reports.append(
                {
                    "source": name,
                    "healthy": True,
                    "rows": info["rows"],
                    "relations": info["relations"],
                    "outcome": outcome.to_dict() if outcome else None,
                }
            )
        except SourceUnavailableError as exc:
            healthy = False
            outcome = exc.outcomes[0] if exc.outcomes else None
            reports.append(
                {
                    "source": name,
                    "healthy": False,
                    "rows": None,
                    "relations": {},
                    "outcome": outcome.to_dict() if outcome else None,
                }
            )
    if args.json:
        print(json.dumps(_json_counters({"sources": reports}), indent=2, sort_keys=True))
    else:
        for report in reports:
            outcome = report["outcome"] or {}
            if report["healthy"]:
                rels = ", ".join(
                    f"{rel}={count}" for rel, count in sorted(report["relations"].items())
                )
                detail = f"{report['rows']} rows ({rels})"
            else:
                detail = f"{outcome.get('status', 'failed')}: {outcome.get('error')}"
            state = "up  " if report["healthy"] else "DOWN"
            attempts = outcome.get("attempts", 1)
            breaker = outcome.get("breaker_state", "closed")
            print(
                f"{report['source']:<10} {state}  {detail}  "
                f"[attempts={attempts} breaker={breaker}]"
            )
    return 0 if healthy else 1


def _serve_cluster(args, service_config, resilience) -> int:
    """`repro serve --processes N`: the sharded multi-process front-end."""
    from repro.serve import ClusterConfig, ClusterError, ClusterServer

    try:
        config = ClusterConfig(
            spec_names=tuple(sorted(set(args.specs.split(",")))),
            processes=args.processes,
            service=service_config,
            snapshot_dir=args.snapshot_dir,
            snapshot_interval=args.snapshot_interval,
            snapshot_limit=args.snapshot_limit,
            metrics=args.metrics,
            resilience=resilience,
        )
    except ValueError as exc:
        raise SystemExit(f"serve: {exc}") from None
    cluster = ClusterServer(config, host=args.host, port=args.port)
    try:
        host, port = cluster.start()
    except ClusterError as exc:
        cluster.stop()
        raise SystemExit(f"serve: {exc}") from None
    watcher = None
    if args.watch_registry:
        from repro.registry import RegistryWatcher

        # The front-end fans each changed payload to every shard through
        # the rolling reload, so all workers land on the same version.
        watcher = RegistryWatcher(
            args.watch_registry,
            lambda name, payload: cluster.reload_specs([payload]),
            interval=args.watch_interval,
            names=set(config.spec_names),
        ).start()
    suffix = ", metrics on" if args.metrics else ""
    if args.snapshot_dir:
        suffix += f", snapshots in {args.snapshot_dir}"
    if args.watch_registry:
        suffix += f", watching {args.watch_registry}"
    print(
        f"serving {args.specs} on {host}:{port} "
        f"(JSON-lines, {args.processes} worker processes{suffix})",
        file=sys.stderr,
    )
    try:
        threading.Event().wait()  # serve until interrupted
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        if watcher is not None:
            watcher.stop()
        cluster.stop()
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import ServiceConfig, serve_jsonl, serve_tcp
    from repro.serve.worker import bootstrap_service

    if args.processes < 1:
        raise SystemExit(f"serve: --processes must be >= 1, got {args.processes}")
    try:
        config = ServiceConfig(
            max_concurrency=args.max_concurrency, queue_depth=args.queue_depth
        )
    except ValueError as exc:
        raise SystemExit(f"serve: {exc}") from None
    resilience = _resilience_from_args(args)
    if args.processes > 1:
        if not args.tcp:
            raise SystemExit("serve: --processes needs --tcp (workers are TCP shards)")
        return _serve_cluster(args, config, resilience)
    try:
        service, restored = bootstrap_service(
            args.specs.split(","),
            config,
            resilience=resilience,
            metrics=args.metrics,
            snapshot_dir=args.snapshot_dir,
            snapshot_interval=args.snapshot_interval,
            snapshot_limit=args.snapshot_limit,
        )
    except ValueError as exc:
        raise SystemExit(f"serve: {exc}") from None
    restore_banner = (
        f", {restored.restored} cached translations restored" if restored else ""
    )

    watcher = None
    if args.watch_registry:
        from repro.registry import RegistryWatcher
        from repro.rules.declarative import spec_from_dict

        served = {spec.name for spec in service.mediator.specs.values()}
        watcher = RegistryWatcher(
            args.watch_registry,
            lambda name, payload: service.reload_spec(spec_from_dict(payload)),
            interval=args.watch_interval,
            names=served,
        ).start()

    try:
        if args.tcp:
            server = serve_tcp(service, host=args.host, port=args.port)
            host, port = server.server_address[:2]
            suffix = ", metrics on" if args.metrics else ""
            if args.watch_registry:
                suffix += f", watching {args.watch_registry}"
            print(
                f"serving {args.specs} on {host}:{port} "
                f"(JSON-lines{suffix}{restore_banner})",
                file=sys.stderr,
            )
            try:
                server.serve_forever()
            except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
                pass
            finally:
                server.server_close()
        else:
            handled = serve_jsonl(service, sys.stdin, sys.stdout, workers=args.workers)
            if args.verbose:
                print(f"handled {handled} request(s)", file=sys.stderr)
    finally:
        if watcher is not None:
            watcher.stop()
        if service.snapshot_timer is not None:
            service.snapshot_timer.stop()
    if args.verbose:
        print(
            "service: " + json.dumps(service.stats(), sort_keys=True), file=sys.stderr
        )
    return 0


def _top_lines(combined: dict, n: int) -> list[str]:
    """Render the `repro top` report from the four op snapshots."""
    health = combined["health"]
    lines = [
        f"status: {health['status']}  "
        f"uptime: {health.get('uptime_seconds', 0.0):.0f}s  "
        f"in-flight: {health['in_flight']}  "
        f"requests: {health['requests']}  "
        f"rejected: {health['rejected']}  errors: {health['errors']}"
    ]
    metrics = combined.get("metrics") or {}
    gauges = metrics.get("gauges", {})
    hit_rate = gauges.get("perf.cache.hit_rate")
    if hit_rate is not None:
        lines.append(
            f"cache: hit rate {hit_rate:.1%}  "
            f"size {gauges.get('perf.cache.size', 0)}/"
            f"{gauges.get('perf.cache.maxsize', 0)}"
        )
    histogram = metrics.get("histograms", {}).get("serve.request.latency")
    if histogram:
        lines.append(
            f"latency: p50 {histogram['p50'] * 1e3:.2f}ms  "
            f"p95 {histogram['p95'] * 1e3:.2f}ms  "
            f"p99 {histogram['p99'] * 1e3:.2f}ms  "
            f"({histogram['count']} requests)"
        )
    sources = combined.get("sources") or []
    if sources:
        lines.append("")
        lines.append(
            f"{'source':<12} {'calls':>7} {'err%':>6} {'retry%':>7} "
            f"{'p50ms':>8} {'p95ms':>8} {'p99ms':>8} {'rows':>7}  breaker"
        )
        for card in sources:
            latency = card["latency_ms"]
            lines.append(
                f"{card['source']:<12} {card['calls']:>7} "
                f"{card['error_rate'] * 100:>5.1f}% {card['retry_rate'] * 100:>6.1f}% "
                f"{latency['p50']:>8.2f} {latency['p95']:>8.2f} "
                f"{latency['p99']:>8.2f} {card['rows']:>7}  "
                f"{card['breaker_state'] or '-'}"
            )
    slowlog = combined.get("slowlog") or []
    if slowlog:
        lines.append("")
        lines.append(f"slowest fingerprints (top {n}):")
        for entry in slowlog:
            query = f"  {entry['query']}" if entry.get("query") else ""
            lines.append(
                f"  {entry['max_ms']:>9.2f}ms max  {entry['mean_ms']:>9.2f}ms mean  "
                f"x{entry['count']:<5} {entry['op']:<9} "
                f"{entry['fingerprint'][:12]}{query}"
            )
    return lines


def _cmd_top(args) -> int:
    import socket

    host, _, port_text = args.address.rpartition(":")
    if not host or not port_text.isdigit():
        raise SystemExit(f"top: address must be host:port, got {args.address!r}")

    try:
        conn = socket.create_connection((host, int(port_text)), timeout=args.timeout)
    except OSError as exc:
        raise SystemExit(
            f"top: cannot reach {args.address} ({exc}); "
            "is `repro serve --tcp --metrics` running?"
        ) from None
    with conn:
        stream = conn.makefile("rw", encoding="utf-8")

        def ask(request: dict) -> dict:
            stream.write(json.dumps(request) + "\n")
            stream.flush()
            line = stream.readline()
            if not line:
                raise SystemExit(f"top: {args.address} closed the connection")
            return json.loads(line)

        combined: dict = {}
        health = ask({"op": "health"})
        if not health.get("ok"):
            raise SystemExit(f"top: health op failed: {health.get('error')}")
        combined["health"] = health["health"]
        for op, request in (
            ("metrics", {"op": "metrics"}),
            ("sources", {"op": "sources"}),
            ("slowlog", {"op": "slowlog", "n": args.n}),
        ):
            response = ask(request)
            if response.get("ok"):
                combined[op] = response[op]
            elif response.get("error", {}).get("type") == "metrics-disabled":
                combined[op] = None
            else:
                raise SystemExit(f"top: {op} op failed: {response.get('error')}")

    if args.json:
        print(json.dumps(combined, indent=2, sort_keys=True))
        return 0
    if not combined["health"]["metrics_enabled"]:
        print(
            "note: server runs without --metrics; only health is available",
            file=sys.stderr,
        )
    print("\n".join(_top_lines(combined, args.n)))
    return 0


def _cmd_specs(args) -> int:
    for name, spec in sorted(builtin_specifications().items()):
        print(f"{name}  (target: {spec.target}, {len(spec)} rules)")
        if args.verbose:
            for rule in spec:
                doc = f"  — {rule.doc}" if rule.doc else ""
                print(f"    {rule.name}{doc}")
    return 0


def _lintable_specifications() -> dict:
    """Built-ins plus the realty library — everything ``lint`` can name."""
    from repro.rules.library_realty import K_REALTY

    specs = builtin_specifications()
    specs[K_REALTY.name] = K_REALTY
    return specs


def _registry_version_line(entry) -> str:
    marker = "*" if entry.active else " "
    note = f"  — {entry.note}" if entry.note else ""
    return (
        f" {marker} v{entry.version}  {entry.digest[:12]}  "
        f"{entry.rules} rule(s){note}"
    )


def _cmd_registry_publish(args) -> int:
    from repro.registry import PublishRejected, SpecRegistry

    with open(args.file) as handle:
        data = json.load(handle)
    entries = data if isinstance(data, list) else [data]
    registry = SpecRegistry(args.dir)
    published = []
    for entry in entries:
        try:
            published.append(
                registry.publish(
                    entry,
                    note=args.note,
                    gate=not args.no_gate,
                    fail_on=args.fail_on,
                )
            )
        except PublishRejected as exc:
            print(f"error: {exc}", file=sys.stderr)
            for diagnostic in exc.diagnostics:
                print(f"  {diagnostic.code} [{diagnostic.severity}] "
                      f"{diagnostic.message}", file=sys.stderr)
            return 1
    if args.json:
        print(json.dumps([v.to_dict() for v in published], indent=2, sort_keys=True))
        return 0
    for version in published:
        print(f"published {version.name} v{version.version} ({version.digest[:12]})")
    return 0


def _cmd_registry_rollback(args) -> int:
    from repro.registry import SpecRegistry

    version = SpecRegistry(args.dir).rollback(args.name, to_version=args.to)
    if args.json:
        print(json.dumps(version.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"active: {version.name} v{version.version} ({version.digest[:12]})")
    return 0


def _cmd_registry_history(args) -> int:
    from repro.registry import SpecRegistry

    registry = SpecRegistry(args.dir)
    names = [args.name] if args.name else registry.names()
    if args.json:
        payload = {
            name: [v.to_dict() for v in registry.history(name)] for name in names
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not names:
        print(f"registry {args.dir} is empty")
        return 0
    for name in names:
        print(f"{name}:")
        for entry in registry.history(name):
            print(_registry_version_line(entry))
    return 0


def _cmd_registry_show(args) -> int:
    from repro.registry import SpecRegistry

    payload = SpecRegistry(args.dir).load_raw(args.name, args.version)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import (
        Severity,
        capability_from_dict,
        lint_specification,
        vocabulary_from_dict,
    )

    vocabulary = None
    if args.vocab:
        with open(args.vocab) as handle:
            vocabulary = vocabulary_from_dict(json.load(handle))
    capability = None
    if args.capability:
        with open(args.capability) as handle:
            capability = capability_from_dict(json.load(handle))

    if args.spec_file is not None:
        with open(args.spec_file) as handle:
            data = json.load(handle)
        from repro.rules.declarative import spec_from_dict

        entries = data if isinstance(data, list) else [data]
        loaded = {entry["name"]: spec_from_dict(entry) for entry in entries}
        if args.specs in ("all", "", "-"):
            selected = loaded
        else:
            selected = {}
            for name in args.specs.split(","):
                if name not in loaded:
                    known = ", ".join(sorted(loaded))
                    raise SpecificationError(
                        f"{args.spec_file} defines {known}, not {name!r}"
                    )
                selected[name] = loaded[name]
    else:
        available = _lintable_specifications()
        if args.specs == "all":
            selected = available
        else:
            selected = {}
            for name in args.specs.split(","):
                if name not in available:
                    known = ", ".join(sorted(available))
                    raise SpecificationError(
                        f"unknown specification {name!r}; built-ins: {known}"
                    )
                selected[name] = available[name]

    try:
        show_at = Severity.parse(args.severity)
        fail_at = Severity.parse(args.fail_on)
    except ValueError as exc:
        raise SpecificationError(str(exc)) from None
    codes = frozenset(args.code or ())

    fmt = args.format or ("json" if args.json else "text")
    failed = False
    payloads = []
    sarif_diagnostics = []
    for name, spec in selected.items():
        report = lint_specification(spec, vocabulary=vocabulary, capability=capability)
        # --code narrows the run's scope; --severity only trims the display.
        scoped = report.filter(codes=codes or None)
        if any(d.severity >= fail_at for d in scoped):
            failed = True
        shown = scoped.filter(severity=show_at)
        if fmt == "json":
            payloads.append(shown.to_dict())
        elif fmt == "sarif":
            sarif_diagnostics.extend(shown.diagnostics)
        else:
            print(shown.render(verbose=args.verbose))
    if fmt == "json":
        out = payloads[0] if len(payloads) == 1 else payloads
        print(json.dumps(out, indent=2, sort_keys=True))
    elif fmt == "sarif":
        from repro.analysis import diagnostics_to_sarif

        files = (
            {name: args.spec_file for name in selected} if args.spec_file else {}
        )
        log = diagnostics_to_sarif(
            sarif_diagnostics, tool_name="vocablint", files=files
        )
        print(json.dumps(log, indent=2, sort_keys=True))
    return 1 if failed else 0


def _cmd_audit(args) -> int:
    if args.query is not None:
        # Legacy single-spec mode: which constraints of one query does the
        # specification's vocabulary cover?
        query = parse_query(args.query)
        report = audit_vocabulary(
            _spec(args.targets, args.spec_file), sorted(query.constraints(), key=str)
        )
        print(report)
        return 0 if not report.uncovered else 1
    return _audit_federations(args)


def _audit_federations(args) -> int:
    from repro.analysis import (
        Severity,
        audit_federation,
        builtin_federations,
        diagnostics_to_sarif,
        load_federation,
    )

    files: dict[str, str] = {}
    if args.federation_file:
        federation = load_federation(args.federation_file)
        federations = {federation.name: federation}
        files = {
            source.spec.name: args.federation_file
            for source in federation.sources
        }
    else:
        available = builtin_federations()
        if args.targets in ("all", None):
            federations = available
        else:
            federations = {}
            for name in args.targets.split(","):
                if name not in available:
                    known = ", ".join(sorted(available))
                    raise SpecificationError(
                        f"unknown federation {name!r}; built-ins: {known}"
                    )
                federations[name] = available[name]

    try:
        show_at = Severity.parse(args.severity)
        fail_at = Severity.parse(args.fail_on)
    except ValueError as exc:
        raise SpecificationError(str(exc)) from None
    codes = frozenset(args.code or ())

    failed = False
    payloads = []
    sarif_diagnostics = []
    for name, federation in federations.items():
        report = audit_federation(
            federation,
            lint_sources=not args.no_lint,
            consolidate=not args.no_consolidate,
        )
        scoped = report.filter(codes=codes or None)
        if any(d.severity >= fail_at for d in scoped.diagnostics):
            failed = True
        shown = scoped.filter(severity=show_at)
        if args.format == "json":
            payloads.append(shown.to_dict())
        elif args.format == "sarif":
            sarif_diagnostics.extend(shown.diagnostics)
        else:
            print(shown.render(verbose=args.verbose))
    if args.format == "json":
        out = payloads[0] if len(payloads) == 1 else payloads
        print(json.dumps(out, indent=2, sort_keys=True))
    elif args.format == "sarif":
        log = diagnostics_to_sarif(
            sarif_diagnostics, tool_name="repro-audit", files=files
        )
        print(json.dumps(log, indent=2, sort_keys=True))
    return 1 if failed else 0


def _add_resilience_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--timeout",
        type=float,
        help="per-source deadline in seconds (includes backoff waits)",
    )
    p.add_argument(
        "--retries",
        type=int,
        help="retries per source call on transient failure (default 2)",
    )
    p.add_argument(
        "--backoff",
        type=float,
        help="base backoff delay in seconds (doubles per retry; default 0.05)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="raise instead of returning a partial answer when a source fails",
    )
    p.add_argument(
        "--fault",
        action="append",
        metavar="NAME=SPEC",
        help="inject a deterministic fault into one source: fail:N, "
        "latency:SECONDS[:EVERY], or flaky:RATE[:SEED] (repeatable)",
    )


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace",
        action="store_true",
        help="print the span tree (per-stage wall-times) to stderr",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print the aggregate counters to stderr",
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="vocabmap: constraint-query mapping across heterogeneous sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="translate a query for a target")
    p.add_argument("spec", help="specification name (see 'specs')")
    p.add_argument("query", help="query in the paper's textual notation")
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument("-f", "--spec-file", help="load the spec from a declarative JSON file")
    p.add_argument("--json", action="store_true", help="emit the mapping as JSON")
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("explain", help="narrate the TDQM run")
    p.add_argument("spec")
    p.add_argument("query")
    p.add_argument("-f", "--spec-file", help="load the spec from a declarative JSON file")
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser("filter", help="per-source mappings + residue filter")
    p.add_argument("specs", help="comma-separated specification names")
    p.add_argument("query")
    p.add_argument("--json", action="store_true", help="emit mappings + filter as JSON")
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_filter)

    p = sub.add_parser(
        "batch", help="translate many queries for many specs in one pass"
    )
    p.add_argument("specs", help="comma-separated specification names")
    p.add_argument("queries", nargs="*", help="queries in the paper's textual notation")
    p.add_argument(
        "--queries-file",
        help="read additional queries, one per line, from a file ('-' = stdin; "
        "blank lines and '#' comments skipped)",
    )
    p.add_argument("-f", "--spec-file", help="load the spec(s) from a declarative JSON file")
    p.add_argument("--json", action="store_true", help="emit mappings + cache stats as JSON")
    p.add_argument(
        "-v", "--verbose", action="store_true", help="print cache statistics to stderr"
    )
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_batch)

    p = sub.add_parser(
        "stats", help="traced pipeline report: span tree + counter set"
    )
    p.add_argument("spec", help="specification name(s), comma-separated")
    p.add_argument("query")
    p.add_argument("-f", "--spec-file", help="load the spec from a declarative JSON file")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument(
        "--no-execute",
        action="store_true",
        help="skip executing the built-in simulated sources",
    )
    _add_resilience_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "sources", help="health-check the built-in sources (resilience layer)"
    )
    p.add_argument("--json", action="store_true", help="emit the health report as JSON")
    _add_resilience_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_sources)

    p = sub.add_parser(
        "serve", help="run the concurrent mediation service (JSON-lines/TCP)"
    )
    p.add_argument(
        "specs",
        help="comma-separated specification names naming a built-in scenario "
        "(e.g. K_Amazon, or K1,K2)",
    )
    p.add_argument(
        "--tcp", action="store_true", help="serve TCP instead of stdin/stdout"
    )
    p.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    p.add_argument(
        "--port", type=int, default=7654, help="TCP port (0 = ephemeral)"
    )
    p.add_argument(
        "--max-concurrency",
        type=int,
        default=8,
        help="requests executing concurrently (admission semaphore width)",
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="requests allowed to wait beyond the executing ones; more are "
        "rejected immediately as overloaded",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="stdin mode: dispatch request lines on this many threads "
        "(responses correlate by id)",
    )
    p.add_argument(
        "--processes",
        type=int,
        default=1,
        help="TCP mode: serve from this many worker processes, sending "
        "each request to the one with the fewest in flight (shared-nothing "
        "caches; responses stay bit-identical to single-process mode)",
    )
    p.add_argument(
        "--snapshot-dir",
        metavar="DIR",
        help="persist hot cache entries here periodically and on shutdown, "
        "and restore them on start (per-shard files in cluster mode); "
        "snapshots from a changed rule set are discarded as stale",
    )
    p.add_argument(
        "--snapshot-interval",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="seconds between periodic snapshots (0 = only on shutdown; "
        "default %(default)s)",
    )
    p.add_argument(
        "--snapshot-limit",
        type=int,
        default=None,
        metavar="N",
        help="snapshot at most the N hottest cache entries (default: all)",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="continuous telemetry: process-lifetime counters, latency "
        "histograms, per-source scorecards, and a slow-query log, served "
        "via the metrics/sources/slowlog/health ops (and `repro top`)",
    )
    p.add_argument(
        "--watch-registry",
        metavar="DIR",
        default=None,
        help="poll a spec registry (see `repro registry`) and hot-reload "
        "published/rolled-back specifications into the running service "
        "without a restart",
    )
    p.add_argument(
        "--watch-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="registry poll interval for --watch-registry (default: %(default)s)",
    )
    p.add_argument(
        "-v", "--verbose", action="store_true",
        help="print service statistics to stderr on exit",
    )
    _add_resilience_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "top", help="snapshot a running `serve --tcp` instance's telemetry"
    )
    p.add_argument(
        "address",
        nargs="?",
        default="127.0.0.1:7654",
        help="host:port of the running server (default: %(default)s)",
    )
    p.add_argument(
        "-n", type=int, default=10, help="slow-query log entries to show"
    )
    p.add_argument(
        "--timeout", type=float, default=5.0, help="connect/read timeout (seconds)"
    )
    p.add_argument(
        "--json", action="store_true", help="emit the raw snapshots as JSON"
    )
    p.set_defaults(fn=_cmd_top)

    p = sub.add_parser("specs", help="list built-in specifications")
    p.add_argument("-v", "--verbose", action="store_true")
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_specs)

    p = sub.add_parser(
        "registry",
        help="versioned spec registry: publish, rollback, history, show",
        description="Manage an on-disk registry of versioned declarative "
        "specifications. Publishes are gated through the spec linter; a "
        "running `repro serve --watch-registry DIR` hot-reloads the "
        "active versions without a restart.",
    )
    rsub = p.add_subparsers(dest="registry_command", required=True)

    rp = rsub.add_parser("publish", help="lint-gate and publish spec file(s)")
    rp.add_argument("dir", help="registry root directory")
    rp.add_argument(
        "-f", "--file", required=True,
        help="declarative spec JSON (one object or a list of objects)",
    )
    rp.add_argument("--note", default="", help="free-form note stored with the version")
    rp.add_argument(
        "--fail-on",
        choices=["info", "warning", "error"],
        default="error",
        help="reject the publish when the linter reports a diagnostic at "
        "or above this severity (default: %(default)s)",
    )
    rp.add_argument(
        "--no-gate", action="store_true", help="skip the lint gate entirely"
    )
    rp.add_argument("--json", action="store_true", help="emit published versions as JSON")
    rp.set_defaults(fn=_cmd_registry_publish)

    rp = rsub.add_parser("rollback", help="point a spec back at an older version")
    rp.add_argument("dir", help="registry root directory")
    rp.add_argument("name", help="specification name")
    rp.add_argument(
        "--to", type=int, default=None, metavar="N",
        help="version to activate (default: the one before the active version)",
    )
    rp.add_argument("--json", action="store_true", help="emit the active version as JSON")
    rp.set_defaults(fn=_cmd_registry_rollback)

    rp = rsub.add_parser("history", help="list versions (active marked with *)")
    rp.add_argument("dir", help="registry root directory")
    rp.add_argument("name", nargs="?", default=None, help="limit to one specification")
    rp.add_argument("--json", action="store_true", help="emit the history as JSON")
    rp.set_defaults(fn=_cmd_registry_history)

    rp = rsub.add_parser("show", help="print a stored spec payload")
    rp.add_argument("dir", help="registry root directory")
    rp.add_argument("name", help="specification name")
    rp.add_argument(
        "--version", type=int, default=None, metavar="N",
        help="version to show (default: the active version)",
    )
    rp.set_defaults(fn=_cmd_registry_show)

    p = sub.add_parser(
        "audit",
        help="statically audit whole federations (or one spec against a query)",
        description="Two modes. Federation mode (no query): load every "
        "spec/vocabulary/capability of the named federations and run the "
        "cross-source analyzer — coverage matrix, VF diagnostics, and "
        "verified merge proposals. Legacy mode (spec + query): flag the "
        "query constraints no rule of that one spec can touch.",
    )
    p.add_argument(
        "targets",
        nargs="?",
        default="all",
        help="comma-separated federation names, or 'all' (federation mode); "
        "a specification name when a query is also given (legacy mode)",
    )
    p.add_argument(
        "query",
        nargs="?",
        help="legacy mode: audit this query's constraints against one spec",
    )
    p.add_argument(
        "-f", "--spec-file",
        help="legacy mode: load the spec from a declarative JSON file",
    )
    p.add_argument(
        "--federation-file",
        help="federation mode: load the federation from a JSON file instead "
        "of the built-ins (also enables SARIF physical locations)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="federation mode output format (default: text)",
    )
    p.add_argument(
        "--severity",
        default="info",
        help="minimum severity to report (info, warning, error)",
    )
    p.add_argument(
        "--fail-on",
        default="error",
        help="exit non-zero when a diagnostic reaches this severity",
    )
    p.add_argument(
        "--code",
        action="append",
        metavar="VFXXX",
        help="only report these diagnostic codes (repeatable)",
    )
    p.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the per-source vocablint pass (VM codes)",
    )
    p.add_argument(
        "--no-consolidate",
        action="store_true",
        help="skip the merge-proposal pass (VF007)",
    )
    p.add_argument(
        "-v", "--verbose", action="store_true",
        help="include diagnostic details and the coverage matrix",
    )
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser(
        "lint", help="statically analyze mapping specifications (vocablint)"
    )
    p.add_argument(
        "specs",
        help="comma-separated specification names, or 'all' for every "
        "lintable specification",
    )
    p.add_argument(
        "-f", "--spec-file", help="load the spec(s) from a declarative JSON file"
    )
    p.add_argument(
        "--vocab",
        help="declared original-context vocabulary (JSON file); enables the "
        "reference and coverage checks",
    )
    p.add_argument(
        "--capability",
        help="target capability description (JSON file); enables the "
        "expressibility check",
    )
    p.add_argument(
        "--severity",
        default="info",
        help="minimum severity to report (info, warning, error)",
    )
    p.add_argument(
        "--fail-on",
        default="error",
        help="exit non-zero when a diagnostic reaches this severity",
    )
    p.add_argument(
        "--code",
        action="append",
        metavar="VMXXX",
        help="only report these diagnostic codes (repeatable)",
    )
    p.add_argument(
        "--json", action="store_true", help="emit reports as JSON (same as --format json)"
    )
    p.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default=None,
        help="output format (default: text; --json is an alias for json)",
    )
    p.add_argument(
        "-v", "--verbose", action="store_true", help="include diagnostic details"
    )
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    want_trace = getattr(args, "trace", False)
    want_stats = getattr(args, "stats", False)
    try:
        if not (want_trace or want_stats):
            return args.fn(args)
        with tracing(f"repro.{args.command}") as tracer:
            code = args.fn(args)
        if want_trace:
            print("spans:", file=sys.stderr)
            for line in render_span(tracer.root):
                print("  " + line, file=sys.stderr)
        if want_stats:
            print("counters:", file=sys.stderr)
            for line in counters_table(tracer):
                print("  " + line, file=sys.stderr)
        return code
    except VocabMapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. piping into `head`
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
