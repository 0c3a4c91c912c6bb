"""One cluster worker process: a private MediationService shard.

Each worker the cluster front-end (:mod:`repro.serve.cluster`) spawns
runs :func:`worker_main`: build the mediator for the configured built-in
scenario, restore the shard's cache snapshot if one exists, bind an
ephemeral TCP port, report it back over the bootstrap pipe, and serve
the JSON-lines protocol until told to stop.  Workers are shared-nothing
— no cross-process locks, no shared memory, no coordination: each holds
the whole rule set, so whichever worker the front-end picks answers
exactly as the single-process service would.

On top of the standard protocol a worker answers one op of its own,
``snapshot``: write the shard's cache snapshot now and respond with the
:class:`~repro.serve.snapshot.SnapshotReport`.  A response whose line
would pass :data:`~repro.serve.protocol.MAX_LINE_BYTES` is answered with
a ``response-too-large`` error instead, so the front-end never reads an
overlong line and never mistakes one for a dead worker.

Lifecycle: ``SIGTERM`` (or ``SIGINT``) triggers a graceful shutdown —
stop accepting, write a final snapshot, exit 0 — which is what the
front-end sends during a rolling restart, so the replacement worker
starts warm from the state its predecessor just persisted.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import TYPE_CHECKING

from repro.serve.protocol import (
    MAX_LINE_BYTES,
    decode_line,
    encode_response,
    error_response,
    handle_request,
)
from repro.serve.service import MediationService, ServiceConfig
from repro.serve.snapshot import SnapshotTimer, restore_snapshot, specs_by_name

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from repro.serve.snapshot import RestoreReport

__all__ = ["worker_main", "snapshot_path", "start_snapshots"]


def snapshot_path(snapshot_dir: str, shard_id: int) -> str:
    """The snapshot file one shard owns inside ``snapshot_dir``."""
    return os.path.join(snapshot_dir, f"shard-{shard_id}.json")


def start_snapshots(
    service: MediationService,
    snapshot_dir: str | None,
    shard_id: int,
    *,
    interval: float,
    limit: int | None,
) -> "tuple[SnapshotTimer | None, RestoreReport | None]":
    """Warm-start one shard's cache from its snapshot and keep it saved.

    Restores the shard's snapshot file if it exists, starts a
    :class:`SnapshotTimer` on it, and hooks the timer to hot reloads so
    it never pins the retired spec or keeps exporting under its digest
    (see :meth:`SnapshotTimer.update_spec`).  Returns ``(timer, restore
    report)``; both are ``None`` without a ``snapshot_dir`` or a cache,
    and the report is ``None`` when there was no file to restore.
    Raises :class:`ValueError` for a bad interval or limit, or an
    unreadable snapshot.
    """
    cache = service.mediator.translation_cache
    if snapshot_dir is None or cache is None:
        return None, None
    specs = specs_by_name(service.mediator.specs)
    path = snapshot_path(snapshot_dir, shard_id)
    timer = SnapshotTimer(path, cache, specs, interval=interval, limit=limit)
    report = restore_snapshot(path, cache, specs) if os.path.exists(path) else None
    service.reload_hooks.append(timer.update_spec)
    return timer.start(), report


def _build_mediator(spec_names: tuple[str, ...], resilience_args: dict | None):
    from repro.obs.stats import builtin_mediator

    mediator = builtin_mediator(set(spec_names))
    if mediator is None:
        raise ValueError(f"{sorted(spec_names)} does not name a built-in scenario")
    if resilience_args:
        from repro.resilience import FaultPolicy, ResilienceConfig, RetryPolicy

        retry = RetryPolicy(
            retries=resilience_args.get("retries", 2),
            backoff_base=resilience_args.get("backoff", 0.05),
        )
        fault_policies = {
            name: FaultPolicy.parse(spec)
            for name, spec in (resilience_args.get("faults") or {}).items()
        }
        mediator = mediator.with_resilience(
            ResilienceConfig(
                timeout=resilience_args.get("timeout"),
                retry=retry,
                strict=bool(resilience_args.get("strict", False)),
                fault_policies=fault_policies,
            )
        )
    return mediator


class _WorkerRuntime:
    """The per-process state the extended line handler closes over."""

    def __init__(self, service: MediationService, timer: SnapshotTimer | None):
        self.service = service
        self.timer = timer

    def handle_line(self, line: str) -> str:
        """The protocol plus the worker-local ``snapshot`` op, line-bounded."""
        request, decode_error = decode_line(line)
        if decode_error is not None:
            return encode_response(decode_error)
        assert request is not None
        if request.get("op") == "snapshot":
            response = self._op_snapshot(request)
        else:
            response = handle_request(self.service, request)
        encoded = encode_response(response)
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

    def _op_snapshot(self, request: dict) -> dict:
        if self.timer is None:
            return error_response(
                request,
                "snapshot-disabled",
                "worker runs without --snapshot-dir; nothing to persist",
            )
        report = self.timer.write_now()
        response = {"op": "snapshot", "ok": True, "snapshot": report.to_dict()}
        if "id" in request:
            response["id"] = request["id"]
        return response


def worker_main(
    shard_id: int,
    spec_names: tuple[str, ...],
    service_config: ServiceConfig,
    bootstrap: "Connection",
    *,
    snapshot_dir: str | None = None,
    snapshot_interval: float = 30.0,
    snapshot_limit: int | None = None,
    metrics: bool = False,
    resilience_args: dict | None = None,
) -> None:
    """Entry point of one spawned worker process (blocking).

    Reports ``{"port", "pid", "restored"}`` over ``bootstrap`` once
    serving, or ``{"error"}`` if boot fails — the front-end treats a
    silent pipe as a dead worker.  Runs until SIGTERM/SIGINT, then
    writes the final snapshot and returns.
    """
    try:
        from repro.serve.server import serve_tcp

        registry = None
        if metrics:
            from repro import obs

            # Installed process-wide so every layer's counters tee into
            # this shard's registry, exactly like single-process
            # `repro serve --metrics`.
            registry = obs.install(obs.MetricsRegistry())
        mediator = _build_mediator(tuple(spec_names), resilience_args)
        service = MediationService(mediator, service_config, metrics=registry)
        # Compile every rule closure now, before the first request —
        # the boot cost buys first-request latency (and snapshot
        # restores below land against warm indexes).
        for spec in mediator.specs.values():
            spec.compiled_index().precompile()

        timer, restore_report = start_snapshots(
            service,
            snapshot_dir,
            shard_id,
            interval=snapshot_interval,
            limit=snapshot_limit,
        )
        runtime = _WorkerRuntime(service, timer)
        server = serve_tcp(
            service,
            port=0,
            line_handler=runtime.handle_line,
            pipeline_workers=service_config.max_concurrency,
        )
    except Exception as exc:  # noqa: BLE001 - boot failures go up the pipe
        try:
            bootstrap.send({"error": f"{type(exc).__name__}: {exc}"})
        finally:
            bootstrap.close()
        return

    def _shutdown(signum: int, frame: object) -> None:
        # serve_forever() must be stopped from another thread: shutdown()
        # blocks until the serve loop exits, and the signal handler runs
        # *on* the serving thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)

    host, port = server.server_address[:2]
    bootstrap.send(
        {
            "port": int(port),
            "pid": os.getpid(),
            "restored": restore_report.to_dict() if restore_report else None,
        }
    )
    bootstrap.close()
    try:
        server.serve_forever()
    finally:
        server.server_close()
        if timer is not None:
            timer.stop()
