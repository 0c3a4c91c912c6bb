"""One bootstrap for every serving process, and the cluster worker's entry point.

:func:`bootstrap_service` builds a serving process's
:class:`~repro.serve.MediationService` from a built-in scenario: the
mediator, its resilience wrapper, precompiled rule closures, the
metrics registry and the shard's warm-start snapshot timer.
Single-process ``repro serve`` calls it once; each worker process the
cluster front-end (:mod:`repro.serve.cluster`) spawns calls it through
:func:`worker_main`.

A worker is the single-process TCP server behind the front-end: it
binds an ephemeral port, reports it back over the bootstrap pipe, and
answers every line with :func:`~repro.serve.protocol.handle_line`, the
handler single-process mode uses.  Workers are shared-nothing — no
cross-process locks, no shared memory, no coordination: each holds the
whole rule set, so whichever worker the front-end picks answers exactly
as the single-process service would.

Lifecycle: ``SIGTERM`` (or ``SIGINT``) triggers a graceful shutdown —
stop accepting, write a final snapshot, exit 0 — which is what the
front-end sends during a rolling restart, so the replacement worker
starts warm from the state its predecessor just persisted.
"""

from __future__ import annotations

import os
import signal
import threading
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

from repro.serve.service import MediationService, ServiceConfig
from repro.serve.snapshot import SnapshotTimer, restore_snapshot, specs_by_name

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from repro.mediator import Mediator
    from repro.resilience import ResilienceConfig
    from repro.serve.snapshot import RestoreReport

__all__ = ["bootstrap_service", "scenario_factory", "worker_main", "snapshot_path"]


def snapshot_path(snapshot_dir: str, shard_id: int) -> str:
    """The snapshot file one shard owns inside ``snapshot_dir``."""
    return os.path.join(snapshot_dir, f"shard-{shard_id}.json")


def scenario_factory(spec_names: Iterable[str]) -> "Callable[[], Mediator]":
    """The mediator factory of the built-in scenario ``spec_names`` names.

    Raises :class:`ValueError`, listing the built-in scenarios, when the
    names match none.  Builds nothing, so the cluster front-end checks
    its config with it before any worker is spawned.
    """
    from repro.obs.stats import builtin_scenario

    names = set(spec_names)
    factory = builtin_scenario(names)
    if factory is None:
        raise ValueError(
            f"{sorted(names)} does not name a built-in scenario "
            "(K_Amazon | K_Clbooks | K1,K2 | K_map)"
        )
    return factory


def bootstrap_service(
    spec_names: Iterable[str],
    config: ServiceConfig,
    *,
    resilience: "ResilienceConfig | None" = None,
    metrics: bool = False,
    snapshot_dir: str | None = None,
    snapshot_interval: float = 30.0,
    snapshot_limit: int | None = None,
    shard_id: int = 0,
) -> "tuple[MediationService, RestoreReport | None]":
    """Build one serving process's service for a built-in scenario.

    Builds the scenario's mediator, wraps it with ``resilience`` when
    given, compiles every rule closure before the first request, installs
    a process-wide metrics registry when ``metrics`` is set (so every
    layer's counters tee into it), and builds the service.  With a
    ``snapshot_dir`` it restores the shard's snapshot file if one exists
    and starts a :class:`SnapshotTimer` on it, held as
    :attr:`MediationService.snapshot_timer`; the caller stops it on
    shutdown.  Returns ``(service, restore report)``; the report is
    ``None`` when there was no file to restore.  Raises
    :class:`ValueError` for an unknown scenario, a bad snapshot interval
    or limit, or an unreadable snapshot.
    """
    mediator = scenario_factory(spec_names)()
    if resilience is not None:
        mediator = mediator.with_resilience(resilience)
    # Compile every rule closure now: the boot cost buys first-request
    # latency, and snapshot restores land against warm indexes.
    for spec in mediator.specs.values():
        spec.compiled_index().precompile()
    registry = None
    if metrics:
        from repro import obs

        registry = obs.install(obs.MetricsRegistry())
    service = MediationService(mediator, config, metrics=registry)
    report: "RestoreReport | None" = None
    if snapshot_dir is not None and mediator.translation_cache is not None:
        path = snapshot_path(snapshot_dir, shard_id)
        timer = SnapshotTimer(
            path, mediator, interval=snapshot_interval, limit=snapshot_limit
        )
        if os.path.exists(path):
            report = restore_snapshot(
                path, mediator.translation_cache, specs_by_name(mediator.specs)
            )
        service.snapshot_timer = timer.start()
    return service, report


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
    resilience: "ResilienceConfig | None" = None,
) -> None:
    """Entry point of one spawned worker process (blocking).

    Reports ``{"port", "pid", "restored"}`` over ``bootstrap`` once
    serving, or ``{"error"}`` if boot fails — the front-end treats a
    silent pipe as a dead worker.  Runs until SIGTERM/SIGINT, then
    writes the final snapshot and returns.
    """
    try:
        from repro.serve.server import serve_tcp

        service, restore_report = bootstrap_service(
            spec_names,
            service_config,
            resilience=resilience,
            metrics=metrics,
            snapshot_dir=snapshot_dir,
            snapshot_interval=snapshot_interval,
            snapshot_limit=snapshot_limit,
            shard_id=shard_id,
        )
        server = serve_tcp(
            service, port=0, pipeline_workers=service_config.max_concurrency
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
        if service.snapshot_timer is not None:
            service.snapshot_timer.stop()
