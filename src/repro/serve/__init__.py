"""Load-serving layer: a concurrent query-mediation service.

``repro.serve`` is the front door for the ROADMAP's "heavy traffic"
target: many client threads, one shared :class:`MediationService` over
one :class:`~repro.mediator.Mediator`.  The service answers through the
shared :class:`~repro.perf.TranslationCache` (whose own single-flight
lets concurrent identical misses share one translation), batches
compatible work through it, and applies admission control — a bounded
queue plus a max-concurrency semaphore with a fast :class:`Overloaded`
rejection — while exporting queue-depth and latency gauges through
:mod:`repro.obs`.

Transports (JSON-lines over stdin or TCP) live in
:mod:`repro.serve.server` and power the ``repro serve`` CLI command.

Beyond one process, :class:`ClusterServer` spreads the service across
worker processes (``repro serve --processes N``): an asyncio front-end
sends each request to the shared-nothing worker with the fewest
requests in flight, and each worker persists its cache shard across
restarts via :mod:`repro.serve.snapshot` (:func:`write_snapshot` /
:func:`restore_snapshot`).

Specs are live artifacts: the ``reload`` protocol op (and
:meth:`MediationService.reload_spec`) hot-swaps a published
specification into a running service — atomically, with in-flight
requests completing against the spec they started with — and the
cluster front-end rolls the swap across workers one shard at a time.
The durable side of that lifecycle (versioned publish/rollback, the
lint gate, ``--watch-registry``) lives in :mod:`repro.registry`; see
``docs/lifecycle.md``.

Service model, overload behavior, tuning, and the multi-process
architecture: ``docs/serving.md``.
"""

from repro.serve.cluster import ClusterConfig, ClusterError, ClusterServer
from repro.serve.protocol import (
    decode_line,
    encode_response,
    error_response,
    handle_line,
    handle_request,
    resolve_reload_specs,
)
from repro.serve.server import serve_jsonl, serve_tcp
from repro.serve.service import MediationService, Overloaded, ServiceConfig
from repro.serve.snapshot import (
    RestoreReport,
    SnapshotReport,
    SnapshotTimer,
    restore_snapshot,
    write_snapshot,
)
from repro.serve.worker import worker_main

__all__ = [
    "ClusterConfig",
    "ClusterError",
    "ClusterServer",
    "MediationService",
    "Overloaded",
    "RestoreReport",
    "ServiceConfig",
    "SnapshotReport",
    "SnapshotTimer",
    "decode_line",
    "encode_response",
    "error_response",
    "handle_line",
    "handle_request",
    "resolve_reload_specs",
    "restore_snapshot",
    "serve_jsonl",
    "serve_tcp",
    "worker_main",
    "write_snapshot",
]
