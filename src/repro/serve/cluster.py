"""Multi-process serving: an asyncio front-end over worker processes.

The single-process :class:`~repro.serve.MediationService` is GIL-bound —
bench_serve plateaus at ~3x over per-request translation no matter how
many threads it spawns.  ``repro.serve.cluster`` breaks the ceiling with
shared-nothing worker processes:

* An **asyncio front-end** (this module) accepts TCP/JSON-lines client
  connections — the same wire protocol as single-process ``repro serve``
  — and sends each request to the live **worker process**
  (:mod:`repro.serve.worker`) with the fewest requests in flight, ties
  going to the lowest shard id.  Each worker is a single-process
  ``repro serve`` TCP server, built by the same bootstrap and answering
  through the same :func:`~repro.serve.protocol.handle_line`, with its
  own :class:`~repro.perf.TranslationCache` shard.
* Every worker holds the whole rule set and a translation depends only
  on the query and that rule set, so any worker answers exactly as one
  process would: responses are bit-identical to single-process mode,
  with no cross-process locks.  The front-end never parses a query; a
  ``batch`` goes to one worker whole.
* When a worker dies, the requests it held are retried on the next
  least-loaded live shard, so clients see degraded latency, not errors.
  :meth:`ClusterServer.restart_shard` takes a shard out deliberately —
  drain, final snapshot, respawn, warm restore — for zero-loss rolling
  restarts.
* Each worker persists its cache shard via
  :mod:`repro.serve.snapshot`, so a full cluster restart starts warm.

Front-end additions to the protocol (everything else proxies verbatim):
``stats`` aggregates exact per-shard counters (and carries them under
``stats.shards``), ``shards`` reports shard topology/liveness,
``drain`` removes/returns a shard from rotation, ``restart`` performs a
rolling restart, ``snapshot`` asks every live worker to persist its
shard now, and ``reload`` hot-swaps mapping specs across the fleet one
shard at a time (drain → swap → precompile → re-admit), so a registry
publish reaches every worker without losing a request or a warm cache
entry for the unchanged specs.  ``health``/``sources``/``slowlog`` fan out and merge;
``metrics`` returns per-shard registry snapshots plus summed counters.

Lines in both directions are bounded by
:data:`~repro.serve.protocol.MAX_LINE_BYTES`, as in single-process mode:
a longer client line gets one ``bad-request`` error, so does a request
whose forwarded line would pass the bound, and a worker answers a
response that would pass the bound with a ``response-too-large`` error
instead.

The event loop runs on a dedicated thread so the blocking CLI and the
synchronous tests drive one :class:`ClusterServer` object the same way.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import threading
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import aggregate_scorecards
from repro.serve.protocol import (
    LINE_TOO_LONG,
    MAX_LINE_BYTES,
    decode_line,
    encode_response,
    error_response,
    resolve_reload_specs,
)
from repro.serve.service import ServiceConfig
from repro.serve.worker import scenario_factory, worker_main

if TYPE_CHECKING:
    from repro.resilience import ResilienceConfig

__all__ = ["ClusterConfig", "ClusterServer", "ClusterError"]

#: Seconds to wait for one worker to boot and report its port.
BOOT_TIMEOUT = 60.0

#: Ops the front-end answers itself (everything else goes to a shard).
FRONTEND_OPS = ("stats", "shards", "drain", "restart", "snapshot",
                "health", "metrics", "sources", "slowlog", "reload")

#: Worker counters summed into the aggregated ``stats`` op.
_SUMMED_STATS = ("requests", "completed", "rejected", "errors", "reloads",
                 "in_flight")
_SUMMED_CACHE = ("hits", "misses", "evictions", "invalidations", "coalesced", "size")


class ClusterError(RuntimeError):
    """Cluster lifecycle failure (worker boot, front-end state)."""


class _ShardDied(Exception):
    """The shard's connection dropped while this request was in flight."""


@dataclass(frozen=True)
class ClusterConfig:
    """Topology and per-worker tuning for one :class:`ClusterServer`."""

    #: Built-in scenario the workers serve (e.g. ``("K_Amazon",)``);
    #: checked here, before any worker is spawned.
    spec_names: tuple[str, ...]
    #: Worker process count (the shard count).
    processes: int = 2
    #: Admission-control knobs applied inside each worker.
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: Directory for per-shard warm-start snapshots (``None`` disables).
    snapshot_dir: str | None = None
    #: Seconds between periodic worker snapshots (0 = only on shutdown).
    snapshot_interval: float = 30.0
    #: Hottest-entry bound per snapshot (``None`` = whole cache).
    snapshot_limit: int | None = None
    #: Give each worker its own continuous-telemetry registry.
    metrics: bool = False
    #: Resilience config each worker's mediator is wrapped with.
    resilience: ResilienceConfig | None = None

    def __post_init__(self) -> None:
        scenario_factory(self.spec_names)
        if self.processes < 1:
            raise ValueError(f"processes must be >= 1, got {self.processes}")
        if self.snapshot_interval < 0:
            raise ValueError(
                f"snapshot_interval must be >= 0, got {self.snapshot_interval}"
            )
        if self.snapshot_limit is not None and self.snapshot_limit < 0:
            raise ValueError(
                f"snapshot_limit must be >= 0, got {self.snapshot_limit}"
            )


class _Shard:
    """Front-end state for one worker process + its multiplexed pipe."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.process: multiprocessing.process.BaseProcess | None = None
        self.pid: int | None = None
        self.port: int | None = None
        self.restored: dict | None = None
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.reader_task: asyncio.Task | None = None
        self.pending: dict[str, asyncio.Future] = {}
        self.write_lock: asyncio.Lock | None = None
        self.alive = False
        self.draining = False
        self.routed = 0
        self.restarts = 0

    @property
    def routable(self) -> bool:
        return self.alive and not self.draining

    def topology(self) -> dict:
        return {
            "shard": self.shard_id,
            "pid": self.pid,
            "alive": self.alive,
            "draining": self.draining,
            "routed": self.routed,
            "restarts": self.restarts,
            "in_flight": len(self.pending),
        }


class ClusterServer:
    """The multi-process ``repro serve`` front-end (see module docstring).

    Synchronous lifecycle API (:meth:`start` / :meth:`stop` /
    :meth:`restart_shard` / :meth:`kill_shard`) drives a private asyncio
    loop thread, so the CLI, the tests, and the benches all use the same
    object without touching asyncio themselves.
    """

    def __init__(self, config: ClusterConfig, host: str = "127.0.0.1", port: int = 0):
        self.config = config
        self.host = host
        self.port = port
        self.shards = [_Shard(i) for i in range(config.processes)]
        self._mp = multiprocessing.get_context("spawn")
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._server: asyncio.base_events.Server | None = None
        self._next_call = 0
        self._started = False
        self._client_tasks: set[asyncio.Task] = set()
        # Front-end counters (reported under stats.frontend).
        self.requests = 0
        self.failovers = 0
        self.worker_deaths = 0

    # -- sync lifecycle -------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if not self._started or self._server is None:
            raise ClusterError("cluster is not serving")
        return self._server.sockets[0].getsockname()[:2]

    def start(self) -> tuple[str, int]:
        """Spawn workers, connect, bind the client port; returns (host, port)."""
        if self._started:
            raise ClusterError("cluster already started")
        for shard in self.shards:
            self._spawn_worker(shard)
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="cluster-frontend", daemon=True
        )
        self._loop_thread.start()
        try:
            self._run(self._async_start(), timeout=BOOT_TIMEOUT)
        except Exception:
            self.stop()
            raise
        self._started = True
        return self.address

    def stop(self) -> None:
        """Stop serving, terminate workers (each writes a final snapshot)."""
        if self._loop is not None and self._loop.is_running():
            try:
                self._run(self._async_stop(), timeout=30.0)
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=10.0)
            self._loop_thread = None
        if self._loop is not None:
            self._loop.close()
            self._loop = None
        for shard in self.shards:
            self._terminate_worker(shard)
        self._started = False

    def restart_shard(self, shard_id: int) -> dict:
        """Rolling restart of one shard, warm from its final snapshot."""
        return self._run(self._async_restart(shard_id), timeout=120.0)

    def reload_specs(self, spec_dicts: list[dict]) -> dict:
        """Rolling hot reload of declarative specs across every shard.

        The synchronous face of the ``reload`` front-end op — what
        ``--watch-registry`` calls when the registry changes under a
        running cluster.
        """
        return self._run(self._async_reload(list(spec_dicts)), timeout=120.0)

    def kill_shard(self, shard_id: int) -> None:
        """Hard-kill one worker (fault injection for tests/smoke)."""
        shard = self.shards[shard_id]
        if shard.process is not None:
            shard.process.kill()
            shard.process.join(timeout=10.0)

    def __enter__(self) -> "ClusterServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self, coro: Any, timeout: float) -> Any:
        if self._loop is None:
            raise ClusterError("cluster loop is not running")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    # -- worker process management (sync; called from loop via executor) ------

    def _spawn_worker(self, shard: _Shard) -> None:
        parent, child = self._mp.Pipe()
        process = self._mp.Process(
            target=worker_main,
            args=(shard.shard_id, self.config.spec_names, self.config.service, child),
            kwargs={
                "snapshot_dir": self.config.snapshot_dir,
                "snapshot_interval": self.config.snapshot_interval,
                "snapshot_limit": self.config.snapshot_limit,
                "metrics": self.config.metrics,
                "resilience": self.config.resilience,
            },
            daemon=True,
        )
        process.start()
        child.close()
        try:
            if not parent.poll(BOOT_TIMEOUT):
                raise ClusterError(
                    f"shard {shard.shard_id}: worker did not report within "
                    f"{BOOT_TIMEOUT}s"
                )
            report = parent.recv()
        except EOFError:
            raise ClusterError(
                f"shard {shard.shard_id}: worker died during boot"
            ) from None
        finally:
            parent.close()
        if "error" in report:
            raise ClusterError(f"shard {shard.shard_id}: {report['error']}")
        shard.process = process
        shard.pid = report["pid"]
        shard.port = report["port"]
        shard.restored = report.get("restored")

    def _terminate_worker(self, shard: _Shard) -> None:
        process = shard.process
        if process is None:
            return
        if process.is_alive():
            process.terminate()  # SIGTERM -> graceful shutdown + final snapshot
            process.join(timeout=15.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        shard.process = None
        shard.alive = False

    # -- async internals ------------------------------------------------------

    async def _async_start(self) -> None:
        for shard in self.shards:
            await self._connect_shard(shard)
        # readuntil admits a separator at index == limit, so this limit
        # bounds a client line, newline included, at MAX_LINE_BYTES.
        self._server = await asyncio.start_server(
            self._serve_client, host=self.host, port=self.port,
            limit=MAX_LINE_BYTES - 1,
        )

    async def _async_stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._client_tasks):
            task.cancel()
        if self._client_tasks:
            await asyncio.gather(*self._client_tasks, return_exceptions=True)
        self._client_tasks.clear()
        for shard in self.shards:
            await self._disconnect_shard(shard)

    async def _connect_shard(self, shard: _Shard) -> None:
        assert shard.port is not None
        shard.reader, shard.writer = await asyncio.open_connection(
            "127.0.0.1", shard.port, limit=MAX_LINE_BYTES
        )
        shard.write_lock = asyncio.Lock()
        shard.pending = {}
        shard.alive = True
        shard.reader_task = asyncio.ensure_future(self._read_responses(shard))

    async def _disconnect_shard(self, shard: _Shard) -> None:
        if shard.reader_task is not None:
            shard.reader_task.cancel()
            try:
                await shard.reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            shard.reader_task = None
        if shard.writer is not None:
            shard.writer.close()
            shard.writer = None
        shard.reader = None
        shard.alive = False

    async def _read_responses(self, shard: _Shard) -> None:
        """Resolve this shard's in-flight futures; detect worker death."""
        assert shard.reader is not None
        try:
            while True:
                raw = await shard.reader.readline()
                if not raw:
                    break
                try:
                    response = json.loads(raw.decode("utf-8", errors="replace"))
                except (ValueError, RecursionError):
                    continue  # a torn line; the future times out via death below
                call_id = response.pop("id", None)
                future = shard.pending.pop(call_id, None)
                if future is not None and not future.done():
                    future.set_result(response)
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 - connection torn down
            pass
        # Worker is gone: fail everything in flight so callers fail over.
        if shard.alive:
            shard.alive = False
            self.worker_deaths += 1
        for future in list(shard.pending.values()):
            if not future.done():
                future.set_exception(_ShardDied(f"shard {shard.shard_id} died"))
        shard.pending.clear()

    async def _call_shard(self, shard: _Shard, payload: dict) -> dict:
        """One request/response over the shard's multiplexed connection.

        The forwarded line escapes non-ASCII text and carries the call id,
        so it can pass :data:`MAX_LINE_BYTES` when the client's line did
        not.  Such a request gets the bound's ``bad-request`` here and is
        never sent: the worker would answer it without the call id.
        """
        if not shard.alive or shard.writer is None or shard.write_lock is None:
            raise _ShardDied(f"shard {shard.shard_id} is down")
        self._next_call += 1
        call_id = f"c{self._next_call}"
        line = (json.dumps({**payload, "id": call_id}) + "\n").encode("utf-8")
        if len(line) > MAX_LINE_BYTES:
            return error_response(
                payload, "bad-request", LINE_TOO_LONG["error"]["message"]
            )
        assert self._loop is not None
        future: asyncio.Future = self._loop.create_future()
        shard.pending[call_id] = future
        try:
            async with shard.write_lock:
                shard.writer.write(line)
                await shard.writer.drain()
        except (ConnectionError, OSError) as exc:
            shard.pending.pop(call_id, None)
            raise _ShardDied(f"shard {shard.shard_id} died mid-write") from exc
        try:
            return await future
        finally:
            shard.pending.pop(call_id, None)

    # -- routing --------------------------------------------------------------

    async def _route(self, payload: dict, request: dict) -> dict:
        """Send one request to the least-loaded routable shard.

        Every worker holds the whole rule set, so any live one answers
        exactly as one process would.  The shard with the fewest requests
        in flight takes it, the lowest shard id on a tie; a shard that
        dies mid-request is skipped and the next one is tried.
        """
        tried: set[int] = set()
        while True:
            candidates = [
                shard for shard in self.shards
                if shard.routable and shard.shard_id not in tried
            ]
            if not candidates:
                return error_response(
                    request, "no-workers", "no live worker shard can take this request"
                )
            shard = min(candidates, key=lambda candidate: len(candidate.pending))
            tried.add(shard.shard_id)
            shard.routed += 1
            try:
                return await self._call_shard(shard, payload)
            except _ShardDied:
                self.failovers += 1

    # -- client connections ---------------------------------------------------

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        current = asyncio.current_task()
        if current is not None:
            self._client_tasks.add(current)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    raw = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    raw = exc.partial  # the last line may lack its newline
                    if not raw:
                        break
                except asyncio.LimitOverrunError:
                    await _discard_line(reader)
                    await _send(writer, write_lock, LINE_TOO_LONG)
                    continue
                text = raw.decode("utf-8", errors="replace").strip()
                if not text or text.startswith("#"):
                    continue
                task = asyncio.ensure_future(
                    self._answer_line(text, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            pass  # front-end shutdown with the client still connected
        finally:
            if current is not None:
                self._client_tasks.discard(current)
            for task in tasks:
                task.cancel()
            writer.close()

    async def _answer_line(
        self, line: str, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        try:
            response = await self._handle_line(line)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - never tear the connection
            response = error_response(
                None, "internal-error", f"{type(exc).__name__}: {exc}"
            )
        await _send(writer, write_lock, response)

    async def _handle_line(self, line: str) -> dict:
        request, decode_error = decode_line(line)
        if decode_error is not None:
            return decode_error
        assert request is not None
        self.requests += 1
        op = request.get("op")
        client_id = request.get("id", _MISSING)
        payload = {k: v for k, v in request.items() if k != "id"}

        if op == "ping":
            response: dict = {}
            if client_id is not _MISSING:
                response["id"] = client_id
            response.update(op=op, ok=True, pong=True)
            return response
        if op in FRONTEND_OPS:
            response = await self._frontend_op(op, request)
        else:
            # translate / mediate / batch / unknown ops: a worker
            # produces the exact single-process response (including the
            # unknown-op error listing the protocol's op table).
            response = await self._route(payload, request)
        if client_id is not _MISSING:
            response["id"] = client_id
        else:
            response.pop("id", None)
        return response

    # -- front-end ops --------------------------------------------------------

    async def _frontend_op(self, op: str, request: dict) -> dict:
        base: dict = {"op": op}
        if op == "shards":
            return {**base, "ok": True, "shards": [s.topology() for s in self.shards]}
        if op == "drain":
            return await self._op_drain(request, base)
        if op == "restart":
            shard_id, bad = self._shard_arg(request)
            if bad is not None:
                return bad
            result = await self._async_restart(shard_id)
            return {**base, "ok": True, "restart": result}
        if op == "snapshot":
            per_shard = await self._fanout({"op": "snapshot"})
            return {**base, "ok": True, "snapshots": per_shard}
        if op == "reload":
            return await self._op_reload(request, base)
        if op == "stats":
            return {**base, "ok": True, "stats": await self._aggregate_stats()}
        if op == "health":
            return {**base, "ok": True, "health": await self._aggregate_health()}
        if op == "sources":
            return await self._aggregate_sources(base)
        if op == "slowlog":
            n = request.get("n", 10)
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                return error_response(request, "bad-request", "'n' must be a positive integer")
            return await self._aggregate_slowlog(base, n)
        if op == "metrics":
            return await self._aggregate_metrics(base, request)
        raise AssertionError(f"unhandled front-end op {op!r}")

    def _shard_arg(self, request: dict) -> tuple[int, dict | None]:
        shard_id = request.get("shard")
        if (
            not isinstance(shard_id, int)
            or isinstance(shard_id, bool)
            or not 0 <= shard_id < len(self.shards)
        ):
            return -1, error_response(
                request,
                "bad-request",
                f"'shard' must be an integer in [0, {len(self.shards) - 1}]",
            )
        return shard_id, None

    async def _op_drain(self, request: dict, base: dict) -> dict:
        shard_id, bad = self._shard_arg(request)
        if bad is not None:
            return bad
        shard = self.shards[shard_id]
        if request.get("resume"):
            shard.draining = False
            return {**base, "ok": True, "shard": shard.topology()}
        shard.draining = True
        await self._wait_drained(shard)
        return {**base, "ok": True, "shard": shard.topology()}

    async def _wait_drained(self, shard: _Shard, timeout: float = 30.0) -> None:
        deadline = asyncio.get_event_loop().time() + timeout
        while shard.pending and asyncio.get_event_loop().time() < deadline:
            await asyncio.sleep(0.01)

    async def _op_reload(self, request: dict, base: dict) -> dict:
        try:
            spec_dicts = resolve_reload_specs(request, set(self.config.spec_names))
        except ValueError as exc:
            return error_response(request, "bad-request", str(exc))
        except Exception as exc:  # noqa: BLE001 - registry load failures
            return error_response(
                request, type(exc).__name__, str(exc) or type(exc).__name__
            )
        result = await self._async_reload(spec_dicts)
        return {**base, **result}

    async def _async_reload(self, spec_dicts: list[dict]) -> dict:
        """Coordinated rolling reload: drain -> swap -> precompile -> re-admit.

        Shards reload one at a time, so at every instant all-but-one
        shard keeps serving (new requests go to the other shards while
        it drains, exactly like a rolling restart) and each response is
        computed wholly against the old or wholly against the new rule
        set — never a mix.  The worker-side swap precompiles the new
        spec's closures before it lands (``MediationService.reload_spec``),
        and each worker's snapshot table follows the swap, so warm-start
        snapshots are discarded only for the specs that actually changed.
        """
        shard_reports: list[dict] = []
        ok = True
        for shard in self.shards:
            if not shard.alive:
                ok = False
                shard_reports.append(
                    {"shard": shard.shard_id, "ok": False, "error": "shard is down"}
                )
                continue
            shard.draining = True
            try:
                await self._wait_drained(shard)
                response = await self._call_shard(
                    shard, {"op": "reload", "specs": spec_dicts}
                )
            except _ShardDied as exc:
                ok = False
                shard_reports.append(
                    {"shard": shard.shard_id, "ok": False, "error": str(exc)}
                )
                continue
            finally:
                shard.draining = False
            entry = {"shard": shard.shard_id, **response}
            entry.pop("op", None)
            if not response.get("ok"):
                ok = False
            shard_reports.append(entry)
        return {"ok": ok, "reload": shard_reports}

    async def _async_restart(self, shard_id: int) -> dict:
        """Drain -> snapshot via SIGTERM -> respawn -> warm reconnect."""
        shard = self.shards[shard_id]
        shard.draining = True
        await self._wait_drained(shard)
        await self._disconnect_shard(shard)
        loop = asyncio.get_event_loop()
        await loop.run_in_executor(None, self._terminate_worker, shard)
        await loop.run_in_executor(None, self._spawn_worker, shard)
        await self._connect_shard(shard)
        shard.draining = False
        shard.restarts += 1
        return shard.topology() | {"restored": shard.restored}

    # -- aggregation ----------------------------------------------------------

    def _live_shards(self) -> Iterable[_Shard]:
        return (shard for shard in self.shards if shard.alive)

    async def _fanout(self, payload: dict) -> list[dict]:
        """One op against every live shard; per-shard results labeled."""
        shards = list(self._live_shards())
        results = await asyncio.gather(
            *(self._call_shard(shard, payload) for shard in shards),
            return_exceptions=True,
        )
        out = []
        for shard, result in zip(shards, results):
            if isinstance(result, BaseException):
                out.append({"shard": shard.shard_id, "ok": False, "error": str(result)})
            else:
                out.append({"shard": shard.shard_id, **result})
        return out

    async def _aggregate_stats(self) -> dict:
        per_shard = await self._fanout({"op": "stats"})
        aggregated: dict[str, Any] = dict.fromkeys(_SUMMED_STATS, 0)
        cache: dict[str, Any] = dict.fromkeys(_SUMMED_CACHE, 0)
        cache["maxsize"] = 0
        queue_high_water = 0
        latency_total = 0.0
        latency_max = 0.0
        completed = 0
        seen_cache = False
        shards_out = []
        for shard, entry in zip(self.shards, self._merge_topology(per_shard)):
            shards_out.append(entry)
            stats = entry.get("stats")
            if not stats:
                continue
            for name in _SUMMED_STATS:
                aggregated[name] += stats.get(name, 0)
            queue_high_water = max(queue_high_water, stats.get("queue_high_water", 0))
            latency_max = max(latency_max, stats.get("latency_max_ms", 0.0))
            latency_total += stats.get("latency_mean_ms", 0.0) * stats.get("completed", 0)
            completed += stats.get("completed", 0)
            if stats.get("cache"):
                seen_cache = True
                for name in _SUMMED_CACHE:
                    cache[name] += stats["cache"].get(name, 0)
                cache["maxsize"] += stats["cache"].get("maxsize", 0)
        lookups = cache["hits"] + cache["misses"]
        cache["hit_rate"] = round(cache["hits"] / lookups, 4) if lookups else 0.0
        aggregated.update(
            queue_high_water=queue_high_water,
            latency_mean_ms=round(latency_total / completed, 3) if completed else 0.0,
            latency_max_ms=latency_max,
            max_concurrency=self.config.service.max_concurrency,
            queue_depth=self.config.service.queue_depth,
            cache=cache if seen_cache else None,
        )
        aggregated["shards"] = shards_out
        aggregated["frontend"] = {
            "processes": len(self.shards),
            "requests": self.requests,
            "failovers": self.failovers,
            "worker_deaths": self.worker_deaths,
        }
        return aggregated

    def _merge_topology(self, per_shard: list[dict]) -> list[dict]:
        """Join fan-out results (live shards only) with full topology."""
        by_shard = {entry["shard"]: entry for entry in per_shard}
        merged = []
        for shard in self.shards:
            entry = shard.topology()
            result = by_shard.get(shard.shard_id)
            if result is not None and result.get("ok"):
                for key, value in result.items():
                    if key not in ("id", "op", "ok", "shard"):
                        entry[key] = value
            merged.append(entry)
        return merged

    async def _aggregate_health(self) -> dict:
        per_shard = await self._fanout({"op": "health"})
        out: dict[str, Any] = {
            "status": "ok",
            "metrics_enabled": self.config.metrics,
            "in_flight": 0,
            "requests": 0,
            "rejected": 0,
            "errors": 0,
            "sources": {},
            "shards": [],
        }
        live = 0
        for entry in per_shard:
            health = entry.get("health")
            out["shards"].append(
                {"shard": entry["shard"], "status": (health or {}).get("status", "down")}
            )
            if not health:
                continue
            live += 1
            for name in ("in_flight", "requests", "rejected", "errors"):
                out[name] += health.get(name, 0)
            for source, card in health.get("sources", {}).items():
                known = out["sources"].setdefault(source, card)
                if card.get("breaker_state") not in (None, "closed"):
                    known.update(card)
            if health.get("status") != "ok":
                out["status"] = "degraded"
        if live < len(self.shards):
            out["status"] = "degraded"
        if live == 0:
            out["status"] = "down"
        return out

    async def _aggregate_sources(self, base: dict) -> dict:
        per_shard = await self._fanout({"op": "sources"})
        failed = [e for e in per_shard if not e.get("ok")]
        if failed and len(failed) == len(per_shard):
            return {**base, **{k: v for k, v in failed[0].items() if k != "shard"}}
        cards = [e["sources"] for e in per_shard if e.get("ok")]
        return {
            **base,
            "ok": True,
            "sources": aggregate_scorecards(cards),
            "shards": [
                {"shard": e["shard"], "sources": e.get("sources")}
                for e in per_shard
                if e.get("ok")
            ],
        }

    async def _aggregate_slowlog(self, base: dict, n: int) -> dict:
        per_shard = await self._fanout({"op": "slowlog", "n": n})
        failed = [e for e in per_shard if not e.get("ok")]
        if failed and len(failed) == len(per_shard):
            return {**base, **{k: v for k, v in failed[0].items() if k != "shard"}}
        merged: dict[tuple[str, str], dict] = {}
        for entry in per_shard:
            if not entry.get("ok"):
                continue
            for item in entry["slowlog"]:
                key = (item["op"], item["fingerprint"])
                known = merged.get(key)
                if known is None:
                    merged[key] = dict(item)
                    continue
                total = known["count"] + item["count"]
                known["mean_ms"] = round(
                    (known["mean_ms"] * known["count"] + item["mean_ms"] * item["count"])
                    / total,
                    3,
                )
                known["count"] = total
                known["max_ms"] = max(known["max_ms"], item["max_ms"])
        top = sorted(merged.values(), key=lambda e: e["max_ms"], reverse=True)[:n]
        return {**base, "ok": True, "slowlog": top}

    async def _aggregate_metrics(self, base: dict, request: dict) -> dict:
        if request.get("format", "json") != "json":
            return error_response(
                request,
                "bad-request",
                "cluster mode serves metrics as JSON; scrape workers "
                "individually for Prometheus exposition",
            )
        per_shard = await self._fanout({"op": "metrics"})
        failed = [e for e in per_shard if not e.get("ok")]
        if failed and len(failed) == len(per_shard):
            return {**base, **{k: v for k, v in failed[0].items() if k != "shard"}}
        counters: dict[str, float] = {}
        for entry in per_shard:
            if not entry.get("ok"):
                continue
            for name, counter in entry["metrics"].get("counters", {}).items():
                counters[name] = counters.get(name, 0) + counter.get("total", 0)
        return {
            **base,
            "ok": True,
            "metrics": {
                "aggregated": {"counters": counters},
                "shards": [
                    {"shard": e["shard"], "metrics": e.get("metrics")}
                    for e in per_shard
                    if e.get("ok")
                ],
            },
        }


_MISSING = object()


async def _discard_line(reader: asyncio.StreamReader) -> None:
    """Drop the client's input through the end of the current line.

    ``readuntil`` leaves an overlong line in the buffer; dropping only
    what was buffered would hand the line's tail back as a new line.
    """
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return


async def _send(
    writer: asyncio.StreamWriter, write_lock: asyncio.Lock, response: dict
) -> None:
    """Write one response line; a client that went away is not an error."""
    encoded = encode_response(response) + "\n"
    try:
        async with write_lock:
            writer.write(encoded.encode("utf-8"))
            await writer.drain()
    except (ConnectionError, OSError):
        pass
