"""Transports for ``repro serve``: JSON-lines over stdio pipes and TCP.

Both transports speak the protocol in :mod:`repro.serve.protocol` and
share one :class:`~repro.serve.MediationService`, so every connection
and every pipelined line benefits from the same translation cache and
admission budget.

* :func:`serve_jsonl` — read requests line-by-line from a file object
  (stdin in the CLI), dispatch them on a worker pool, write responses
  as they finish.  Responses may be reordered relative to requests —
  clients correlate by ``id`` — but none are lost or duplicated: every
  input line produces exactly one output line, and writes are
  serialized under a lock.
* :func:`serve_tcp` — a threading TCP server, one JSON-lines
  conversation per connection.  Connections are concurrent client
  threads onto the shared service; admission control is global, not
  per-connection.  With ``pipeline_workers > 1`` each connection also
  dispatches its *own* pipelined lines on a thread pool (responses
  correlate by ``id``) — how the cluster front-end keeps one
  multiplexed connection per worker process saturated.

No client input may tear a connection down: the per-line handler is
wrapped so that anything :func:`~repro.serve.protocol.handle_line`'s
own guards miss still produces a structured ``internal-error`` response
on the wire (and the connection keeps serving).
"""

from __future__ import annotations

import socketserver
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import IO

from repro.serve.protocol import encode_response, error_response, handle_line
from repro.serve.service import MediationService

__all__ = ["serve_jsonl", "serve_tcp"]

#: A transport line handler: one request line in, one response line out.
LineHandler = Callable[[str], str]


def _guarded(handler: LineHandler, line: str) -> str:
    """Run ``handler`` on one line; any escape becomes a structured error."""
    try:
        return handler(line)
    except Exception as exc:  # noqa: BLE001 - transport-level last resort
        return encode_response(
            error_response(None, "internal-error", f"{type(exc).__name__}: {exc}")
        )


def serve_jsonl(
    service: MediationService,
    infile: IO[str],
    outfile: IO[str],
    *,
    workers: int = 1,
) -> int:
    """Serve JSON-lines requests from ``infile`` until EOF.

    ``workers`` > 1 dispatches lines on a thread pool (closed-loop
    pipelining); each request still passes the service's admission
    control.  Blank lines and ``#`` comments are skipped.  Returns the
    number of requests handled.
    """
    handler: LineHandler = partial(handle_line, service)
    write_lock = threading.Lock()
    handled = 0

    def respond(line: str) -> None:
        response = _guarded(handler, line)
        with write_lock:
            outfile.write(response + "\n")
            outfile.flush()

    lines = (
        line.strip()
        for line in infile
        if line.strip() and not line.lstrip().startswith("#")
    )
    if workers <= 1:
        for line in lines:
            respond(line)
            handled += 1
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(respond, line) for line in lines]
            for future in futures:
                future.result()  # propagate unexpected (non-protocol) errors
            handled = len(futures)
    return handled


class _JsonLinesHandler(socketserver.StreamRequestHandler):
    """One JSON-lines conversation; the service hangs off the server."""

    server: "_Server"

    def handle(self) -> None:
        if self.server.pipeline_workers > 1:
            self._handle_pipelined(self.server.pipeline_workers)
            return
        for line in self._lines():
            self._write(_guarded(self.server.line_handler, line))

    def _lines(self):
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line or line.startswith("#"):
                continue
            yield line

    def _write(self, response: str) -> None:
        self.wfile.write((response + "\n").encode("utf-8"))

    def _handle_pipelined(self, workers: int) -> None:
        """Dispatch this connection's lines on a pool; serialize writes.

        Pipelined clients (the cluster front-end) get intra-connection
        concurrency — shared cache misses and overlapping source waits —
        at the cost of response ordering, which they recover via ``id``.
        Every line still yields exactly one response line.
        """
        write_lock = threading.Lock()

        def respond(line: str) -> None:
            response = _guarded(self.server.line_handler, line)
            with write_lock:
                try:
                    self._write(response)
                    self.wfile.flush()
                except (OSError, ValueError):  # client went away mid-response
                    pass

        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serve-pipeline"
        ) as pool:
            for line in self._lines():
                pool.submit(respond, line)


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: MediationService,
        *,
        line_handler: LineHandler | None = None,
        pipeline_workers: int = 1,
    ):
        super().__init__(address, _JsonLinesHandler)
        self.service = service
        self.line_handler: LineHandler = line_handler or (
            lambda line: handle_line(service, line)
        )
        self.pipeline_workers = pipeline_workers


def serve_tcp(
    service: MediationService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    line_handler: LineHandler | None = None,
    pipeline_workers: int = 1,
) -> _Server:
    """A threading TCP server bound to ``(host, port)`` — not yet serving.

    ``port=0`` binds an ephemeral port; read the real one from
    ``server.server_address``.  Call ``serve_forever()`` (blocking, the
    CLI does this) or drive it from a thread and ``shutdown()`` when
    done (what the tests do).  ``line_handler`` overrides the per-line
    dispatch (the cluster workers add their own ops on top of the
    protocol); ``pipeline_workers`` > 1 turns on per-connection pipelined
    dispatch (see :class:`_JsonLinesHandler`).
    """
    return _Server(
        (host, port),
        service,
        line_handler=line_handler,
        pipeline_workers=pipeline_workers,
    )
