"""Transports for ``repro serve``: JSON-lines over stdio pipes and TCP.

Both transports read request lines through one bounded reader and
answer each with :func:`~repro.serve.protocol.handle_line` over one
shared :class:`~repro.serve.MediationService`, so every connection and
every pipelined line benefits from the same translation cache and
admission budget.  A cluster worker is this TCP server too.

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

A request line is read up to :data:`~repro.serve.protocol.MAX_LINE_BYTES`
(characters on a text stream such as stdin, bytes on a socket).  A
longer line is read through to its end and dropped, and answered with
:data:`~repro.serve.protocol.LINE_TOO_LONG`; the conversation goes on.

No client input may tear a connection down: the per-line handler is
wrapped so that anything :func:`~repro.serve.protocol.handle_line`'s
own guards miss still produces a structured ``internal-error`` response
on the wire (and the connection keeps serving).
"""

from __future__ import annotations

import socketserver
import threading
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from typing import IO, Any

from repro.serve.protocol import (
    LINE_TOO_LONG,
    MAX_LINE_BYTES,
    encode_response,
    error_response,
    handle_line,
)
from repro.serve.service import MediationService

__all__ = ["serve_jsonl", "serve_tcp"]


def _ends_line(chunk: str | bytes) -> bool:
    """Does this ``readline(MAX_LINE_BYTES)`` chunk end its line or the input?"""
    if len(chunk) < MAX_LINE_BYTES:
        return True
    if isinstance(chunk, bytes):
        return chunk.endswith(b"\n")
    return chunk.endswith("\n")


def _request_lines(stream: IO[Any]) -> Iterator[str | None]:
    """The request lines of a text or binary stream, stripped; ``None`` for one too long.

    Blank lines and ``#`` comments are skipped.  A line past
    :data:`MAX_LINE_BYTES` is read through to its end and dropped.
    """
    while True:
        raw = stream.readline(MAX_LINE_BYTES)
        if not raw:
            return
        if not _ends_line(raw):
            while not _ends_line(stream.readline(MAX_LINE_BYTES)):
                pass
            yield None
            continue
        line = raw.decode("utf-8", errors="replace") if isinstance(raw, bytes) else raw
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


def _answer(service: MediationService, line: str | None) -> str:
    """One response line for one request line; any escape becomes a structured error."""
    if line is None:
        return encode_response(LINE_TOO_LONG)
    try:
        return handle_line(service, line)
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
    write_lock = threading.Lock()
    handled = 0

    def respond(line: str | None) -> None:
        response = _answer(service, line)
        with write_lock:
            outfile.write(response + "\n")
            outfile.flush()

    lines = _request_lines(infile)
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
        for line in _request_lines(self.rfile):
            self._write(_answer(self.server.service, line))

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

        def respond(line: str | None) -> None:
            response = _answer(self.server.service, line)
            with write_lock:
                try:
                    self._write(response)
                    self.wfile.flush()
                except (OSError, ValueError):  # client went away mid-response
                    pass

        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serve-pipeline"
        ) as pool:
            for line in _request_lines(self.rfile):
                pool.submit(respond, line)


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: MediationService,
        *,
        pipeline_workers: int = 1,
    ):
        super().__init__(address, _JsonLinesHandler)
        self.service = service
        self.pipeline_workers = pipeline_workers


def serve_tcp(
    service: MediationService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    pipeline_workers: int = 1,
) -> _Server:
    """A threading TCP server bound to ``(host, port)`` — not yet serving.

    ``port=0`` binds an ephemeral port; read the real one from
    ``server.server_address``.  Call ``serve_forever()`` (blocking, the
    CLI does this) or drive it from a thread and ``shutdown()`` when
    done (what the tests do).  ``pipeline_workers`` > 1 turns on
    per-connection pipelined dispatch (see :class:`_JsonLinesHandler`).
    """
    return _Server((host, port), service, pipeline_workers=pipeline_workers)
