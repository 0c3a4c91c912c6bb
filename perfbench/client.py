"""Server processes and the closed-loop TCP/JSON-lines client.

:class:`ServerProcess` launches one server command, waits for its
``serving ... on HOST:PORT`` banner on stderr, reads the peak RSS of the
whole process tree, and stops the tree (SIGINT first, so the server's
own shutdown runs and a traced server writes its spans).  After
:func:`adopt_orphans` this process also inherits whatever a server leaves
behind when it exits, so :meth:`ServerProcess.stop` and
:func:`reap_children` wait for every process a run started.

:func:`closed_loop` drives the timed window: each of :data:`CONNECTIONS`
connections sends its next request line only after the previous response
line has arrived.
"""

from __future__ import annotations

import gc
import itertools
import os
import re
import selectors
import signal
import socket
import subprocess
import time
from collections.abc import Callable
from dataclasses import dataclass, field

_BANNER = re.compile(r"serving .* on ([\w.:-]+):(\d+) ")

#: Seconds one request may take before it counts as failed.
REQUEST_TIMEOUT = 30.0
#: Closed-loop connections the client keeps open.
CONNECTIONS = 2


class ServerError(RuntimeError):
    """The server did not start, or stopped answering."""


class ServerProcess:
    """One server process tree started from ``argv``."""

    def __init__(
        self, argv: list[str], *, cwd: str, env: dict, log_path: str, cpus: set[int] | None = None
    ):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            argv,
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        if cpus:
            # Threads the server starts later inherit this affinity.
            os.sched_setaffinity(self.proc.pid, cpus)

    def wait_address(self, timeout: float = 120.0) -> tuple[str, int]:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with open(self.log_path, "rb") as handle:
                text = handle.read().decode("utf-8", errors="replace")
            match = _BANNER.search(text)
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise ServerError(f"server exited ({self.proc.returncode}): {text[-2000:]}")
            time.sleep(0.002)
        raise ServerError(f"no serving banner within {timeout}s")

    def tree(self) -> list[int]:
        """This server's pid and every descendant pid."""
        pids, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            pids.append(pid)
            frontier.extend(children(pid))
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over the process tree, in MiB."""
        total_kb = 0
        for pid in self.tree():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self, timeout: float = 15.0) -> int | None:
        """Interrupt the server, then make sure its whole tree is gone."""
        pids = self.tree()
        for sig, wait in ((signal.SIGINT, timeout), (signal.SIGTERM, 5.0), (signal.SIGKILL, 10.0)):
            if self.proc.poll() is not None:
                break
            self.proc.send_signal(sig)
            try:
                self.proc.wait(wait)
            except subprocess.TimeoutExpired:
                continue
        for pid in pids[1:]:
            _reap(pid)
        self._log.close()
        return self.proc.returncode


#: ``PR_SET_CHILD_SUBREAPER`` from ``<linux/prctl.h>``.
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Become the parent of every orphan of the processes this one starts.

    A server's own children (cluster workers, a resource tracker) would
    otherwise pass to the system's init when the server exits, out of
    this process's reach; as their child subreaper it can wait for each.
    Returns whether it now is.
    """
    try:
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return False  # not Linux: _reap falls back to watching /proc
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def _reap(pid: int) -> None:
    """Kill a leftover descendant and wait until it is gone."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    try:
        os.waitpid(pid, 0)
        return
    except ChildProcessError:
        pass  # not adopted: watch it instead
    for _ in range(500):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                if handle.read().split(") ", 1)[1].startswith("Z"):
                    return  # a zombie of a process we did not start
        except OSError:
            return
        time.sleep(0.01)


def children(pid: int | str = "self") -> list[int]:
    """Pids of a process's children, exited but not yet waited for included."""
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return []
    found = []
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(c) for c in handle.read().split())
        except OSError:
            continue
    return found


def reap_children() -> None:
    """Kill and wait for every child this process still has, adopted or not."""
    for pid in children():
        _reap(pid)


class Connection:
    """One blocking JSON-lines connection."""

    def __init__(self, address: tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=REQUEST_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, line: bytes) -> bytes:
        """Send one line, return the response line (without the newline)."""
        self.sock.sendall(line)
        response = self.reader.readline()
        if not response.endswith(b"\n"):
            raise ConnectionError("connection closed mid-response")
        return response[:-1]

    def close(self) -> None:
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass


@dataclass
class Window:
    """Everything one timed window observed."""

    #: (stream index, connection, send ns, receive ns, response or None).
    samples: list = field(default_factory=list)
    start_ns: int = 0
    #: When the last response arrived.
    end_ns: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _write(sock: socket.socket, data: bytes) -> None:
    """Write all of ``data`` to a non-blocking socket."""
    view = memoryview(data)
    while view:
        try:
            view = view[sock.send(view):]
        except BlockingIOError:
            os.sched_yield()


def closed_loop(
    address: tuple[str, int],
    lines: list[bytes],
    seconds: float,
    spin: bool,
    probe: tuple[int, Callable[[int], None]] | None = None,
) -> Window:
    """Send ``lines`` in order over :data:`CONNECTIONS` closed loops for ``seconds``.

    One thread multiplexes every connection with non-blocking sockets; a
    second client thread would contend for the client's interpreter lock.
    With ``spin`` it polls without sleeping (yielding the CPU when nothing
    arrived), so on a CPU of its own it never waits for that CPU to be
    woken; without, it sleeps until a response arrives, leaving the CPUs
    it shares with the server to the server.  Requests still in flight
    when the time is up complete and count; the window ends when the last
    of them has answered, or sooner if ``lines`` run out.  A request that
    times out or loses its connection, on sending or on receiving, is
    recorded with response ``None`` and its connection is reopened; a
    connection that cannot be reopened sends no more.  ``probe`` is
    ``(count, call)``: ``call`` gets the number of requests done, once,
    as soon as it reaches ``count``.
    """
    socks: list[socket.socket | None] = [None] * CONNECTIONS
    buffers = [bytearray() for _ in range(CONNECTIONS)]
    #: per connection: (stream index, send ns) of its request in flight.
    pending: list[tuple[int, int] | None] = [None] * CONNECTIONS
    samples: list[tuple] = []
    order = itertools.count()
    timeout_ns = int(REQUEST_TIMEOUT * 1e9)
    selector = selectors.DefaultSelector()

    def connect(slot: int) -> None:
        sock = socket.create_connection(address, timeout=REQUEST_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        socks[slot] = sock
        buffers[slot].clear()
        selector.register(sock, selectors.EVENT_READ, slot)

    def close(slot: int) -> None:
        sock = socks[slot]
        if sock is not None:
            selector.unregister(sock)
            sock.close()
            socks[slot] = None

    def fail(slot: int) -> None:
        index, sent = pending[slot]
        samples.append((index, slot, sent, time.perf_counter_ns(), None))
        pending[slot] = None
        close(slot)
        try:
            connect(slot)
        except OSError:
            pass  # the server is gone: this connection is done

    def advance(slot: int) -> None:
        """Send the connection's next request, unless its time is up."""
        while socks[slot] is not None and time.perf_counter_ns() < deadline:
            index = next(order)
            if index >= len(lines):
                break
            pending[slot] = (index, time.perf_counter_ns())
            try:
                _write(socks[slot], lines[index])
                return
            except OSError:
                fail(slot)
        pending[slot] = None
        close(slot)

    def receive(slot: int) -> None:
        try:
            data = socks[slot].recv(1 << 18)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            fail(slot)
            advance(slot)
            return
        buffer = buffers[slot]
        buffer += data
        end = buffer.find(b"\n")
        if end < 0:
            return
        index, sent = pending[slot]
        samples.append((index, slot, sent, time.perf_counter_ns(), bytes(buffer[:end])))
        del buffer[:end + 1]
        advance(slot)

    wait = 0 if spin else 0.05
    try:
        for slot in range(CONNECTIONS):
            connect(slot)
        gc.collect()
        gc.disable()
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        for slot in range(CONNECTIONS):
            advance(slot)
        while any(flight is not None for flight in pending):
            events = selector.select(wait)
            for key, _mask in events:
                if pending[key.data] is not None:
                    receive(key.data)
            if probe is not None and len(samples) >= probe[0]:
                probe[1](len(samples))
                probe = None
            if not events and spin:
                os.sched_yield()
            now = time.perf_counter_ns()
            for slot, flight in enumerate(pending):
                if flight is not None and now - flight[1] > timeout_ns:
                    fail(slot)
                    advance(slot)
    finally:
        gc.enable()
        for slot in range(CONNECTIONS):
            close(slot)
        selector.close()
    samples.sort()
    return Window(samples=samples, start_ns=start, end_ns=max((s[3] for s in samples), default=start))
