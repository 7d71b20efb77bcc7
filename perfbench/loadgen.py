"""Open-loop HTTP/1.1 load generator on pipelined keep-alive connections.

One asyncio process sends a fixed request plan on a schedule: request ``i``
is due at ``t0 + i / rate`` and is written as soon as the sender wakes at
or after that time, whatever the state of earlier requests (an open loop:
independent users, so a stalled server builds a queue).  Requests are
spread round-robin over at most ``nproc`` connections; responses on one
connection arrive in request order (HTTP pipelining), so each response is
matched to the oldest request outstanding on its connection.

Latency is timed from each request's *due* time, not its send time, so a
stall that delays later sends is charged to them too; how late the sender
ran is reported separately.
"""

from __future__ import annotations

import asyncio
import gc
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from tracing import CLOCK


@dataclass
class PhaseResult:
    """Per-request outcome of one scheduled phase."""

    rate: float
    due: list[float]
    done: list[float]
    status: list[int]
    bodies: list[bytes | None]
    late: list[float] = field(default_factory=list)
    backlog_end: int = 0
    wall: float = 0.0
    #: Optional ``tagger()`` value recorded at each send and each reply
    #: (the update phase records the live revision the client knew).
    tag_sent: list[int] = field(default_factory=list)
    tag_done: list[int] = field(default_factory=list)

    @property
    def latencies_ms(self) -> list[float]:
        """Due-to-completion latency of every completed request."""
        return [(d - s) * 1e3 for s, d in zip(self.due, self.done) if not math.isnan(d)]

    @property
    def timed_out(self) -> int:
        """Requests never answered."""
        return sum(1 for d in self.done if math.isnan(d))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); NaN when empty."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class _Connection(asyncio.Protocol):
    """A client connection that slices pipelined responses off the wire."""

    def __init__(self) -> None:
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        self.pending: deque[int] = deque()
        self.result: PhaseResult | None = None
        self.tagger: Callable[[], int] | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def connection_lost(self, exc: Exception | None) -> None:
        self.transport = None

    def data_received(self, data: bytes) -> None:
        now = CLOCK()
        buf = self.buffer
        buf += data
        while True:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                return
            at = buf.find(b"Content-Length: ", 0, end)
            length = int(buf[at + 16: buf.find(b"\r\n", at)]) if at >= 0 else 0
            total = end + 4 + length
            if len(buf) < total:
                return
            status = int(buf[9:12])
            body = bytes(buf[end + 4: total])
            del buf[:total]
            index = self.pending.popleft()
            result = self.result
            if result is not None and index >= 0:
                result.done[index] = now
                result.status[index] = status
                result.bodies[index] = body
                if self.tagger is not None:
                    result.tag_done[index] = self.tagger()


class Client:
    """A pool of keep-alive connections to one server."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self.host, self.port, self.size = host, port, connections
        self.conns: list[_Connection] = []

    async def open(self) -> "Client":
        """Connect every connection of the pool."""
        loop = asyncio.get_running_loop()
        for _ in range(self.size):
            _, proto = await loop.create_connection(_Connection, self.host, self.port)
            self.conns.append(proto)
        return self

    def close(self) -> None:
        """Close every connection."""
        for conn in self.conns:
            if conn.transport is not None:
                conn.transport.close()

    async def scheduled(
        self,
        requests: list[bytes],
        rate: float,
        *,
        drain_timeout: float = 5.0,
        stop: asyncio.Event | None = None,
        tagger: Callable[[], int] | None = None,
        slots: list[int] | None = None,
        abort_backlog: int | None = None,
    ) -> PhaseResult:
        """Send ``requests`` open-loop at ``rate`` per second; wait for replies.

        ``slots[i]`` picks the connection of request ``i`` (default: round
        robin).  With ``stop``, sending ends early once the event is set and
        the result covers only the requests sent; with ``abort_backlog`` it
        ends once more requests than that are outstanding.  The client's own
        garbage collector is frozen for the phase so that its pauses are not
        charged to the server.
        """
        n = len(requests)
        result = PhaseResult(rate, [0.0] * n, [math.nan] * n, [0] * n, [None] * n)
        if tagger is not None:
            result.tag_sent = [0] * n
            result.tag_done = [0] * n
        conns = self.conns
        for conn in conns:
            conn.result = result
            conn.tagger = tagger
        interval = 1.0 / rate
        gc.collect()
        gc.freeze()
        gc.disable()
        start = CLOCK() + 0.002
        sent = 0
        while sent < n and not (stop is not None and stop.is_set()):
            if abort_backlog is not None and sum(len(c.pending) for c in conns) > abort_backlog:
                break
            now = CLOCK()
            due = start + sent * interval
            if due > now:
                await asyncio.sleep(due - now)
                now = CLOCK()
            upto = min(n, int((now - start) / interval) + 1)
            result.late.append(now - due)
            tag = tagger() if tagger is not None else 0
            chunks: list[list[bytes]] = [[] for _ in conns]
            for index in range(sent, upto):
                slot = index % len(conns) if slots is None else slots[index] % len(conns)
                result.due[index] = start + index * interval
                if tagger is not None:
                    result.tag_sent[index] = tag
                chunks[slot].append(requests[index])
                conns[slot].pending.append(index)
            for conn, chunk in zip(conns, chunks):
                if chunk and conn.transport is not None:
                    conn.transport.write(b"".join(chunk))
            sent = upto
        if sent < n:
            for column in (result.due, result.done, result.status, result.bodies,
                           result.tag_sent, result.tag_done):
                del column[sent:]
        result.backlog_end = sum(len(conn.pending) for conn in conns)
        deadline = CLOCK() + drain_timeout
        while any(conn.pending for conn in conns) and CLOCK() < deadline:
            await asyncio.sleep(0.002)
        result.wall = CLOCK() - start
        gc.enable()
        gc.unfreeze()
        for conn in conns:
            conn.result = None
            conn.tagger = None
            # Requests still unanswered are timed out; later bytes for them
            # must not be matched to the next phase's requests.
            for _ in range(len(conn.pending)):
                conn.pending.popleft()
                conn.pending.append(-1)
        return result

    async def call(self, request: bytes, timeout: float = 10.0) -> tuple[int, bytes]:
        """One request on the first connection, awaited (closed loop)."""
        result = PhaseResult(0.0, [0.0], [math.nan], [0], [None])
        conn = self.conns[0]
        conn.result = result
        conn.pending.append(0)
        conn.transport.write(request)  # type: ignore[union-attr]
        deadline = CLOCK() + timeout
        while math.isnan(result.done[0]):
            if CLOCK() > deadline:
                raise TimeoutError(f"no response within {timeout}s")
            await asyncio.sleep(0.001)
        conn.result = None
        return result.status[0], result.bodies[0] or b""


def get(path: str) -> bytes:
    """Encode one keep-alive GET."""
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")


def post(path: str, body: bytes) -> bytes:
    """Encode one keep-alive POST with a body."""
    head = f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body
