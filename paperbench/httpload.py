"""A small HTTP/1.1 load client: closed loop and open loop at a fixed rate.

One process, asyncio, at most ``conns`` keep-alive connections.  In the
open loop each request has a due time on a fixed schedule; its latency
is measured from that due time, so a stall also charges the requests
that queued behind it.  The generator's own lateness (``gen_lag``) and
the backlog (requests due but not answered, sampled at each due time)
are recorded too.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_clock = time.perf_counter


@dataclass
class Reply:
    """One request as the client saw it."""

    path: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    source: str = ""
    request_id: str = ""
    digest: str = ""
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def round_trip_ms(self) -> float:
        return (self.done - self.sent) * 1000.0

    @property
    def ok(self) -> bool:
        return not self.error and self.status == 200


@dataclass
class Phase:
    """Every reply of one phase plus the generator's own figures."""

    rate: float
    replies: List[Reply] = field(default_factory=list)
    gen_lag_ms: List[float] = field(default_factory=list)
    backlog: List[int] = field(default_factory=list)
    wall_s: float = 0.0


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int, api_key: str) -> None:
        self.host, self.port, self.api_key = host, port, api_key
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass  # the server may already have dropped the socket
            self.writer = None

    async def get(self, reply: Reply) -> None:
        """Send ``GET reply.path`` and fill in the reply."""
        if self.writer is None:
            await self.open()
        assert self.reader is not None and self.writer is not None
        reply.sent = _clock()
        self.writer.write(
            (f"GET {reply.path} HTTP/1.1\r\nHost: {self.host}\r\n"
             f"X-API-Key: {self.api_key}\r\n\r\n").encode("latin-1")
        )
        try:
            await self.writer.drain()
            head = await self.reader.readuntil(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            reply.status = int(lines[0].split(" ", 2)[1])
            headers: Dict[str, str] = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            body = await self.reader.readexactly(int(headers.get("content-length", "0")))
        except (asyncio.IncompleteReadError, ConnectionError, ValueError) as exc:
            reply.done = _clock()
            reply.error = f"{type(exc).__name__}: {exc}"
            await self.close()
            return
        reply.done = _clock()
        reply.source = headers.get("x-serve-source", "")
        reply.request_id = headers.get("x-request-id", "")
        reply.digest = hashlib.sha256(body).hexdigest()
        if headers.get("connection", "").lower() == "close":
            await self.close()


async def _closed_loop(host: str, port: int, api_key: str,
                       paths: Sequence[str]) -> Phase:
    phase = Phase(rate=0.0)
    conn = Connection(host, port, api_key)
    started = _clock()
    try:
        for path in paths:
            reply = Reply(path, due=_clock())
            await conn.get(reply)
            phase.replies.append(reply)
    finally:
        await conn.close()
    phase.wall_s = _clock() - started
    return phase


def closed_loop(host: str, port: int, api_key: str, paths: Sequence[str]) -> Phase:
    """One client, each request sent after the previous reply."""
    return asyncio.run(_closed_loop(host, port, api_key, paths))


async def _open_loop(host: str, port: int, api_key: str, rate: float,
                     paths: Sequence[str], conns: int, drain_s: float) -> Phase:
    phase = Phase(rate=rate)
    queue: "asyncio.Queue[Optional[Reply]]" = asyncio.Queue()
    done = [0]

    async def worker() -> None:
        conn = Connection(host, port, api_key)
        try:
            while True:
                reply = await queue.get()
                if reply is None:
                    return
                await conn.get(reply)
                done[0] += 1
        finally:
            await conn.close()

    workers = [asyncio.ensure_future(worker()) for _ in range(conns)]
    started = _clock()
    for i, path in enumerate(paths):
        due = started + i / rate
        wait = due - _clock()
        if wait > 0:
            await asyncio.sleep(wait)
        phase.gen_lag_ms.append((_clock() - due) * 1000.0)
        reply = Reply(path, due=due)
        phase.replies.append(reply)
        queue.put_nowait(reply)
        phase.backlog.append(i + 1 - done[0])
    for _ in workers:
        queue.put_nowait(None)
    finished, pending = await asyncio.wait(workers, timeout=drain_s)
    for task in pending:
        task.cancel()
    for task in finished:
        task.result()
    if pending:
        await asyncio.wait(pending)
    for reply in phase.replies:
        if not reply.done and not reply.error:
            reply.error = "no reply before the drain deadline"
    phase.wall_s = _clock() - started
    return phase


def open_loop(host: str, port: int, api_key: str, rate: float,
              paths: Sequence[str], conns: int, drain_s: float) -> Phase:
    """Send ``paths`` at ``rate`` per second over ``conns`` connections."""
    return asyncio.run(_open_loop(host, port, api_key, rate, paths, conns, drain_s))


def wait_healthy(host: str, port: int, timeout: float,
                 alive: Callable[[], bool]) -> Optional[float]:
    """Poll ``/healthz`` until 200; the clock reading then, or ``None``."""
    import http.client

    deadline = _clock() + timeout
    while _clock() < deadline and alive():
        conn = http.client.HTTPConnection(host, port, timeout=1.0)
        try:
            conn.request("GET", "/healthz")
            if conn.getresponse().status == 200:
                return _clock()
        except OSError:
            pass  # not listening yet
        finally:
            conn.close()
        time.sleep(0.005)
    return None


def summary(replies: Sequence[Reply]) -> Tuple[int, int, int]:
    """(failed, refused, server errors) among ``replies``."""
    refused = sum(1 for r in replies if r.status == 429)
    errors = sum(1 for r in replies if r.status >= 500)
    failed = sum(1 for r in replies if not r.ok)
    return failed, refused, errors
