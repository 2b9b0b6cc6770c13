"""Single-process HTTP load generator: closed and open loop.

One thread per keep-alive connection, the calling thread included, and
no more connections than the caller asks for (the benchmark uses
``min(2, nproc)``).  Request bodies
are encoded before the clock starts.  In the open loop, request ``i``
is due at ``start + i / rate`` and its latency is timed from that
scheduled send, so a stall also charges the requests queued behind it;
how late each send actually went out is reported as generator lag.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass
class Record:
    rid: int
    index: int
    scheduled: float
    sent: float
    done: float
    status: int
    payload: Optional[dict]

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.payload is not None and "mean_activity" in self.payload

    @property
    def latency(self) -> float:
        return self.done - self.scheduled

    @property
    def lag(self) -> float:
        return self.sent - self.scheduled


class Connection:
    """One persistent HTTP/1.1 connection with Nagle off."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def post(self, path: str, body: bytes, rid: Optional[int] = None) -> Tuple[int, Optional[dict]]:
        headers = {"Content-Type": "application/json"}
        if rid is not None:
            headers["X-Bench-Rid"] = str(rid)
        self.conn.request("POST", path, body=body, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = None
        return response.status, payload

    def get(self, path: str) -> dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


def _send(conn: Connection, body: bytes, rid: int, index: int, scheduled: float) -> Record:
    sent = time.perf_counter()
    try:
        status, payload = conn.post("/estimate", body, rid)
    except (OSError, http.client.HTTPException):
        status, payload = 0, None
    return Record(rid, index, scheduled, sent, time.perf_counter(), status, payload)


def _run_threads(host, port, conns, body_fn) -> List[Record]:
    records: List[Record] = []
    lock = threading.Lock()
    errors: List[BaseException] = []

    def worker():
        try:
            conn = Connection(host, port)
            try:
                body_fn(conn, records, lock)
            finally:
                conn.close()
        except BaseException as exc:  # reported by the caller
            errors.append(exc)

    # The calling thread drives one connection itself, so the process
    # runs exactly ``conns`` threads.
    threads = [threading.Thread(target=worker) for _ in range(conns - 1)]
    for thread in threads:
        thread.start()
    worker()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return sorted(records, key=lambda r: r.index)


def closed_loop(
    host: str, port: int, bodies: Sequence[bytes], duration: float, conns: int, rid_base: int
) -> List[Record]:
    """Each connection sends its next request as soon as the previous one
    returns, until ``duration`` has passed or the bodies run out."""
    next_index = iter(range(len(bodies)))
    start = time.perf_counter()
    deadline = start + duration

    def body_fn(conn, records, lock):
        while time.perf_counter() < deadline:
            with lock:
                i = next(next_index, None)
            if i is None:
                return
            now = time.perf_counter()
            record = _send(conn, bodies[i], rid_base + i, i, now)
            with lock:
                records.append(record)

    return _run_threads(host, port, conns, body_fn)


def open_loop(
    host: str, port: int, bodies: Sequence[bytes], rate: float, conns: int, rid_base: int
) -> List[Record]:
    """Send ``bodies[i]`` at ``start + i / rate`` over ``conns``
    connections; a request due while every connection is busy goes out
    late and its latency includes the wait."""
    next_index = iter(range(len(bodies)))
    start = time.perf_counter() + 0.05

    def body_fn(conn, records, lock):
        while True:
            with lock:
                i = next(next_index, None)
            if i is None:
                return
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            record = _send(conn, bodies[i], rid_base + i, i, due)
            with lock:
                records.append(record)

    return _run_threads(host, port, conns, body_fn)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def highest_supported(n: int, beyond: int = 10) -> float:
    """Highest percentile with at least ``beyond`` samples above it."""
    return max(0.0, 100.0 * (1.0 - beyond / n)) if n else 0.0
