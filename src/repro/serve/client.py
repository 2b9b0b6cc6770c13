"""Client for the estimation server, plus a load generator.

:class:`ServeClient` is a thin stdlib (``urllib``) JSON client.
:func:`run_load` drives a server in the two canonical load-testing
shapes:

- **closed loop** -- ``concurrency`` workers each issue their next
  request the moment the previous one returns.  Throughput is
  demand-limited; this is the shape that shows dynamic batching's
  throughput win (16 closed-loop clients on one circuit coalesce into
  ~16-wide propagations).
- **open loop** -- requests *arrive* on a fixed schedule (``rate`` per
  second) regardless of completions, the shape real traffic has.
  Latency is measured from the scheduled arrival, so queueing delay
  under overload is visible instead of silently throttled away.

Orthogonally to the loop shape, ``workload`` picks the *scenario
stream* the requests carry.  ``"uniform"`` (the default, and the
pre-existing behavior) gives every request a distinct scenario;
``"zipf:A"``, ``"hotspot:P"``, and ``"burst:N"`` replay a small
scenario universe with the skew real sweep traffic has (synthesis
loops hammering one operating point, bursts of identical what-if
queries), which is what the server's result cache and batch dedup
are measured against.

Latency percentiles use the nearest-rank method on the full sample
set (no reservoir -- the load run owns its samples).
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ReproError

__all__ = [
    "LoadReport",
    "ServeClient",
    "ServeRequestError",
    "run_load",
    "workload_scenario_ids",
]

#: golden-ratio low-discrepancy stream, matching benchmarks/common.py's
#: salted scenarios: distinct p_one per request, deterministic per salt.
PHI = 0.6180339887498949


class ServeRequestError(ReproError):
    """The server answered with an error payload (or not at all)."""

    def __init__(self, message: str, status: int = 0, kind: str = ""):
        super().__init__(message)
        self.status = status
        self.kind = kind


def scenario_spec(index: int, salt: float = 0.0) -> Dict[str, Any]:
    """Deterministic scenario ``index``: independent inputs with a
    low-discrepancy ``p_one`` in [0.05, 0.95]."""
    return {
        "kind": "independent",
        "p_one": round(0.05 + ((index * PHI + salt) % 1.0) * 0.9, 12),
    }


#: scenario ids the skewed workloads draw from; small enough that a
#: hot stream revisits ids within one load run, large enough that a
#: uniform draw over it still misses a cold cache most of the time.
WORKLOAD_UNIVERSE = 64

#: fixed stream seed -- workloads are part of a benchmark's identity,
#: so the same (workload, requests) pair must replay the same ids.
WORKLOAD_SEED = 0x5EED


def workload_scenario_ids(
    workload: str,
    requests: int,
    universe: int = WORKLOAD_UNIVERSE,
    seed: int = WORKLOAD_SEED,
) -> Optional[List[int]]:
    """Scenario id per request index for a named workload.

    - ``"uniform"`` -- ``None``: request ``i`` carries distinct
      scenario ``i`` (the historical stream; nothing ever repeats).
    - ``"zipf:A"`` -- ids drawn from a Zipf(``A``) distribution over
      ``universe`` ranked ids (id 0 hottest).  ``A=1.1`` gives the
      heavy skew of synthesis loops re-querying one operating point.
    - ``"hotspot:P"`` -- id 0 with probability ``P``, else uniform
      over the remaining universe.
    - ``"burst:N"`` -- blocks of ``N`` consecutive requests share one
      id (``i // N``): back-to-back identical what-if queries.

    The map is a precomputed list (deterministic in ``seed``), so the
    stream is independent of worker-thread interleaving: request index
    ``i`` always carries the same scenario.
    """
    if workload == "uniform":
        return None
    name, _, param = workload.partition(":")
    try:
        value = float(param) if param else None
        if name == "zipf":
            if value is None or value <= 1.0:
                raise ReproError(
                    f"zipf workload needs an exponent > 1, got {workload!r}"
                )
            weights = [rank ** -value for rank in range(1, universe + 1)]
            total = sum(weights)
            cdf = []
            acc = 0.0
            for w in weights:
                acc += w / total
                cdf.append(acc)
            rng = random.Random(seed)
            ids = []
            for _ in range(requests):
                u = rng.random()
                ids.append(next(i for i, c in enumerate(cdf) if u <= c))
            return ids
        if name == "hotspot":
            if value is None or not 0.0 < value <= 1.0:
                raise ReproError(
                    f"hotspot workload needs a probability in (0, 1], got {workload!r}"
                )
            rng = random.Random(seed)
            return [
                0 if rng.random() < value else rng.randrange(1, universe)
                for _ in range(requests)
            ]
        if name == "burst":
            width = int(value) if value is not None else 8
            if width < 1:
                raise ReproError(f"burst width must be >= 1, got {workload!r}")
            return [i // width for i in range(requests)]
    except ValueError:
        pass
    raise ReproError(
        f"unknown workload {workload!r} (uniform|zipf:A|hotspot:P|burst:N)"
    )


class ServeClient:
    """JSON client for one server; safe to share across threads.

    Each thread keeps one persistent (keep-alive) connection -- a fresh
    TCP handshake per request caps a loopback load run at the accept
    queue, not the estimator.  A stale connection (server restarted,
    keep-alive dropped) is rebuilt and the request retried once.
    """

    def __init__(self, base_url: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        split = urllib.parse.urlsplit(self.base_url)
        if split.scheme not in ("http", ""):
            raise ReproError(f"unsupported scheme {split.scheme!r} (http only)")
        self._host = split.hostname or "127.0.0.1"
        self._port = split.port or 80
        self.timeout = timeout
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            # http.client sends headers and body in separate writes;
            # without TCP_NODELAY, Nagle parks the body behind the
            # server's delayed ACK (~40ms per request on loopback).
            connection.connect()
            connection.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            self._local.connection = connection
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def _request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        body = None if payload is None else json.dumps(payload)
        last_error: Optional[Exception] = None
        for attempt in range(2):
            connection = self._connection()
            try:
                connection.request(
                    method, path, body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                status = response.status
                data = response.read()
            except (http.client.HTTPException, TimeoutError, OSError) as exc:
                self._drop_connection()
                last_error = exc
                continue
            if status >= 400:
                try:
                    error = json.loads(data.decode()).get("error", {})
                except ValueError:
                    error = {}
                raise ServeRequestError(
                    error.get("message", f"HTTP {status}"),
                    status=status,
                    kind=error.get("type", ""),
                )
            try:
                return json.loads(data.decode())
            except ValueError as exc:
                raise ServeRequestError(f"invalid JSON response: {exc}", status=status)
        raise ServeRequestError(f"server unreachable: {last_error}") from None

    def estimate(
        self,
        circuit: str,
        scenario: Optional[Dict[str, Any]] = None,
        backend: Optional[str] = None,
        options: Optional[Dict[str, Any]] = None,
        detail: Optional[str] = None,
    ) -> dict:
        payload: Dict[str, Any] = {"circuit": circuit}
        if scenario is not None:
            payload["scenario"] = scenario
        if backend is not None:
            payload["backend"] = backend
        if options:
            payload["options"] = options
        if detail is not None:
            payload["detail"] = detail
        return self._request("POST", "/estimate", payload)

    def estimate_many(
        self,
        circuit: str,
        scenarios: List[Dict[str, Any]],
        backend: Optional[str] = None,
        options: Optional[Dict[str, Any]] = None,
    ) -> dict:
        payload: Dict[str, Any] = {"circuit": circuit, "scenarios": scenarios}
        if backend is not None:
            payload["backend"] = backend
        if options:
            payload["options"] = options
        return self._request("POST", "/estimate_many", payload)

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def health(self) -> dict:
        return self._request("GET", "/healthz")


def _percentile(sorted_samples: List[float], q: float) -> float:
    if not sorted_samples:
        return 0.0
    rank = max(0, min(len(sorted_samples) - 1, int(round(q * (len(sorted_samples) - 1)))))
    return sorted_samples[rank]


@dataclass
class LoadReport:
    """One load run's results (the ``bench_serving.py`` row material)."""

    mode: str
    circuit: str
    concurrency: int
    requests: int
    errors: int
    duration_seconds: float
    scenarios_per_sec: float
    p50_latency_seconds: float
    p90_latency_seconds: float
    p99_latency_seconds: float
    max_latency_seconds: float
    rate: Optional[float] = None
    workload: str = "uniform"
    first_error: str = ""
    latencies: List[float] = field(default_factory=list, repr=False)

    def to_row(self) -> Dict[str, Any]:
        row = {
            "mode": self.mode,
            "circuit": self.circuit,
            "concurrency": self.concurrency,
            "requests": self.requests,
            "errors": self.errors,
            "duration_seconds": self.duration_seconds,
            "scenarios_per_sec": self.scenarios_per_sec,
            "p50_latency_seconds": self.p50_latency_seconds,
            "p90_latency_seconds": self.p90_latency_seconds,
            "p99_latency_seconds": self.p99_latency_seconds,
            "max_latency_seconds": self.max_latency_seconds,
        }
        if self.rate is not None:
            row["rate"] = self.rate
        # Only skewed streams tag their rows, so rows from the historic
        # uniform stream keep their pre-workload identity in diffs.
        if self.workload != "uniform":
            row["workload"] = self.workload
        return row


def run_load(
    base_url: str,
    circuit: str,
    mode: str = "closed",
    concurrency: int = 4,
    requests: int = 100,
    rate: float = 50.0,
    salt: float = 0.0,
    backend: Optional[str] = None,
    options: Optional[Dict[str, Any]] = None,
    detail: Optional[str] = None,
    timeout: float = 60.0,
    warmup: bool = True,
    workload: str = "uniform",
) -> LoadReport:
    """Drive ``requests`` scenarios at the server and report latency.

    ``mode="closed"``: ``concurrency`` workers in a send-receive loop.
    ``mode="open"``: arrivals scheduled every ``1/rate`` seconds,
    dispatched by up to ``concurrency`` workers; latency counts from
    the scheduled arrival time (queueing delay included).
    ``workload`` names the scenario stream
    (:func:`workload_scenario_ids`); skewed streams repeat scenario
    ids, which is the traffic shape the server's result cache serves.
    """
    if mode not in ("closed", "open"):
        raise ReproError(f"unknown load mode {mode!r} (closed|open)")
    if concurrency < 1 or requests < 1:
        raise ReproError("concurrency and requests must be >= 1")
    scenario_ids = workload_scenario_ids(workload, requests)
    client = ServeClient(base_url, timeout=timeout)
    if warmup:
        # Pays compile + pool admission outside the timed window.
        client.estimate(circuit, scenario_spec(0, salt), backend=backend, options=options)

    latencies: List[float] = []
    errors: List[str] = []
    lock = threading.Lock()
    start_barrier = threading.Barrier(concurrency + 1)
    counter = {"next": 0}

    def take_index() -> Optional[int]:
        with lock:
            if counter["next"] >= requests:
                return None
            counter["next"] += 1
            return counter["next"] - 1

    start_at = [0.0]  # filled after the barrier releases

    def worker() -> None:
        start_barrier.wait()
        while True:
            index = take_index()
            if index is None:
                return
            if mode == "open":
                scheduled = start_at[0] + index / rate
                delay = scheduled - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                began = scheduled
            else:
                began = time.perf_counter()
            scenario_id = (
                scenario_ids[index] if scenario_ids is not None else index
            )
            try:
                client.estimate(
                    circuit, scenario_spec(scenario_id, salt),
                    backend=backend, options=options, detail=detail,
                )
            except ServeRequestError as exc:
                with lock:
                    errors.append(str(exc))
                continue
            elapsed = time.perf_counter() - began
            with lock:
                latencies.append(elapsed)

    threads = [
        threading.Thread(target=worker, name=f"load-{i}", daemon=True)
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    start_barrier.wait()
    start_at[0] = time.perf_counter()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - start_at[0]

    ordered = sorted(latencies)
    completed = len(latencies)
    return LoadReport(
        mode=mode,
        circuit=circuit,
        concurrency=concurrency,
        requests=requests,
        errors=len(errors),
        duration_seconds=duration,
        scenarios_per_sec=completed / duration if duration > 0 else 0.0,
        p50_latency_seconds=_percentile(ordered, 0.50),
        p90_latency_seconds=_percentile(ordered, 0.90),
        p99_latency_seconds=_percentile(ordered, 0.99),
        max_latency_seconds=ordered[-1] if ordered else 0.0,
        rate=rate if mode == "open" else None,
        workload=workload,
        first_error=errors[0] if errors else "",
        latencies=latencies,
    )
