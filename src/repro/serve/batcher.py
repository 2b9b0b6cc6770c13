"""Dynamic batching: coalesce concurrent scenarios into one propagation.

The engine's batched sweep is the whole win of serving resident models:
PR 5 measured 2.3-12.3x scenarios/sec at K=64 versus looped single
queries.  A server only harvests that if *concurrent clients'* requests
-- each one scenario -- merge into one ``query_many`` call.  The
classic inference-server recipe applies:

- Requests are grouped into *lanes*, one per pooled model (same
  compile-cache fingerprint => same lane => batchable).
- A fixed worker pool drains lanes.  A worker claiming a non-empty
  lane waits up to ``linger_seconds`` for it to fill to ``max_batch``
  before propagating -- the latency-for-throughput knob.  The wait
  ends early the moment the batch is full, and a lone request on an
  otherwise idle server never waits longer than the linger.
- At most one worker drains a given lane at a time, so batches stay
  maximal instead of two workers splitting one burst.

``max_batch=1`` degenerates to unbatched request-at-a-time serving
(the baseline ``bench_serving.py`` compares against).  The batcher
knows nothing about HTTP or estimation: it coalesces ``(lane key,
item)`` pairs and hands ``(key, [items])`` to the ``run_batch``
callable, fulfilling one :class:`concurrent.futures.Future` per item.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Tuple

from repro.obs.metrics import get_metrics

__all__ = ["BatchStats", "DynamicBatcher"]


@dataclass
class BatchStats:
    """Cumulative batcher accounting (also mirrored into ``repro.obs``)."""

    items: int = 0
    batches: int = 0
    full_batches: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, size: int, max_batch: int) -> None:
        with self.lock:
            self.items += size
            self.batches += 1
            if size >= max_batch:
                self.full_batches += 1
        registry = get_metrics()
        if registry.enabled:
            registry.counter("serve.batch.items").inc(size)
            registry.counter("serve.batch.batches").inc(1)
            registry.histogram("serve.batch.size").observe(float(size))

    def mean_batch_size(self) -> float:
        with self.lock:
            return self.items / self.batches if self.batches else 0.0


class _Lane:
    """Pending ``(item, future)`` pairs for one model key; drained by at
    most one worker."""

    __slots__ = ("items", "claimed", "oldest")

    def __init__(self) -> None:
        self.items: Deque[Tuple[Any, Future]] = deque()
        self.claimed = False
        self.oldest = 0.0


class DynamicBatcher:
    """Worker pool + per-model lanes with a bounded linger window.

    Parameters
    ----------
    run_batch:
        ``run_batch(key, items) -> list[result]`` -- must return one
        result per item, in order.  An exception fails every future in
        the batch (each client sees the same typed error).
    max_batch:
        Scenario ceiling per propagation (engine memory scales with it).
    linger_seconds:
        How long a claimed, non-full lane waits for company.  ``0``
        batches only what has already queued up (pure opportunistic
        coalescing -- under bursts batches still form because requests
        queue while every worker is busy).
    workers:
        Drain threads.  One is enough to saturate a single core with
        batched propagation; more overlap pickle/IO with compute.
    """

    def __init__(
        self,
        run_batch: Callable[[str, List[Any]], List[Any]],
        max_batch: int = 16,
        linger_seconds: float = 0.002,
        workers: int = 2,
        name: str = "batcher",
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._run_batch = run_batch
        self.max_batch = max_batch
        self.linger_seconds = max(0.0, linger_seconds)
        self.stats = BatchStats()
        self._lanes: "OrderedDict[str, _Lane]" = OrderedDict()
        self._cond = threading.Condition()
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"{name}-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def submit(self, key: str, item: Any) -> "Future[Any]":
        """Enqueue one item for ``key``'s lane; resolves with its result."""
        future: "Future[Any]" = Future()
        with self._cond:
            if self._closed:
                raise RuntimeError("batcher is closed")
            lane = self._lanes.get(key)
            if lane is None:
                lane = self._lanes[key] = _Lane()
            if not lane.items:
                lane.oldest = time.monotonic()
            lane.items.append((item, future))
            self._cond.notify()
        return future

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting work, drain pending lanes, join the workers."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _claim(self) -> "Tuple[str, _Lane] | None":
        """Next unclaimed non-empty lane, oldest head-of-line first."""
        best = None
        for key, lane in self._lanes.items():
            if lane.items and not lane.claimed:
                if best is None or lane.oldest < best[1].oldest:
                    best = (key, lane)
        if best is not None:
            best[1].claimed = True
        return best

    def _worker(self) -> None:
        while True:
            with self._cond:
                claimed = self._claim()
                while claimed is None:
                    if self._closed:
                        return
                    self._cond.wait(timeout=0.1)
                    claimed = self._claim()
                key, lane = claimed
                # Linger: wait (releasing the lock) for the lane to
                # fill, but never past the oldest item's deadline.
                deadline = lane.oldest + self.linger_seconds
                while len(lane.items) < self.max_batch and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                batch = [
                    lane.items.popleft()
                    for _ in range(min(self.max_batch, len(lane.items)))
                ]
                if lane.items:
                    # Leftovers start a fresh linger window and another
                    # worker may claim them while we propagate.
                    lane.oldest = time.monotonic()
                    self._cond.notify()
                lane.claimed = False
            self._process(key, batch)

    def _process(self, key: str, batch: List[Tuple[Any, Future]]) -> None:
        items = [item for item, _ in batch]
        self.stats.record(len(items), self.max_batch)
        try:
            results = self._run_batch(key, items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"run_batch returned {len(results)} results for "
                    f"{len(items)} items"
                )
        except BaseException as exc:
            for _, future in batch:
                if not future.cancelled():
                    future.set_exception(exc)
            return
        for (_, future), result in zip(batch, results):
            if not future.cancelled():
                future.set_result(result)
