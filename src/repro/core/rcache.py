"""Fingerprint-keyed result cache and canonical scenario digests.

Real estimation traffic is skewed: power-sweep and synthesis loops
re-evaluate the *same* input statistics over and over.  Propagation is
a pure function of the installed potentials, so an exact repeat can be
answered from memory with results bitwise-identical to a fresh pass.
This module supplies the two halves of that reuse:

- :func:`scenario_digest` -- a canonical content hash of the input
  statistics a model induces for a circuit.  Two scenario specs that
  build the same per-input CPDs collide regardless of surface form
  (dict key order, ``-0.0`` vs ``0.0``, float-repr aliases, the order
  correlated groups were listed in); any perturbed probability changes
  the digest.
- :class:`ResultCache` -- a thread-safe LRU of ``(compile fingerprint,
  scenario digest) -> stored result payload``.  The fingerprint half
  is the compile-cache content key (circuit + backend + options +
  artifact schema), so a cache entry can never survive anything that
  would have changed the compiled model.  The server is its one user.

``EstimatorCompiledModel.query_many`` keys its sweep dedup with the same
digest: a sweep's dedup is a result cache that lives for one call.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.obs.metrics import get_metrics

__all__ = [
    "ResultCache",
    "result_payload",
    "scenario_digest",
]


def _cpd_digest(cpd) -> bytes:
    """Content hash of one CPD: variable, parents, float64 table bytes.

    The table is normalized with ``+ 0.0`` so ``-0.0`` and ``0.0``
    (distinct bit patterns, equal numbers, identical propagation
    results) hash alike.
    """
    table = np.ascontiguousarray(cpd.factor.values, dtype=np.float64) + 0.0
    h = hashlib.sha256()
    h.update(cpd.variable.encode())
    h.update(b"\x1f")
    for parent in cpd.parents:
        h.update(parent.encode())
        h.update(b"\x1f")
    h.update(b"\x1e")
    h.update(table.tobytes())
    return h.digest()


def scenario_digest(circuit, input_model) -> str:
    """Canonical content digest of one scenario against one circuit.

    Hashes every induced input CPD in sorted-variable order, so the
    digest is independent of spec dict ordering, correlated group
    listing order, and float spellings that decode to the same double.
    Member order *within* a correlated group is a different chain model
    (different CPD parent structure) and digests differently.
    """
    cpds = input_model.input_cpds_trusted(list(circuit.inputs))
    h = hashlib.sha256()
    for cpd in sorted(cpds, key=lambda cpd: cpd.variable):
        h.update(_cpd_digest(cpd))
    return h.hexdigest()


def result_payload(estimate) -> Dict[str, Any]:
    """The stored form of one :class:`SwitchingEstimate`: copies of its
    ``(4,)`` per-line marginals, the rendered scalars a response needs
    (per-line switching activities, their mean) and the method fields.
    Hits and fresh results are rendered from this one form."""
    distributions = {
        line: np.array(arr, copy=True)
        for line, arr in estimate.distributions.items()
    }
    # One pass over the lines; the mean is SwitchingEstimate.mean_activity's.
    activities = estimate.activities
    mean = float(np.mean(list(activities.values()))) if activities else 0.0
    return {
        "distributions": distributions,
        "activities": activities,
        "mean_activity": mean,
        "method": estimate.method,
        "segments": estimate.segments,
        "refine_iterations": estimate.refine_iterations,
        "refine_delta": estimate.refine_delta,
        "nbytes": sum(arr.nbytes for arr in distributions.values()),
    }


class ResultCache:
    """Thread-safe LRU of stored switching-estimate payloads.

    Keys are ``(compile fingerprint, scenario digest)`` tuples; values
    are :func:`result_payload` dicts.  Arrays are copied both into and
    out of the cache, so neither the producer's engine buffers nor a
    consumer's mutations can corrupt a stored result -- a hit replays
    the bitwise-identical marginals of the propagation that filled it.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, str], Dict[str, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes = 0

    # ------------------------------------------------------------------

    def get(
        self, key: Tuple[str, str], need_arrays: bool = True
    ) -> Optional[Dict[str, Any]]:
        """Stored payload for ``key``, or ``None``.

        The scalar fields are the stored ones and must not be mutated;
        the per-line marginals are copied out, and only when
        ``need_arrays`` (``False`` is the serving hot path for
        ``detail`` modes that never touch the distributions).
        """
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        registry = get_metrics()
        if registry.enabled:
            if payload is None:
                registry.counter("rcache.misses").inc(1)
            else:
                registry.counter("rcache.hits").inc(1)
        if payload is None:
            return None
        view = dict(payload)
        if need_arrays:
            view["distributions"] = {
                line: arr.copy()
                for line, arr in payload["distributions"].items()
            }
        else:
            del view["distributions"]
        return view

    def put(self, key: Tuple[str, str], estimate) -> Dict[str, Any]:
        """Store one :class:`SwitchingEstimate`'s :func:`result_payload`
        and return it (it is the stored entry: read it, do not mutate
        it)."""
        payload = result_payload(estimate)
        size = payload["nbytes"]
        evicted = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.bytes -= old["nbytes"]
            self._entries[key] = payload
            self.bytes += size
            while len(self._entries) > self.max_entries:
                _, dropped = self._entries.popitem(last=False)
                self.bytes -= dropped["nbytes"]
                self.evictions += 1
                evicted += 1
        registry = get_metrics()
        if registry.enabled:
            if evicted:
                registry.counter("rcache.evictions").inc(evicted)
            registry.gauge("rcache.bytes").set(float(self.bytes))
            registry.gauge("rcache.entries").set(float(len(self._entries)))
        return payload

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.bytes = 0

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "bytes": self.bytes,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }
