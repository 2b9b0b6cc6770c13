"""Seeded scenario streams.

Every scenario value and every Zipf id derives from the workload seed
through :class:`numpy.random.SeedSequence`, one independent stream per
``(seed, purpose, circuit)``.  The program under test only ever sees
the generated scenario specs (plain JSON-able dicts in the
``repro.core.inputs.input_model_from_spec`` vocabulary).

Scenarios are temporal inputs with per-input stationary ``p_one`` and
switching ``activity``.  Values are continuous draws, so two seeds (or
two purposes) share no spec, and one seed replays a byte-identical
stream.  Integer salts, as in ``benchmarks/bench_serving.py``, instead
replay identical specs on every repeat.
"""

from __future__ import annotations

import json
import zlib
from typing import Dict, List, Sequence

import numpy as np

#: Zipf exponent of the skewed workloads (synthesis loops re-querying a
#: few operating points).
ZIPF_EXPONENT = 1.1


class Stream:
    """Scenario specs and Zipf ids for one ``(seed, purpose, circuit)``."""

    def __init__(self, seed: int, purpose: str, circuit: str, inputs: Sequence[str]):
        key = [int(seed), zlib.crc32(purpose.encode()), zlib.crc32(circuit.encode())]
        self._specs, self._ids = (
            np.random.default_rng(s) for s in np.random.SeedSequence(key).spawn(2)
        )
        self.inputs = list(inputs)

    def take(self, n: int) -> List[Dict]:
        """The next ``n`` scenario specs."""
        return [self._spec() for _ in range(n)]

    def _spec(self) -> Dict:
        p_one = self._specs.uniform(0.1, 0.9, size=len(self.inputs))
        # A lag-1 Markov stream needs activity / 2 <= min(p, 1 - p).
        ceiling = 2.0 * np.minimum(p_one, 1.0 - p_one)
        activity = ceiling * self._specs.uniform(0.05, 0.95, size=len(self.inputs))
        return {
            "kind": "temporal",
            "p_one": {name: float(p) for name, p in zip(self.inputs, p_one)},
            "activity": {name: float(a) for name, a in zip(self.inputs, activity)},
        }

    def zipf(self, universe: int, n: int) -> List[int]:
        """``n`` ids drawn Zipf(:data:`ZIPF_EXPONENT`) over ``universe``
        ranks (id 0 hottest)."""
        weights = np.arange(1, universe + 1, dtype=float) ** -ZIPF_EXPONENT
        return [int(i) for i in self._ids.choice(universe, size=n, p=weights / weights.sum())]


def canonical(spec: Dict) -> str:
    """The byte form streams are compared in."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))
