"""Accuracy against logic simulation at fixed operating points.

The points and the simulator seed are fixed, not drawn from the
workload seed, so ``activity_err`` compares like with like across runs
and commits.  100k vector pairs put the simulation's own noise near
sqrt(0.25 / 1e5) = 0.0016 per line; exact backends sit at that floor
and segmentation error shows above it.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

FIXED_POINTS = (
    {"kind": "temporal", "p_one": 0.5, "activity": 0.5},
    {"kind": "temporal", "p_one": 0.3, "activity": 0.2},
    {"kind": "temporal", "p_one": 0.7, "activity": 0.4},
)
SIM_PAIRS = 100_000
SIM_SEED = 2001


def simulated_activities(circuit, spec: Dict) -> Dict[str, float]:
    """Per-line switching activity from 100k simulated vector pairs."""
    from repro.baselines.simulation import simulate_switching
    from repro.core.inputs import input_model_from_spec

    result = simulate_switching(
        circuit,
        input_model_from_spec(spec),
        n_pairs=SIM_PAIRS,
        rng=np.random.default_rng(SIM_SEED),
    )
    return result.activities
