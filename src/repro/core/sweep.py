"""Sweep planning: collapse duplicate scenarios before propagation.

A K-scenario sweep rarely consists of K unrelated statistics: synthesis
and power loops revisit the same operating points.
:func:`group_scenarios` turns per-scenario keys (the
:func:`repro.core.rcache.scenario_digest` of each scenario) into the
representatives to propagate and the scatter index that fans their
results back out.  It is a pure index computation -- it never touches
the engine, so it cannot perturb the bitwise-parity contract of the
sweeps built on top of it.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

__all__ = ["group_scenarios"]


def group_scenarios(
    keys: Sequence[Hashable],
) -> Tuple[List[int], List[int]]:
    """Collapse equal keys to first-occurrence representatives.

    Returns ``(reps, scatter)``: ``reps[r]`` is the index of the ``r``-th
    unique scenario (in first-appearance order) and ``scatter[j]`` is the
    representative row serving scenario ``j`` -- so a result computed per
    representative fans back out as ``results[scatter[j]]``.
    """
    positions: Dict[Hashable, int] = {}
    reps: List[int] = []
    scatter: List[int] = []
    for index, key in enumerate(keys):
        position = positions.get(key)
        if position is None:
            position = positions[key] = len(reps)
            reps.append(index)
        scatter.append(position)
    return reps, scatter
