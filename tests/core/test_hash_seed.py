"""Compiled models must not depend on the string-hash seed.

Segment boundary forests are rooted per connected component; rooting at
whatever a set iterates first made the orientation -- and the last bits
of segmented marginals -- change with ``PYTHONHASHSEED``.  Each case
runs in fresh interpreters under two hash seeds and must agree bitwise.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

SCRIPT = r"""
import hashlib, json, sys
from repro.circuits import suite
from repro.core.backend import compile_model
from repro.core.inputs import IndependentInputs, TemporalInputs

name, backend, options = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
circuit = suite.load_circuit(name)
models = [IndependentInputs(0.3), TemporalInputs(p_one=0.6, activity=0.4)]
model = compile_model(circuit, models[0], backend=backend, **options)
results = model.query_many(models) + [model.query(models[1])]
h = hashlib.sha256()
for result in results:
    for line in sorted(result.distributions):
        h.update(line.encode())
        h.update(result.distributions[line].tobytes())
    h.update(repr((result.segments, result.refine_iterations, result.refine_delta)).encode())
print(results[0].segments, h.hexdigest())
"""


def _run(seed, *args):
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, *args],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return out.stdout.split()


@pytest.mark.parametrize(
    "name,backend,options",
    [
        ("alu", "auto", "{}"),
        (
            "refineB", "segmented",
            '{"max_gates_per_segment": 10, "lookback": 0, "refine": 2}',
        ),
    ],
)
def test_results_identical_across_hash_seeds(name, backend, options):
    seed0 = _run(0, name, backend, options)
    seed1 = _run(1, name, backend, options)
    assert int(seed0[0]) > 1  # segmented, so boundary forests exist
    assert seed0 == seed1
