"""End-to-end regressions for the compiled propagation engine:
estimator outputs against the enumeration oracle, dirty repropagation
against fresh compiles, and the parallel segment pipeline against the
serial one.
"""

import sys

import numpy as np
import pytest

from repro.circuits import examples, generate
from repro.core.estimator import (
    SwitchingActivityEstimator,
    exact_switching_by_enumeration,
)
from repro.core.inputs import IndependentInputs, TemporalInputs
from repro.core.segments import SegmentedEstimator

SMALL_CIRCUITS = [
    examples.c17,
    examples.full_adder_circuit,
    examples.reconvergent_circuit,
    examples.xor_chain_circuit,
]


@pytest.mark.parametrize("build", SMALL_CIRCUITS, ids=lambda f: f.__name__)
def test_engine_matches_enumeration_oracle(build):
    circuit = build()
    model = IndependentInputs(0.4)
    estimate = SwitchingActivityEstimator(circuit, input_model=model).estimate()
    oracle = exact_switching_by_enumeration(circuit, model)
    for line in circuit.lines:
        assert np.allclose(
            estimate.distributions[line], oracle[line], atol=1e-10
        ), line


@pytest.mark.parametrize("build", SMALL_CIRCUITS, ids=lambda f: f.__name__)
def test_update_inputs_matches_fresh_compile(build):
    """``update_inputs`` + dirty repropagation must track a fresh
    compile to 1e-12 across an input-statistics sweep."""
    circuit = build()
    estimator = SwitchingActivityEstimator(circuit)
    estimator.estimate()
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        estimator.update_inputs(IndependentInputs(p))
        swept = estimator.estimate()
        fresh = SwitchingActivityEstimator(
            circuit, input_model=IndependentInputs(p)
        ).estimate()
        for line in circuit.lines:
            assert np.allclose(
                swept.distributions[line],
                fresh.distributions[line],
                atol=1e-12,
            ), (line, p)


def test_update_inputs_with_temporal_model():
    circuit = examples.full_adder_circuit()
    estimator = SwitchingActivityEstimator(circuit)
    estimator.estimate()
    model = TemporalInputs(activity=0.3)
    estimator.update_inputs(model)
    swept = estimator.estimate()
    oracle = exact_switching_by_enumeration(circuit, model)
    for line in circuit.lines:
        assert np.allclose(swept.distributions[line], oracle[line], atol=1e-10)


class TestParallelPipeline:
    @pytest.mark.parametrize("backend", ["auto", "enum"])
    def test_parallel_equals_serial(self, backend):
        circuit = generate.random_layered_circuit(8, 40, seed=7)
        kwargs = dict(
            input_model=IndependentInputs(0.35),
            max_gates_per_segment=8,
            backend=backend,
            # small enumeration budget so backend="enum" also splits
            enum_input_states=4 ** 4,
        )
        serial = SegmentedEstimator(circuit, **kwargs)
        parallel = SegmentedEstimator(circuit, parallelism=4, **kwargs)
        rs = serial.estimate()
        rp = parallel.estimate()
        assert serial.num_segments == parallel.num_segments
        assert serial.num_segments > 1
        assert set(rs.distributions) == set(rp.distributions)
        for line, dist in rs.distributions.items():
            assert np.array_equal(dist, rp.distributions[line]), line

    def test_parallel_repeat_estimates_stay_equal(self):
        circuit = generate.random_layered_circuit(6, 24, seed=3)
        serial = SegmentedEstimator(circuit, max_gates_per_segment=6)
        parallel = SegmentedEstimator(
            circuit, max_gates_per_segment=6, parallelism=3
        )
        for p in (0.5, 0.2, 0.8):
            serial.input_model = IndependentInputs(p)
            parallel.input_model = IndependentInputs(p)
            rs = serial.estimate()
            rp = parallel.estimate()
            for line, dist in rs.distributions.items():
                assert np.array_equal(dist, rp.distributions[line]), (line, p)

    def test_parallel_sweeps_under_contention(self):
        """Consumers on worker threads read their providers' captured
        pair joints, never the providers' engines: with more workers
        than cores and a tiny switch interval, a batched parallel sweep
        neither trips the engine reentrancy guard nor drifts from the
        serial result."""
        circuit = generate.random_layered_circuit(16, 160, seed=5)
        models = [IndependentInputs(p) for p in (0.2, 0.5, 0.7)]
        serial = SegmentedEstimator(
            circuit, max_gates_per_segment=6
        ).estimate_many(models)
        parallel = SegmentedEstimator(
            circuit, max_gates_per_segment=6, parallelism=6
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = parallel.estimate_many(models)
                for g, e in zip(got, serial):
                    for line, dist in e.distributions.items():
                        assert np.array_equal(g.distributions[line], dist), line
        finally:
            sys.setswitchinterval(interval)

    def test_parallelism_one_is_serial_path(self):
        circuit = examples.c17()
        est = SegmentedEstimator(circuit, parallelism=1)
        result = est.estimate()
        assert 0.0 <= result.mean_activity() <= 1.0

    def test_negative_parallelism_rejected(self):
        with pytest.raises(ValueError):
            SegmentedEstimator(examples.c17(), parallelism=-1)
