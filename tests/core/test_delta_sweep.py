"""Sweeps over scenario deltas: dedup-then-batch and its parity contract.

Real sweeps revisit operating points and perturb a few inputs at a
time.  ``EstimatorCompiledModel.query_many`` keys every scenario by its
``scenario_digest``, propagates each distinct scenario once and
scatters the rows back.  The contract under test: the results are
bitwise-identical to the estimator's own full batched pass over all K
scenarios (``model.estimator.estimate_many``, which has no dedup).
Each side runs on its own fresh compile, so neither inherits the other
engine's state.
"""

import numpy as np
import pytest

from repro.circuits import examples, generate, suite
from repro.core import CorrelatedGroupInputs, IndependentInputs
from repro.core.backend import compile_model
from repro.core.backend import estimate_many as facade_estimate_many
from repro.core.rcache import scenario_digest
from repro.core.sweep import group_scenarios
from repro.errors import ZeroBeliefError


class TestPlanner:
    def test_group_scenarios_collapses_duplicates(self):
        reps, scatter = group_scenarios(["a", "b", "a", "c", "b"])
        assert reps == [0, 1, 3]
        assert scatter == [0, 1, 0, 2, 1]

    def test_group_scenarios_all_unique(self):
        reps, scatter = group_scenarios(["a", "b", "c"])
        assert reps == [0, 1, 2]
        assert scatter == [0, 1, 2]

    def test_signature_keys_match_digests(self):
        # Dedup keys are scenario digests: two spellings of the same
        # statistics collapse to one propagated scenario.
        circuit = examples.c17()
        names = list(circuit.inputs)
        spelled = IndependentInputs({name: 0.3 for name in names})
        scalar = IndependentInputs(0.3)
        assert scenario_digest(circuit, spelled) == scenario_digest(circuit, scalar)
        model = compile_model(circuit, backend="junction-tree")
        before = model.estimator.propagation_counters().scenarios_propagated
        model.query_many([spelled, scalar, IndependentInputs(0.4)])
        after = model.estimator.propagation_counters().scenarios_propagated
        assert after - before == 2


def _one_input_sweep(circuit, k, repeats_each=1):
    """Low-Hamming sweep: only the first input's p_one varies, each
    operating point repeated ``repeats_each`` times."""
    hot = list(circuit.inputs)[0]
    models = []
    for i in range(k):
        p = 0.1 + 0.8 * (i / max(1, k - 1))
        models.extend(
            IndependentInputs({hot: p}) for _ in range(repeats_each)
        )
    return models


def _interleaved(models):
    """Duplicates scattered through the sweep, not adjacent."""
    return models[::2] + models[1::2]


def _assert_bitwise(got, expected, lines=None):
    assert len(got) == len(expected)
    for k, (g, e) in enumerate(zip(got, expected)):
        for line in lines if lines is not None else e.distributions:
            assert np.array_equal(g.distributions[line], e.distributions[line]), (
                f"scenario {k} line {line}: dedup {g.distributions[line]} "
                f"!= full batch {e.distributions[line]}"
            )
        assert g.method == e.method
        assert g.segments == e.segments
        assert g.refine_iterations == e.refine_iterations
        assert g.refine_delta == e.refine_delta


def _dedup_vs_full_batch(circuit, models, backend, **options):
    """``query_many`` on one fresh compile, the full batched pass on
    another: returns ``(dedup, full)``."""
    inputs = models[0]
    deduped = compile_model(circuit, inputs, backend=backend, **options)
    full = compile_model(circuit, inputs, backend=backend, **options)
    return deduped.query_many(models), full.estimator.estimate_many(models)


class TestSingleBNParity:
    def test_delta_matches_fresh_batched(self):
        circuit = examples.c17()
        got, full = _dedup_vs_full_batch(
            circuit, _one_input_sweep(circuit, 6), "junction-tree"
        )
        _assert_bitwise(got, full, list(circuit.lines))

    def test_delta_with_duplicates(self):
        circuit = examples.c17()
        models = _interleaved(_one_input_sweep(circuit, 4, repeats_each=3))
        got, full = _dedup_vs_full_batch(circuit, models, "junction-tree")
        _assert_bitwise(got, full, list(circuit.lines))

    def test_delta_with_correlated_groups(self):
        # Correlated chains add input-to-input edges, so the model is
        # compiled with that structure (same rule as update_inputs);
        # all swept models then share it.
        circuit = examples.c17()
        names = list(circuit.inputs)
        models = [
            CorrelatedGroupInputs(
                [(names[0], names[1])], rho=rho,
                base=IndependentInputs(0.4),
            )
            for rho in (0.2, 0.5, 0.2, 0.8, 0.5)
        ]
        got, full = _dedup_vs_full_batch(circuit, models, "junction-tree")
        _assert_bitwise(got, full, list(circuit.lines))

    def test_single_query_state_survives_delta(self):
        """A deduplicated sweep must not disturb subsequent query() calls."""
        circuit = examples.c17()
        model = compile_model(circuit, backend="junction-tree")
        before = model.query(IndependentInputs(0.37))
        model.query_many(_one_input_sweep(circuit, 4, repeats_each=2))
        after = model.query(IndependentInputs(0.37))
        fresh = compile_model(circuit, backend="junction-tree")
        oracle = fresh.query(IndependentInputs(0.37))
        for line in circuit.lines:
            assert np.array_equal(
                after.distributions[line], oracle.distributions[line]
            )
            assert np.array_equal(
                after.distributions[line], before.distributions[line]
            )

    def test_unknown_sweep_mode_rejected(self):
        # The delta chain and its sweep_mode knob are gone: dedup is
        # the one sweep path, so the keyword is simply unknown.
        circuit = examples.c17()
        models = [IndependentInputs(0.3)]
        model = compile_model(circuit, backend="junction-tree")
        with pytest.raises(TypeError):
            model.query_many(models, sweep_mode="delta")
        with pytest.raises(TypeError):
            model.estimator.estimate_many(models, sweep_mode="delta")
        with pytest.raises(TypeError):
            facade_estimate_many(
                circuit, models, backend="junction-tree", sweep_mode="delta"
            )


class TestSegmentedParity:
    def test_delta_matches_fresh_batched(self):
        circuit = generate.random_layered_circuit(8, 40, seed=7)
        models = _interleaved(_one_input_sweep(circuit, 4, repeats_each=2))
        got, full = _dedup_vs_full_batch(
            circuit, models, "segmented", max_gates_per_segment=10
        )
        assert got[0].segments > 1  # actually multi-segment
        _assert_bitwise(got, full, list(circuit.lines))

    def test_delta_matches_on_suite_circuit(self):
        circuit = suite.load_circuit("pcler8")
        models = _one_input_sweep(circuit, 3, repeats_each=2)
        got, full = _dedup_vs_full_batch(
            circuit, models, "segmented", max_gates_per_segment=8
        )
        _assert_bitwise(got, full, list(circuit.lines))

    def test_dedup_matches_on_alu(self):
        circuit = suite.load_circuit("alu")
        models = _interleaved(_one_input_sweep(circuit, 3, repeats_each=3))
        got, full = _dedup_vs_full_batch(circuit, models, "auto")
        assert got[0].segments == 2  # the auto backend segments alu
        _assert_bitwise(got, full, list(circuit.lines))

    def test_dedup_matches_under_refinement(self):
        # Refinement stops on the max boundary delta over the batch
        # rows; duplicate rows cannot change that max, so iterations
        # and the final delta agree with the full batch too.
        circuit = suite.load_circuit("refineA")
        models = _interleaved(_one_input_sweep(circuit, 3, repeats_each=2))
        got, full = _dedup_vs_full_batch(
            circuit, models, "segmented",
            max_gates_per_segment=10, lookback=0, refine=2,
        )
        assert got[0].refine_iterations > 0
        _assert_bitwise(got, full, list(circuit.lines))


class TestEnumerationParity:
    def test_dedup_matches_full_batch(self):
        circuit = examples.c17()
        models = _interleaved(_one_input_sweep(circuit, 3, repeats_each=2))
        got, full = _dedup_vs_full_batch(circuit, models, "enumeration")
        _assert_bitwise(got, full, list(circuit.lines))


class TestDedupResults:
    def test_zero_belief_reports_every_duplicate(self):
        circuit = examples.c17()
        bad = IndependentInputs(0.2)
        models = [
            IndependentInputs(0.5), bad, IndependentInputs(0.5),
            IndependentInputs(0.7), IndependentInputs(0.2),
        ]
        model = compile_model(circuit, backend="junction-tree")

        def failing(chunk, **kwargs):
            # Distinct scenarios only: 0.5, 0.2 (the failing one), 0.7.
            assert len(chunk) == 3
            err = ZeroBeliefError(
                "cannot normalize a zero belief for batch elements [1]"
            )
            err.batch_indices = (1,)
            raise err

        model.estimator.estimate_many = failing
        with pytest.raises(ZeroBeliefError) as excinfo:
            model.query_many(models)
        assert excinfo.value.batch_indices == (1, 4)
        assert "[1, 4]" in str(excinfo.value)

    def test_scenarios_propagated_counts_distinct(self):
        circuit = examples.c17()
        models = _interleaved(_one_input_sweep(circuit, 4, repeats_each=3))
        model = compile_model(circuit, backend="junction-tree")
        before = model.estimator.propagation_counters().scenarios_propagated
        model.query_many(models)
        after = model.estimator.propagation_counters().scenarios_propagated
        assert len(models) == 12
        assert after - before == 4

    def test_batch_size_bounds_distinct_rows(self):
        circuit = examples.c17()
        models = _one_input_sweep(circuit, 4, repeats_each=3)
        model = compile_model(circuit, backend="junction-tree")
        real = model.estimator.estimate_many
        chunks = []

        def recording(chunk, **kwargs):
            chunks.append(len(chunk))
            return real(chunk, **kwargs)

        model.estimator.estimate_many = recording
        assert len(model.query_many(models, batch_size=3)) == 12
        assert chunks == [3, 1]

    def test_results_are_distinct_objects(self):
        circuit = examples.c17()
        models = [IndependentInputs(0.3)] * 3 + [IndependentInputs(0.6)]
        model = compile_model(circuit, backend="junction-tree")
        results = model.query_many(models)
        assert len({id(r) for r in results}) == 4
        assert len({id(r.distributions) for r in results}) == 4
        # The duplicates' amortized share covers all four caller
        # scenarios, and equals the distinct scenario's share.
        assert len({r.propagate_seconds for r in results}) == 1
        line = next(iter(circuit.lines))
        results[0].distributions[line] = None
        assert results[1].distributions[line] is not None
