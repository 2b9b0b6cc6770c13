"""End-to-end tests for batched multi-scenario estimation.

``estimate_many`` / ``query_many`` promise that sweeping K input-
statistics scenarios through one compiled model returns, for every
exact backend, results *bitwise-identical* to compiling fresh and
querying each scenario independently (a full propagation is a pure
function of the installed potentials).  These tests pin that promise
for the junction-tree, segmented (multi-segment, both boundary
providers), and enumeration backends, plus the facade wiring, batch
chunking, and single-query-path isolation.
"""

import numpy as np
import pytest

from repro.circuits import suite
from repro.circuits.examples import c17
from repro.circuits.gates import GateType
from repro.circuits.netlist import Gate
from repro.core.backend import compile_model, facade
from repro.core.backend.facade import estimate_many
from repro.core.inputs import IndependentInputs, TemporalInputs
from repro.core.segments import FixedMarginalInputs
from repro.errors import CombinationalCycleError, InputModelError

#: (backend, compile options) -> one compiled model per test.  The
#: segmented entry forces multiple segments on c17 (6 gates) so the
#: boundary machinery -- including enumeration fallbacks -- is active.
BACKENDS = [
    ("junction-tree", {}),
    ("segmented", {"max_gates_per_segment": 2}),
    ("enumeration", {}),
]


def _models(k: int, salt: float = 0.0):
    return [
        IndependentInputs(0.07 + 0.86 * ((i * 0.618 + salt) % 1.0))
        for i in range(k)
    ]


def _fresh_oracle(circuit, backend, options, models):
    """Independent fresh-compile query per scenario."""
    results = []
    for model in models:
        compiled = compile_model(circuit, model, backend=backend, **options)
        results.append(compiled.query(model))
    return results


def _assert_bitwise(got, expected, context=""):
    assert len(got) == len(expected)
    for k, (g, e) in enumerate(zip(got, expected)):
        assert set(g.distributions) == set(e.distributions)
        for line, dist in e.distributions.items():
            assert np.array_equal(g.distributions[line], dist), (
                f"{context} scenario {k}, line {line}"
            )


class TestBatchedVsFreshOracle:
    @pytest.mark.parametrize("backend,options", BACKENDS)
    @pytest.mark.parametrize("k", [1, 3, 17])
    def test_query_many_matches_fresh_compiles_bitwise(
        self, backend, options, k
    ):
        circuit = c17()
        models = _models(k)
        compiled = compile_model(circuit, models[0], backend=backend, **options)
        got = compiled.query_many(models)
        expected = _fresh_oracle(circuit, backend, options, models)
        _assert_bitwise(got, expected, context=backend)

    @pytest.mark.parametrize(
        "name,backend,options",
        [
            ("c17", "junction-tree", {}),
            ("pcler8", "junction-tree", {}),
            ("alu", "segmented", {}),
            ("voter", "segmented", {}),
            *[
                (
                    "refineA",
                    "segmented",
                    dict(
                        max_gates_per_segment=10,
                        lookback=0,
                        refine=2,
                        parallelism=parallelism,
                    ),
                )
                for parallelism in (0, 2)
            ],
            ("c17", "enumeration", {}),
        ],
    )
    def test_query_is_its_row_of_a_larger_batch(self, name, backend, options):
        """``query(X)`` is a one-scenario ``query_many``: on a fresh
        compile it equals X's row of a two-scenario sweep bitwise,
        refinement bookkeeping included."""
        circuit = suite.load_circuit(name)
        x, y = IndependentInputs(0.3), IndependentInputs(0.65)
        single = compile_model(circuit, x, backend=backend, **options).query(x)
        pair = compile_model(circuit, x, backend=backend, **options).query_many(
            [y, x]
        )
        _assert_bitwise([single], pair[1:], context=f"{name} {backend}")
        assert single.method == pair[1].method
        assert single.segments == pair[1].segments
        if options.get("refine"):
            assert single.refine_iterations > 0
        assert single.refine_iterations == pair[1].refine_iterations
        assert single.refine_delta == pair[1].refine_delta

    @pytest.mark.parametrize("backend,options", BACKENDS[:2])
    def test_lockstep_sweeps_stay_bitwise(self, backend, options):
        """Sweep 2 on a warm batch engine (partial repropagation) must
        track K persistent single estimators updated in lockstep."""
        circuit = c17()
        k = 5
        sweep_a, sweep_b = _models(k), _models(k, salt=0.41)
        compiled = compile_model(circuit, sweep_a[0], backend=backend, **options)
        compiled.query_many(sweep_a)
        got_b = compiled.query_many(sweep_b)

        singles = [
            compile_model(circuit, sweep_a[j], backend=backend, **options)
            for j in range(k)
        ]
        for j in range(k):
            singles[j].query(sweep_a[j])
        expected_b = [singles[j].query(sweep_b[j]) for j in range(k)]
        _assert_bitwise(got_b, expected_b, context=f"{backend} sweep 2")

    def test_correlated_and_temporal_models_batch(self):
        """Scenario batches are not limited to independent inputs."""
        circuit = c17()
        models = [
            TemporalInputs(p_one=0.6, activity=0.3),
            TemporalInputs(p_one=0.4, activity=0.2),
            IndependentInputs(0.5),
        ]
        compiled = compile_model(circuit, models[0], backend="junction-tree")
        got = compiled.query_many(models)
        expected = _fresh_oracle(circuit, "junction-tree", {}, models)
        _assert_bitwise(got, expected)


class TestSingleQueryPathIsolation:
    def test_estimate_many_does_not_perturb_estimate(self):
        """Interleaving a batch sweep must not leave state behind that
        changes what a later query computes.  A query is a K=1 batch on
        the tree's one engine, so the query after a K=6 sweep rebuilds
        the K=1 engine and runs a full pass: bitwise a fresh compile's
        answer, and within 1e-12 of an uninterrupted query history
        (whose second query took the dirty-clique path)."""
        circuit = c17()
        model = IndependentInputs(0.3)
        fresh = compile_model(circuit, model, backend="junction-tree")
        expected = fresh.query(IndependentInputs(0.7))
        history = compile_model(circuit, model, backend="junction-tree")
        history.query(model)
        uninterrupted = history.query(IndependentInputs(0.7))

        compiled = compile_model(circuit, model, backend="junction-tree")
        compiled.query(model)
        compiled.query_many(_models(6))
        got = compiled.query(IndependentInputs(0.7))
        for line, dist in expected.distributions.items():
            assert np.array_equal(got.distributions[line], dist)
            np.testing.assert_allclose(
                got.distributions[line],
                uninterrupted.distributions[line],
                rtol=0,
                atol=1e-12,
            )

    def test_estimator_input_model_is_untouched(self):
        circuit = c17()
        model = IndependentInputs(0.3)
        compiled = compile_model(circuit, model, backend="junction-tree")
        compiled.query_many(_models(4))
        assert compiled.estimator.input_model is model


class TestChunkingAndEdges:
    @pytest.mark.parametrize("backend,options", BACKENDS)
    def test_empty_sweep_returns_empty_list(self, backend, options):
        compiled = compile_model(c17(), backend=backend, **options)
        assert compiled.query_many([]) == []

    def test_chunked_sweep_matches_unchunked(self):
        """batch_size bounds memory; chunk boundaries cross the warm
        engine's dirty paths, so agreement is numerical, not bitwise."""
        circuit = c17()
        models = _models(7)
        a = compile_model(circuit, models[0], backend="junction-tree")
        b = compile_model(circuit, models[0], backend="junction-tree")
        whole = a.query_many(models)
        chunked = b.query_many(models, batch_size=2)
        for g, e in zip(chunked, whole):
            for line, dist in e.distributions.items():
                assert np.allclose(g.distributions[line], dist, atol=1e-12)

    def test_amortized_timing_is_reported(self):
        compiled = compile_model(c17(), backend="junction-tree")
        results = compiled.query_many(_models(3))
        assert all(r.propagate_seconds > 0 for r in results)
        assert all(r.method == "single-bn" for r in results)


class TestFacade:
    def test_estimate_many_compiles_once_and_orders_results(self, tmp_path):
        circuit = c17()
        models = _models(4)
        results = estimate_many(
            circuit, models, backend="junction-tree", cache=tmp_path
        )
        assert len(results) == 4
        assert all(r.cache_hit is False for r in results)
        expected = _fresh_oracle(circuit, "junction-tree", {}, models)
        _assert_bitwise(results, expected)

        again = estimate_many(
            circuit, models, backend="junction-tree", cache=tmp_path
        )
        assert all(r.cache_hit is True for r in again)
        _assert_bitwise(again, expected)

    def test_estimate_many_empty_list(self):
        assert estimate_many(c17(), []) == []

    def test_estimate_many_validates_models(self):
        # The validate pass probes each model's marginals; an out-of-
        # range probability surfaces as a ValueError (InputModelError
        # when the model itself tolerates it) before any compile work.
        with pytest.raises(ValueError):
            estimate_many(c17(), [IndependentInputs(1.5)])

    def test_estimate_many_checks_the_circuit_once(self, monkeypatch):
        calls = []
        real = facade.validate_circuit
        monkeypatch.setattr(
            facade, "validate_circuit", lambda c: calls.append(c) or real(c)
        )
        estimate_many(c17(), _models(6), backend="junction-tree")
        assert len(calls) == 1

    def test_estimate_many_rejects_a_bad_scenario_mid_sweep(self):
        circuit = c17()
        models = _models(8)
        models[5] = FixedMarginalInputs(
            {name: np.full(4, 0.25) for name in circuit.inputs[:-1]}
        )
        with pytest.raises(InputModelError, match="no statistics"):
            estimate_many(circuit, models, backend="junction-tree")

    def test_estimate_many_rejects_a_mutated_cycle(self):
        circuit = c17()
        first, second = list(circuit.gates)[:2]
        circuit.gates[first] = Gate(first, GateType.NAND, ["1", second])
        circuit.gates[second] = Gate(second, GateType.NAND, ["1", first])
        with pytest.raises(CombinationalCycleError):
            estimate_many(circuit, _models(3), backend="junction-tree")

    def test_estimate_many_is_importable_from_repro(self):
        import repro

        assert repro.estimate_many is estimate_many
