"""Sparse message kernels: support soundness, parity, and diagnostics.

Three guarantees ride on the compile-time support analysis:

1. **Soundness** -- no state with nonzero probability under *any*
   input model is ever outside the analyzed support (the property
   test calibrates a dense oracle engine and checks its beliefs
   against the sparse schedule's masks, over the differential fuzz
   generator's circuit/model mix).
2. **Parity** -- packed kernels produce the same marginals as the
   dense reductions, within float association-order noise (hard bound
   1e-12), across batch sizes and every exact backend.
3. **Invalidation** -- swapping a deterministic CPD for one with mass
   outside the recorded support drops the compiled state instead of
   silently truncating it.

Plus the observability/CI satellites: ``support_stats`` /
``jt.feasible_states`` gauges, and the ``bench_diff.py`` regression
gate's exit codes.
"""

import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.bayesian.cpd import TabularCPD
from repro.bayesian.junction import JunctionTree
from repro.circuits import suite
from repro.core import IndependentInputs, SwitchingActivityEstimator
from repro.core.backend import estimate_many
from repro.core.estimator import exact_switching_by_enumeration
from repro.core.inputs import CorrelatedGroupInputs
from repro.testing import input_model_from_json, input_model_to_json, make_case

BENCH_DIFF = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_diff.py"


def _fuzz_case(seed, max_gates=20, max_inputs=5):
    circuit, spec = make_case(seed, max_gates=max_gates, max_inputs=max_inputs)
    return circuit, input_model_from_json(input_model_to_json(spec))


class TestSupportSoundness:
    """No nonzero-probability state is ever pruned."""

    @pytest.mark.parametrize("seed", range(8))
    def test_dense_beliefs_stay_inside_analyzed_support(self, seed):
        # All four input-model kinds rotate through the seeds, and
        # every fifth seed pins inputs to exact 0/1 probabilities, so
        # zero-mass states reach the analysis from both sides.
        circuit, model = _fuzz_case(seed)
        sparse = SwitchingActivityEstimator(
            circuit, model, kernel="sparse"
        ).compile()
        schedule = sparse._jt._schedule
        dense = SwitchingActivityEstimator(
            circuit, model, kernel="dense"
        ).compile()
        dense.estimate()
        beliefs = [
            dense._jt.clique_belief(idx) for idx in range(len(dense._jt.cliques))
        ]
        assert schedule.orders == dense._jt._schedule.orders
        checked = 0
        for idx, mask in enumerate(schedule.supports):
            if mask is None:
                continue
            outside = beliefs[idx].values[~mask]
            # Structural zeros are exact: every outside entry is a
            # product/sum chain through at least one exact 0.0.
            assert float(np.abs(outside).max(initial=0.0)) == 0.0
            checked += 1
        if circuit.num_gates >= 5:
            assert checked > 0, "analysis found no deterministic support"

    def test_support_tightens_only_from_determinism(self):
        # An estimator sees full support everywhere when the kernel is
        # dense (no masks are even computed).
        circuit = suite.load_circuit("c17")
        est = SwitchingActivityEstimator(circuit, kernel="dense").compile()
        schedule = est._jt._schedule
        assert all(mask is None for mask in schedule.supports)
        assert not schedule.sparse_cliques


class TestParity:
    """Packed kernels match the dense oracle and the enumeration oracle."""

    @pytest.mark.parametrize("backend", ["junction-tree", "segmented"])
    @pytest.mark.parametrize("k", [1, 3, 17])
    def test_sparse_matches_dense_across_batch_sizes(self, backend, k):
        circuit = suite.load_circuit("c17")
        ps = [0.0, 1.0, 0.5] + [0.05 + 0.9 * (i / max(k, 2)) for i in range(k)]
        models = [IndependentInputs(p) for p in ps[:k]]
        got = estimate_many(circuit, models, backend=backend, kernel="sparse")
        ref = estimate_many(circuit, models, backend=backend, kernel="dense")
        for sparse_est, dense_est in zip(got, ref):
            for line, dist in dense_est.distributions.items():
                np.testing.assert_allclose(
                    sparse_est.distributions[line], dist, atol=1e-12, rtol=0
                )

    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_sparse_matches_enumeration_oracle(self, seed):
        circuit, model = _fuzz_case(seed, max_gates=15, max_inputs=4)
        oracle = exact_switching_by_enumeration(circuit, model)
        est = SwitchingActivityEstimator(circuit, model, kernel="sparse")
        result = est.estimate()
        for line, dist in oracle.items():
            np.testing.assert_allclose(
                result.distributions[line], dist, atol=1e-10, rtol=0
            )

    def test_float32_batch_mode_within_tolerance(self):
        circuit = suite.load_circuit("c17")
        models = [IndependentInputs(p) for p in (0.1, 0.5, 0.0, 0.93)]
        est = SwitchingActivityEstimator(circuit, kernel="auto").compile()
        exact = est.estimate_many(models)
        approx = est.estimate_many(models, dtype="float32")
        for a, b in zip(approx, exact):
            for line, dist in b.distributions.items():
                np.testing.assert_allclose(
                    a.distributions[line], dist, atol=1e-5, rtol=0
                )


#: the unpatched method; the spy below records calls to it
_PRODUCT_BATCH = JunctionTree._clique_cpd_product_batch


def _dense_then_gather(jt, idx, overrides, k):
    """The install before packing: the dense ``(K, *shape)`` product of
    clique ``idx``, gathered at the packed support."""
    twin = copy.copy(jt)
    twin._schedule = copy.copy(jt._schedule)
    twin._schedule.sparse_cliques = {}
    dense = _PRODUCT_BATCH(twin, idx, overrides, k)
    assert dense.shape == (k,) + jt._schedule.shapes[idx]
    return dense.reshape(k, -1)[:, jt._schedule.sparse_cliques[idx].flat_idx]


@pytest.fixture
def product_calls(monkeypatch):
    """Every batched clique product built while the test runs, as
    ``(jt, idx, overrides, k, result)``."""
    calls = []

    def spy(self, idx, overrides, k):
        result = _PRODUCT_BATCH(self, idx, overrides, k)
        calls.append((self, idx, overrides, k, result))
        return result

    monkeypatch.setattr(JunctionTree, "_clique_cpd_product_batch", spy)
    return calls


def _sweep_models(k):
    return [IndependentInputs(0.05 + 0.9 * ((i * 0.618) % 1.0)) for i in range(k)]


class TestPackedInstall:
    """Packed cliques get their potentials built on the support, and
    every packed install equals dense-then-gather bitwise."""

    @staticmethod
    def _assert_packed_installs(calls, dtype=np.float64):
        installed = {}
        for jt, idx, overrides, k, result in calls:
            sp = jt._schedule.sparse_cliques.get(idx)
            if sp is None:
                continue
            assert result.shape == (k, sp.nnz)
            expect = _dense_then_gather(jt, idx, overrides, k)
            assert result.tobytes() == expect.tobytes()
            installed[(id(jt), idx)] = (jt, idx, expect)
        # The engine holds the last install of each clique, cast to the
        # batch dtype after packing.
        for jt, idx, expect in installed.values():
            psi = jt._engine._psi[idx]
            assert psi.dtype == dtype
            assert psi.tobytes() == expect.astype(dtype).tobytes()
        return len(installed)

    @pytest.mark.parametrize("k", [1, 3, 64])
    def test_alu_auto_matches_dense_then_gather(self, product_calls, k):
        estimate_many(suite.load_circuit("alu"), _sweep_models(k), backend="auto")
        assert self._assert_packed_installs(product_calls) > 0

    @pytest.mark.parametrize("k", [1, 3, 64])
    def test_sparse_kernel_matches_dense_then_gather(self, product_calls, k):
        # Correlated inputs stack multi-variable CPDs (input plus its
        # in-group predecessor) on the batch axis.
        circuit = suite.load_circuit("c17")
        models = [
            CorrelatedGroupInputs(
                [circuit.inputs[:3]], rho=0.2 + 0.15 * (i % 5), base=base
            )
            for i, base in enumerate(_sweep_models(k))
        ]
        estimate_many(circuit, models, backend="junction-tree", kernel="sparse")
        assert self._assert_packed_installs(product_calls) > 0

    def test_float32_installs_the_cast_packed_product(self, product_calls):
        estimate_many(
            suite.load_circuit("alu"),
            _sweep_models(3),
            backend="auto",
            dtype="float32",
        )
        assert self._assert_packed_installs(product_calls, np.float32) > 0

    def test_shared_product_broadcasts_over_the_batch(self):
        est = SwitchingActivityEstimator(
            suite.load_circuit("c17"), kernel="sparse"
        ).compile()
        jt = est.junction_tree
        schedule = jt._ensure_schedule()
        assert schedule.sparse_cliques
        for idx, sp in schedule.sparse_cliques.items():
            # With no stacked factor in the fold (no overrides, or only
            # all-ones ones, which the plan drops) every scenario shares
            # one packed table, broadcast over the batch axis.
            result = jt._clique_cpd_product_batch(idx, {}, 4)
            assert result.shape == (4, sp.nnz)
            assert result.strides[0] == 0
            expect = _dense_then_gather(jt, idx, {}, 4)
            assert result.tobytes() == expect.tobytes()


class TestInvalidation:
    """A CPD with mass outside the recorded support drops the compile."""

    def _noisy_cpd(self, old):
        table = 0.9 * old.factor.values + 0.1 * (1.0 / old.cardinality)
        return TabularCPD(
            old.variable, old.cardinality, table, parents=old.parents
        )

    def test_noisy_gate_cpd_invalidates_and_stays_exact(self):
        circuit = suite.load_circuit("c17")
        est = SwitchingActivityEstimator(circuit, kernel="sparse").compile()
        jt = est._jt
        est.estimate()
        assert jt._mask_supports, "sparse compile recorded no masks"
        gate = next(iter(jt._mask_supports))

        noisy = self._noisy_cpd(jt._bn.cpd(gate))
        jt.update_cpds([noisy])
        # The offending node never contributes a mask again.
        assert gate in jt._mask_exclude

        jt.calibrate()
        oracle = JunctionTree.from_network(jt._bn, kernel="dense")
        oracle.calibrate()
        for line in circuit.lines:
            np.testing.assert_allclose(
                jt.marginal(line), oracle.marginal(line), atol=1e-12, rtol=0
            )
        # The re-analyzed schedule excludes the noisy node's mask but
        # keeps every other gate's.
        assert gate not in jt._mask_supports

    def test_unchanged_deterministic_cpds_keep_the_compile(self):
        circuit = suite.load_circuit("c17")
        est = SwitchingActivityEstimator(circuit, kernel="sparse").compile()
        jt = est._jt
        est.estimate()
        schedule = jt._schedule
        # Swapping input statistics (root CPDs carry no masks) must not
        # drop the compiled schedule.
        est.update_inputs(IndependentInputs(0.2))
        est.estimate()
        assert jt._schedule is schedule


class TestDiagnostics:
    def test_support_stats_shape(self):
        est = SwitchingActivityEstimator(suite.load_circuit("pcler8"))
        stats = est.support_stats()
        assert stats["kernel"] == "auto"
        assert 0 < stats["feasible_states"] < stats["total_states"]
        assert 0.0 < stats["support_density"] < 1.0
        assert 0 < stats["sparse_cliques"] <= stats["cliques"]

    def test_gauges_published_at_compile(self):
        obs.enable(reset=True)
        try:
            SwitchingActivityEstimator(suite.load_circuit("pcler8")).compile()
            gauges = obs.get_metrics().snapshot()["gauges"]
        finally:
            obs.disable()
            obs.reset()
        assert gauges["jt.feasible_states"] > 0
        assert 0.0 < gauges["jt.support_density"] < 1.0
        assert gauges["jt.sparse_cliques"] > 0
        assert gauges["jt.feasible_states"] < gauges["jt.total_states"]


def _load_bench_diff():
    spec = importlib.util.spec_from_file_location("bench_diff", BENCH_DIFF)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _prop_doc(seconds_by_circuit):
    return {
        "benchmark": "propagation",
        "schema_version": 4,
        "results": [
            {"circuit": name, "repeat_estimate_min_seconds": value}
            for name, value in seconds_by_circuit.items()
        ],
    }


def _thr_doc(rate_by_key):
    return {
        "benchmark": "throughput",
        "schema_version": 2,
        "results": [
            {
                "circuit": name,
                "batch_size": k,
                "batched_scenarios_per_sec": value,
            }
            for (name, k), value in rate_by_key.items()
        ],
    }


class TestBenchDiff:
    def test_ok_within_band(self):
        mod = _load_bench_diff()
        records = mod.compare(
            _prop_doc({"c432s": 0.100}), _prop_doc({"c432s": 0.110}),
            noise_band=0.25,
        )
        assert [r["status"] for r in records] == ["ok"]

    def test_regression_detected_both_directions(self):
        mod = _load_bench_diff()
        slow = mod.compare(
            _prop_doc({"c432s": 0.100}), _prop_doc({"c432s": 0.200}),
            noise_band=0.25,
        )
        assert slow[0]["status"] == "regression"
        fewer = mod.compare(
            _thr_doc({("c17", 64): 1000.0}), _thr_doc({("c17", 64): 500.0}),
            noise_band=0.25,
        )
        assert fewer[0]["status"] == "regression"

    def test_sub_floor_timings_are_skipped(self):
        mod = _load_bench_diff()
        records = mod.compare(
            _prop_doc({"c17": 0.0002}), _prop_doc({"c17": 0.0009}),
            noise_band=0.25, floor_seconds=0.001,
        )
        assert records[0]["status"] == "skipped"

    def test_mismatched_kinds_raise(self):
        mod = _load_bench_diff()
        with pytest.raises(mod.BenchDiffError):
            mod.compare(_prop_doc({"c17": 1.0}), _thr_doc({("c17", 1): 1.0}))

    def test_cli_exit_codes(self, tmp_path):
        old = tmp_path / "old.json"
        regressed = tmp_path / "new.json"
        old.write_text(json.dumps(_prop_doc({"c432s": 0.100})))
        regressed.write_text(json.dumps(_prop_doc({"c432s": 0.500})))
        run = lambda a, b: subprocess.run(
            [sys.executable, str(BENCH_DIFF), str(a), str(b)],
            capture_output=True, text=True,
        )
        assert run(old, old).returncode == 0
        assert run(old, regressed).returncode == 1
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(_thr_doc({("c17", 1): 1.0})))
        assert run(old, broken).returncode == 2
