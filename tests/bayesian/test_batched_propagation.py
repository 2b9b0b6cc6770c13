"""Tests for the batched (leading-K-axis) propagation engine.

The batched engine's contract is *bitwise* agreement with K
independent single-query propagations over the same potentials: every
kernel (einsum collect, masked-divide distribute, marginal reduction,
normalization) operates elementwise or reduces each batch slice with
the same pairwise order numpy uses on an unbatched array.  These tests
pin that contract at the engine level, plus the batch-aware failure
modes (per-scenario zero beliefs) and the skip-unchanged-potential
fast path.
"""

import numpy as np
import pytest

from repro.bayesian import BayesianNetwork, JunctionTree, TabularCPD
from repro.bayesian.propagation import PropagationEngine
from repro.circuits import suite
from repro.core import SwitchingActivityEstimator
from repro.errors import ZeroBeliefError

from tests.bayesian.util import random_bn, sprinkler_bn


def _batched_engine_for(jt: JunctionTree, stacks, k=None):
    """A batched engine over ``jt``'s schedule with per-clique stacks."""
    schedule = jt._ensure_schedule()
    if k is None:
        k = len(next(iter(stacks.values())))
    engine = PropagationEngine(schedule, batch_size=k)
    jt.calibrate()  # materialize _cpd_products
    for idx in range(len(jt.cliques)):
        if idx in stacks:
            engine.set_potential_batch(idx, stacks[idx])
        else:
            base = jt._cpd_products[idx].permute(schedule.orders[idx]).values
            engine.set_potential_batch(
                idx, np.broadcast_to(base, (k,) + base.shape).copy()
            )
    return engine


def _single_run(jt: JunctionTree, overrides):
    """Fresh single engine over the same schedule with ``overrides``."""
    schedule = jt._ensure_schedule()
    engine = PropagationEngine(schedule)
    for idx in range(len(jt.cliques)):
        if idx in overrides:
            values = overrides[idx]
        else:
            values = jt._cpd_products[idx].permute(schedule.orders[idx]).values
        engine._install_psi(idx, np.array(values, dtype=np.float64))
    engine.propagate()
    return engine


class TestBatchedBitwise:
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_batched_rows_match_independent_single_runs(self, k):
        bn = sprinkler_bn()
        jt = JunctionTree.from_network(bn)
        jt.calibrate()
        schedule = jt._ensure_schedule()
        # Vary the clique holding "cloudy" per scenario by scaling the
        # cloudy axis of its CPD-product table.
        idx, axis = schedule.variable_axis["cloudy"]
        base = jt._cpd_products[idx].permute(schedule.orders[idx]).values
        shape = [1] * base.ndim
        shape[axis] = base.shape[axis]
        tables = []
        for i in range(k):
            p = 0.1 + 0.8 * i / max(k - 1, 1)
            scale = np.array([2.0 * p, 2.0 * (1.0 - p)]).reshape(shape)
            tables.append(base * scale)
        stack = np.stack(tables)

        engine = _batched_engine_for(jt, {idx: stack})
        engine.propagate()
        nodes = list(bn.nodes)
        batched = engine.marginals(nodes)

        for i in range(k):
            single = _single_run(jt, {idx: tables[i]})
            expect = single.marginals(nodes)
            for node in nodes:
                assert np.array_equal(batched[node][i], expect[node]), (
                    f"scenario {i}, node {node}"
                )

    def test_random_network_k1_matches_single(self):
        bn = random_bn(9, seed=21, max_parents=3)
        jt = JunctionTree.from_network(bn)
        jt.calibrate()
        engine = _batched_engine_for(jt, {}, k=1)
        engine.propagate()
        nodes = list(bn.nodes)
        batched = engine.marginals(nodes)
        single = _single_run(jt, {})
        expect = single.marginals(nodes)
        for node in nodes:
            assert batched[node].shape == (1,) + expect[node].shape
            assert np.array_equal(batched[node][0], expect[node])

    def test_scenarios_propagated_counter_scales_with_batch(self):
        bn = sprinkler_bn()
        jt = JunctionTree.from_network(bn)
        jt.calibrate()
        engine = _batched_engine_for(jt, {}, k=4)
        engine.propagate()
        assert engine.counters.scenarios_propagated == 4
        single = _single_run(jt, {})
        assert engine.counters.flops == 4 * single.counters.flops


class TestZeroBeliefIsolation:
    def _engine_with_zero_scenario(self):
        bn = sprinkler_bn()
        jt = JunctionTree.from_network(bn)
        jt.calibrate()
        schedule = jt._ensure_schedule()
        idx, _ = schedule.variable_axis["cloudy"]
        base = jt._cpd_products[idx].permute(schedule.orders[idx]).values
        stack = np.stack([base, np.zeros_like(base), base * 0.5])
        engine = _batched_engine_for(jt, {idx: stack})
        engine.propagate()
        return jt, engine, idx

    def test_strict_mode_names_the_offending_scenarios(self):
        _, engine, _ = self._engine_with_zero_scenario()
        with pytest.raises(ZeroBeliefError) as excinfo:
            engine.marginals(["cloudy"])
        assert excinfo.value.batch_indices == (1,)

    def test_skip_zero_isolates_batch_mates(self):
        jt, engine, idx = self._engine_with_zero_scenario()
        out = engine.marginals(["cloudy", "wet"], skip_zero=True)
        assert np.isnan(out["cloudy"][1]).all()
        assert np.isnan(out["wet"][1]).all()
        # Unaffected scenarios are bitwise-identical to solo runs.
        schedule = jt._ensure_schedule()
        base = jt._cpd_products[idx].permute(schedule.orders[idx]).values
        for i, table in ((0, base), (2, base * 0.5)):
            single = _single_run(jt, {idx: table})
            expect = single.marginals(["cloudy", "wet"])
            assert np.array_equal(out["cloudy"][i], expect["cloudy"])
            assert np.array_equal(out["wet"][i], expect["wet"])


class TestSkipUnchangedPotential:
    def test_reinstalling_equal_potential_is_a_no_op(self):
        bn = sprinkler_bn()
        jt = JunctionTree.from_network(bn)
        jt.calibrate()
        engine = jt._engine
        assert engine is not None and not engine.dirty
        before = engine.counters.potentials_unchanged
        # Re-push every clique's current potential: array-equal values
        # must leave the engine clean and only bump the skip counter.
        schedule = jt._ensure_schedule()
        for idx in range(len(jt.cliques)):
            engine.set_potential(idx, jt._cpd_products[idx].permute(schedule.orders[idx]))
        assert engine.counters.potentials_unchanged == before + len(jt.cliques)
        assert not engine.dirty
        propagations = engine.counters.propagations
        engine.propagate()
        assert engine.counters.propagations == propagations  # early-out

    def test_update_cpds_with_identical_values_skips_repropagation(self):
        bn = sprinkler_bn()
        jt = JunctionTree.from_network(bn)
        jt.calibrate()
        engine = jt._engine
        skipped = engine.counters.cliques_skipped
        reprop = engine.counters.cliques_repropagated
        jt.update_cpds([TabularCPD.prior("cloudy", [0.5, 0.5])])  # same values
        jt.calibrate()
        assert engine.counters.cliques_repropagated == reprop
        assert engine.counters.cliques_skipped == skipped
        assert engine.counters.potentials_unchanged >= 1


class TestPackedBatchInstall:
    """``set_potential_batch`` takes packed ``(K, nnz)`` stacks on packed
    cliques and dense ``(K, *shape)`` stacks everywhere."""

    K = 3

    @pytest.fixture(scope="class")
    def schedule(self):
        # pcler8 under kernel="auto" mixes packed and dense cliques.
        est = SwitchingActivityEstimator(suite.load_circuit("pcler8")).compile()
        schedule = est.junction_tree._ensure_schedule()
        assert schedule.sparse_cliques and not all(schedule.sparse)
        return schedule

    def _packed_clique(self, schedule):
        idx, sp = next(iter(schedule.sparse_cliques.items()))
        dense = np.random.default_rng(idx).random((self.K,) + schedule.shapes[idx])
        return idx, sp, dense

    def test_packed_stack_installs_like_a_dense_stack(self, schedule):
        idx, sp, dense = self._packed_clique(schedule)
        from_dense = PropagationEngine(schedule, batch_size=self.K)
        from_dense.set_potential_batch(idx, dense)
        from_packed = PropagationEngine(schedule, batch_size=self.K)
        from_packed.set_potential_batch(
            idx, dense.reshape(self.K, -1)[:, sp.flat_idx]
        )
        assert from_packed._psi[idx].shape == (self.K, sp.nnz)
        assert np.array_equal(from_packed._psi[idx], from_dense._psi[idx])
        assert idx in from_packed.dirty

    def test_packed_stack_on_a_dense_clique_raises(self, schedule):
        idx = next(
            i
            for i in range(schedule.n_cliques)
            if not schedule.sparse[i]
            and schedule.support_nnz[i] < schedule.sizes[i]
        )
        engine = PropagationEngine(schedule, batch_size=self.K)
        with pytest.raises(ValueError, match="expected"):
            engine.set_potential_batch(
                idx, np.ones((self.K, schedule.support_nnz[idx]))
            )

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_nnz_raises(self, schedule, delta):
        idx, sp, _ = self._packed_clique(schedule)
        engine = PropagationEngine(schedule, batch_size=self.K)
        with pytest.raises(ValueError, match="packed"):
            engine.set_potential_batch(idx, np.ones((self.K, sp.nnz + delta)))

    def test_reinstalling_a_packed_stack_counts_unchanged(self, schedule):
        idx, sp, dense = self._packed_clique(schedule)
        packed = dense.reshape(self.K, -1)[:, sp.flat_idx]
        engine = PropagationEngine(schedule, batch_size=self.K)
        engine.set_potential_batch(idx, packed)
        assert engine.counters.potentials_unchanged == 0
        engine.set_potential_batch(idx, packed.copy())
        assert engine.counters.potentials_unchanged == 1
