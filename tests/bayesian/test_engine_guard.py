"""Reentrancy guard: one PropagationEngine, one thread at a time.

The engine's belief/message buffers are preallocated and mutated in
place, so two threads propagating through one engine silently corrupt
each other's results.  The guard turns that silent corruption into a
typed :class:`~repro.errors.ConcurrentPropagationError`; the serving
layer's engine pool is the sanctioned way to run concurrent queries
(pinned by the bitwise regression test below).
"""

import pickle
import threading

import numpy as np
import pytest

from repro.bayesian import JunctionTree
from repro.core.backend import compile_model
from repro.core.inputs import IndependentInputs
from repro.errors import ConcurrentPropagationError, PropagationError

from tests.bayesian.util import sprinkler_bn


def _calibrated_engine():
    """The tree's one engine, after the K=1 install a calibration is."""
    jt = JunctionTree.from_network(sprinkler_bn())
    jt.calibrate()
    assert jt._engine.batch_size == 1
    return jt._engine


class TestGuard:
    def test_concurrent_entry_raises_typed_error(self):
        """A second thread entering mid-propagation gets the typed error."""
        engine = _calibrated_engine()
        entered = threading.Event()
        release = threading.Event()
        original = engine._absorb_from_parent

        def stalled(*args, **kwargs):
            entered.set()
            assert release.wait(timeout=10.0)
            return original(*args, **kwargs)

        engine._absorb_from_parent = stalled
        engine.mark_all_dirty()
        failures = []

        def propagate():
            try:
                engine.propagate()
            except BaseException as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        thread = threading.Thread(target=propagate)
        thread.start()
        try:
            assert entered.wait(timeout=10.0)
            with pytest.raises(ConcurrentPropagationError):
                engine.propagate()
            with pytest.raises(ConcurrentPropagationError):
                engine.marginals(["cloudy"])
        finally:
            release.set()
            thread.join(timeout=10.0)
        assert not failures
        # The guard is released afterwards: serial re-entry works.
        engine.marginals(["cloudy"])

    def test_error_is_a_propagation_error(self):
        assert issubclass(ConcurrentPropagationError, PropagationError)

    def test_serial_reuse_is_unaffected(self):
        engine = _calibrated_engine()
        first = engine.marginals(["cloudy", "wet"])
        second = engine.marginals(["cloudy", "wet"])
        for node in first:
            assert np.array_equal(first[node], second[node])

    def test_engine_survives_pickling_with_fresh_guard(self):
        """The guard lock is dropped on pickle and recreated on load
        (compiled artifacts round-trip through the compile cache)."""
        engine = _calibrated_engine()
        clone = pickle.loads(pickle.dumps(engine))
        assert clone._guard is not engine._guard
        out = clone.marginals(["cloudy"])
        assert np.array_equal(out["cloudy"], engine.marginals(["cloudy"])["cloudy"])


class TestEnginePoolBitwise:
    """Two threads hammering one compiled artifact through the serving
    engine pool must be bitwise-equal to running the same scenarios
    serially on a fresh compile -- the regression the guard exposed."""

    def test_two_threads_match_serial(self):
        from repro.circuits.examples import c17
        from repro.serve.pool import EnginePool

        circuit = c17()
        scenarios = [IndependentInputs(0.05 + 0.09 * i) for i in range(10)]

        serial_model = compile_model(circuit, backend="junction-tree")
        serial = []
        for scenario in scenarios:
            serial_model.estimator.reset_propagation()
            serial.append(serial_model.query(scenario))

        pool = EnginePool(
            compile_model(circuit, backend="junction-tree"), capacity=2
        )
        results = [None] * len(scenarios)
        failures = []

        def worker(offset):
            try:
                for i in range(offset, len(scenarios), 2):
                    replica = pool.checkout(timeout=30.0)
                    try:
                        replica.estimator.reset_propagation()
                        results[i] = replica.query(scenarios[i])
                    finally:
                        pool.checkin(replica)
            except BaseException as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not failures
        for expect, got in zip(serial, results):
            assert got is not None
            for line, dist in expect.distributions.items():
                assert np.array_equal(dist, got.distributions[line])
