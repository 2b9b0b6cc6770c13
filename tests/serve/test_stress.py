"""Concurrency stress: batched serving must be bitwise-deterministic.

The serving path's determinism contract: every propagation is a full
pass over freshly-installed potentials (replicas are reset before each
batch), so a scenario's result is a pure function of its potentials --
regardless of which replica ran it, which batch it landed in, or what
its batch-mates were.  N client threads hammering mixed circuits
through a live server (compile cache ON) must therefore produce
results bitwise-equal to a single-threaded ``estimate`` oracle, with
zero model-pool evictions.
"""

import threading

import numpy as np
import pytest

from repro import estimate
from repro.circuits import suite
from repro.core.inputs import input_model_from_spec
from repro.serve import EstimationServer, ServeClient, ServerConfig
from repro.serve.client import scenario_spec

#: (circuit, scenario index) pairs interleaved across client threads.
CIRCUITS = ("c17", "pcler8")
ITERATIONS = 100
THREADS = 8


@pytest.fixture(scope="module")
def oracle():
    """Single-threaded ground truth, fresh compile per circuit."""
    expected = {}
    for name in CIRCUITS:
        circuit = suite.load_circuit(name)
        for index in range(ITERATIONS // len(CIRCUITS)):
            spec = scenario_spec(index)
            expected[(name, index)] = estimate(
                circuit, input_model_from_spec(spec),
                backend="auto", cache=None,
            )
    return expected


def test_stress_bitwise_vs_single_threaded(tmp_path, oracle):
    config = ServerConfig(
        port=0,
        cache=str(tmp_path / "cache"),
        max_models=8,  # both circuits stay resident: no evictions
        engines_per_model=2,
        max_batch=8,
        linger_ms=1.0,
        workers=2,
    )
    work = sorted(oracle)  # (circuit, index), deterministic order
    with EstimationServer(config) as server:
        client = ServeClient(server.address, timeout=60.0)
        results = {}
        failures = []
        lock = threading.Lock()
        cursor = {"next": 0}

        def worker():
            try:
                while True:
                    with lock:
                        if cursor["next"] >= len(work):
                            return
                        item = work[cursor["next"]]
                        cursor["next"] += 1
                    name, index = item
                    response = client.estimate(
                        name, scenario_spec(index), detail="distributions"
                    )
                    with lock:
                        results[item] = response
            except BaseException as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, name=f"stress-{i}")
            for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not failures, failures[:3]
        assert len(results) == len(work)

        stats = server.pool.stats()
        batch_stats = server.batcher.stats

    # Zero evictions: both models stayed resident for the whole run.
    assert stats["evictions"] == 0
    assert stats["resident"] == len(CIRCUITS)
    # The run exercised actual coalescing, not accidental singletons.
    assert batch_stats.items == len(work)
    assert batch_stats.batches < len(work)

    for (name, index), response in results.items():
        expect = oracle[(name, index)]
        assert response["mean_activity"] == float(expect.mean_activity())
        for line, activity in expect.activities.items():
            assert response["activities"][line] == float(activity)
        for line, dist in expect.distributions.items():
            got = np.asarray(response["distributions"][line])
            assert np.array_equal(got, dist), (
                f"{name} scenario {index} line {line}: "
                f"served {got} != oracle {dist}"
            )


def test_stress_cached_bitwise_vs_single_threaded(tmp_path, oracle):
    """Cache-on variant: repeated scenarios under concurrency.

    Every request is issued three times, so most of them resolve from
    the result cache or share a batch with an in-flight duplicate --
    the replayed marginals must still be bitwise-equal to the
    single-threaded fresh-compile oracle.  ``batch_stats.items`` is
    *not* asserted against the request count here: cache hits never
    reach the batcher.
    """
    config = ServerConfig(
        port=0,
        cache=str(tmp_path / "cache"),
        max_models=8,
        engines_per_model=2,
        max_batch=8,
        linger_ms=1.0,
        workers=2,
        result_cache_entries=1024,
    )
    copies = 3
    work = sorted(oracle) * copies
    with EstimationServer(config) as server:
        client = ServeClient(server.address, timeout=60.0)
        results = {}
        hit_flags = []
        failures = []
        lock = threading.Lock()
        cursor = {"next": 0}

        def worker():
            try:
                while True:
                    with lock:
                        if cursor["next"] >= len(work):
                            return
                        item = work[cursor["next"]]
                        cursor["next"] += 1
                    name, index = item
                    response = client.estimate(
                        name, scenario_spec(index), detail="distributions"
                    )
                    with lock:
                        results[item] = response
                        hit_flags.append(response.get("result_cache_hit"))
            except BaseException as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, name=f"stress-cached-{i}")
            for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not failures, failures[:3]
        assert len(results) == len(work) // copies

        cache_stats = server.rcache.stats()

    # Repetition must actually exercise the reuse layer: every lookup
    # is counted, and two extra copies of each scenario guarantee hits
    # (a duplicate either finds the stored entry or joins the original
    # request's in-flight slot -- both are reuse, at least one of the
    # two repeats of each scenario lands after its first store).
    assert cache_stats["hits"] > 0
    assert any(flag is True for flag in hit_flags)

    for (name, index), response in results.items():
        expect = oracle[(name, index)]
        assert response["mean_activity"] == float(expect.mean_activity())
        for line, dist in expect.distributions.items():
            got = np.asarray(response["distributions"][line])
            assert np.array_equal(got, dist), (
                f"{name} scenario {index} line {line}: "
                f"served {got} != oracle {dist}"
            )
