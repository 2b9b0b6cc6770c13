"""Self-test of the benchmark's inputs (``run.py --self-test``).

Asserts that scenario streams are seeded: two seeds share no scenario
spec, one seed replays a byte-identical stream (Zipf ids included), and
no stream repeats a spec; then that the traced counter of skipped
unchanged potentials sees a replay (one compiled model queried twice
with the same scenarios reads more than 0), and that a traced ``sweep``
run reads 0 on it: the engine never skips a replayed input.
"""

from __future__ import annotations

import sys

from streams import Stream, canonical

PURPOSES = ("sweep", "sweep_repeat", "universe", "warm", "closed", "open", "setup", "check")
CIRCUITS = ("c17", "pcler8", "alu", "c432s")


def _stream(seed: int, purpose: str, circuit: str, n: int = 64):
    from repro.circuits.suite import load_circuit

    stream = Stream(seed, purpose, circuit, load_circuit(circuit).inputs)
    return [canonical(s) for s in stream.take(n)], stream.zipf(16, n)


def replayed_unchanged() -> float:
    """``engine.potentials_unchanged`` of a traced replay: one compiled
    pcler8 model queried twice with the same 64 scenarios, so the second
    install finds its potentials equal to the installed ones."""
    from repro.circuits.suite import load_circuit
    from repro.core.backend import compile_model
    from repro.core.inputs import input_model_from_spec

    import layers
    from tracing import Tracer, by_root

    circuit = load_circuit("pcler8")
    specs = Stream(1, "sweep", "pcler8", circuit.inputs).take(64)
    models = [input_model_from_spec(spec) for spec in specs]
    compiled = compile_model(circuit, backend="auto", cache=None)
    tracer = Tracer()
    layers.install_library(tracer)
    try:
        for job in (1, 2):
            tracer.next_root(job)
            compiled.query_many(models)
    finally:
        tracer.restore()
    work = layers.engine_work(by_root(tracer.spans), (1, 2), tracer.counts)
    return layers.engine_metrics(work, 2 * len(models), work)["engine.potentials_unchanged"]


def main() -> int:
    failures = []
    for purpose in PURPOSES:
        for circuit in CIRCUITS:
            one, ids_one = _stream(1, purpose, circuit)
            again, ids_again = _stream(1, purpose, circuit)
            two, _ids_two = _stream(2, purpose, circuit)
            if one != again or ids_one != ids_again:
                failures.append(f"{purpose}/{circuit}: seed 1 does not replay byte-identically")
            if set(one) & set(two):
                failures.append(f"{purpose}/{circuit}: seeds 1 and 2 share a scenario spec")
            if len(set(one)) != len(one):
                failures.append(f"{purpose}/{circuit}: a stream repeats a scenario spec")
    print(f"streams: {len(PURPOSES) * len(CIRCUITS)} checked")

    replayed = replayed_unchanged()
    print(f"replay: engine.potentials_unchanged = {replayed:g}")
    if not replayed > 0:
        failures.append("replay: the counter of skipped unchanged potentials does not see a replay")

    import run

    out = run.run_workload("sweep", 1, 2.0, True)
    unchanged = out["layers"]["engine.potentials_unchanged"]
    print(f"sweep: engine.potentials_unchanged = {unchanged:g}")
    if unchanged != 0:
        failures.append("sweep: the engine skipped unchanged potentials")
    failures += out["failures"]
    for failure in failures:
        print(f"FAILED: {failure}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
