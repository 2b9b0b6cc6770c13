"""The ``serve_fresh`` and ``serve_zipf`` workloads: ``/estimate`` on a
``repro serve`` process.

The server runs as a subprocess with its default configuration and a
cold compile cache in the run's directory.  One client process drives
it over ``min(2, nproc)`` keep-alive connections with c17 and alu
requests interleaved: first a closed loop (capacity), then an open loop
at :data:`OPEN_RATE` (latency, timed from each request's scheduled
send).  ``serve_fresh`` makes every scenario distinct; ``serve_zipf``
draws scenario ids Zipf(1.1) over 64 ids per circuit, so most requests
are result-cache hits.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import layers
from accuracy import FIXED_POINTS, simulated_activities
from loadgen import Connection, Record, closed_loop, highest_supported, open_loop, percentile
from streams import Stream
from tracing import by_root, load_trace, self_times

CIRCUITS = ("c17", "alu")
CONNS = min(2, os.cpu_count() or 1)
HOST = "127.0.0.1"
#: Open-loop arrival rate, requests per second, fixed so every commit
#: is measured at the same offered load: about half the serve_fresh
#: closed-loop capacity at 2 connections on a slow 2-vCPU host (95/s).
OPEN_RATE = 48.0
#: share of the measured window spent in the closed loop
CLOSED_SHARE = 0.4
ZIPF_UNIVERSE = 64
SETUP_REPEATS = 3
WARMUP_SECONDS = 2.5
#: request bodies prepared per closed-loop second, well above the
#: capacity seen (serve_zipf reuses its 128 encoded bodies, so it can
#: afford more); a phase that runs out ends early and says so
BODIES_PER_S = {False: 1000, True: 8000}
#: timed responses per circuit whose mean activity is checked in-process
CHECKED_PER_CIRCUIT = 256
CHECK_ATOL = 1e-12
#: ``detail=distributions`` checks per circuit: replays of timed
#: scenarios (result-cache hits) and new scenarios (misses)
CHECK_HITS, CHECK_MISSES = 3, 2
CLOSED_RID, OPEN_RID, CHECK_RID = 1_000_000_000, 2_000_000_000, 3_000_000_000
#: String-hash seed of the reported (not gated) cross-seed comparison.
#: The server and the gated checks run under ``run.HASH_SEED``; alu's
#: compiled model differs in the last bits under this one.
OTHER_HASH_SEED = "1"


def _body(circuit: str, spec: dict, detail: Optional[str] = None) -> bytes:
    payload = {"circuit": circuit, "scenario": spec}
    if detail is not None:
        payload["detail"] = detail
    return json.dumps(payload).encode()


class ServerProcess:
    """``repro serve --port 0`` (or the traced launcher) as a child."""

    def __init__(self, root: Path, workdir: Path, tag: str, spans: Optional[Path] = None):
        serve_args = ["serve", "--port", "0", "--cache-dir", str(workdir / f"cache-{tag}")]
        if spans is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            cmd = [sys.executable, str(root / "perfbench" / "traced_server.py"), str(spans), *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        self.log = workdir / f"server-{tag}.log"
        self._log_handle = open(self.log, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=self._log_handle, stderr=subprocess.STDOUT
        )
        self.port = 0

    def wait_listening(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while True:
            text = self.log.read_text(errors="replace")
            match = re.search(r"listening on http://[\d.]+:(\d+)", text)
            if match:
                self.port = int(match.group(1))
                return
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start:\n{text[-2000:]}")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stats(self) -> dict:
        conn = Connection(HOST, self.port)
        try:
            return conn.get("/metrics")["meta"]
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log_handle.close()


class ServeWorkload:
    def __init__(self, seed: int, zipf: bool, root: Path, workdir: Path):
        from repro.circuits.suite import load_circuit

        self.seed = seed
        self.zipf = zipf
        self.root = root
        self.workdir = workdir
        self.circuits = {name: load_circuit(name) for name in CIRCUITS}
        #: ``(spec, encoded body)`` per Zipf id and circuit
        self.universe = {
            name: [(spec, _body(name, spec)) for spec in Stream(seed, "universe", name, c.inputs).take(ZIPF_UNIVERSE)]
            for name, c in self.circuits.items()
        }
        self.failures: List[str] = []
        self.methods: Dict[str, str] = {}
        #: ``(circuit, spec, distributions)`` of the ``detail=distributions`` checks
        self.answers: List[tuple] = []

    # -- inputs ---------------------------------------------------------

    def requests(self, purpose: str, n: int) -> List[tuple]:
        """``n`` ``(circuit, spec, body)`` requests, circuits interleaved."""
        per = {name: (n + len(CIRCUITS) - 1 - i) // len(CIRCUITS) for i, name in enumerate(CIRCUITS)}
        drawn = {}
        for name, circuit in self.circuits.items():
            stream = Stream(self.seed, purpose, name, circuit.inputs)
            if self.zipf:
                drawn[name] = [self.universe[name][i] for i in stream.zipf(ZIPF_UNIVERSE, per[name])]
            else:
                drawn[name] = [(spec, _body(name, spec)) for spec in stream.take(per[name])]
        return [
            (CIRCUITS[i % len(CIRCUITS)],) + drawn[CIRCUITS[i % len(CIRCUITS)]][i // len(CIRCUITS)]
            for i in range(n)
        ]

    # -- server lifetime ------------------------------------------------

    def launch(self, tag: str, spans: Optional[Path] = None):
        """Start a server; returns it and the seconds from launch to the
        first good response for every circuit (each compiles cold)."""
        server = ServerProcess(self.root, self.workdir, tag, spans)
        try:
            server.wait_listening()
            conn = Connection(HOST, server.port)
            try:
                for name, circuit in self.circuits.items():
                    spec = Stream(self.seed, "setup", name, circuit.inputs).take(1)[0]
                    status, payload = conn.post("/estimate", _body(name, spec))
                    if status != 200:
                        raise RuntimeError(f"set-up request for {name} failed: {payload}")
                    self.methods[name] = f"{payload['method']} ({payload['backend']})"
            finally:
                conn.close()
        except BaseException:
            server.stop()
            raise
        return server, time.perf_counter() - server.started

    def measure(self, server: ServerProcess, seconds: float) -> dict:
        """Warm-up, closed loop, open loop; returns the phase records."""
        port = server.port
        # Warm-up with the workload's own traffic, so engine replicas
        # exist and, on serve_zipf, every scenario of the universe is
        # cached: the steady state of a server that has been up a while.
        warm = [r[2] for r in self.requests("warm", int(BODIES_PER_S[self.zipf] * WARMUP_SECONDS))]
        if self.zipf:
            warm = [body for name in CIRCUITS for _spec, body in self.universe[name]] + warm
        closed_loop(HOST, port, warm, WARMUP_SECONDS, CONNS, rid_base=0)
        closed_s = CLOSED_SHARE * seconds
        closed_reqs = self.requests("closed", int(BODIES_PER_S[self.zipf] * closed_s))
        open_reqs = self.requests("open", int(OPEN_RATE * (seconds - closed_s)))
        closed_bodies = [r[2] for r in closed_reqs]
        open_bodies = [r[2] for r in open_reqs]
        before = server.stats()
        closed = closed_loop(HOST, port, closed_bodies, closed_s, CONNS, CLOSED_RID)
        opened = open_loop(HOST, port, open_bodies, OPEN_RATE, CONNS, OPEN_RID)
        after = server.stats()
        return {
            "closed": closed,
            "closed_reqs": closed_reqs,
            "open": opened,
            "open_reqs": open_reqs,
            "exhausted": len(closed) == len(closed_bodies),
            "rss_mb": server.peak_rss_mb(),
            "stats": (before, after),
        }

    # -- output checks --------------------------------------------------

    def check(self, server: ServerProcess, phase: dict) -> int:
        """Every timed response must be a success; sampled responses are
        checked against in-process estimates.  Returns checks made."""
        from repro.core.backend import compile_model, estimate
        from repro.core.inputs import input_model_from_spec

        pairs = [(r, phase["closed_reqs"][r.index][:2]) for r in phase["closed"]]
        pairs += [(r, phase["open_reqs"][r.index][:2]) for r in phase["open"]]
        for record, (name, _spec) in pairs:
            if not record.ok:
                self.failures.append(f"{name}: request {record.rid} failed with {record.status}: {record.payload}")
        rng = np.random.default_rng([self.seed, 11])
        checks = 0
        for name, circuit in self.circuits.items():
            mine = [(r, spec) for r, (c, spec) in pairs if c == name and r.ok]
            picked = [mine[i] for i in sorted(rng.choice(len(mine), min(CHECKED_PER_CIRCUIT, len(mine)), replace=False))]
            model = compile_model(circuit, backend="auto", cache=None)
            fresh = model.query_many([input_model_from_spec(s) for _r, s in picked], batch_size=64)
            for (record, _spec), result in zip(picked, fresh):
                checks += 1
                if abs(record.payload["mean_activity"] - result.mean_activity()) > CHECK_ATOL:
                    self.failures.append(f"{name}: request {record.rid} mean activity differs in-process")
            replays = [spec for _r, spec in mine[:CHECK_HITS]]
            news = Stream(self.seed, "check", name, circuit.inputs).take(CHECK_MISSES)
            conn = Connection(HOST, server.port)
            try:
                for i, spec in enumerate(replays + news):
                    status, payload = conn.post("/estimate", _body(name, spec, "distributions"), CHECK_RID + i)
                    oracle = estimate(circuit, input_model_from_spec(spec), backend="auto", cache=None)
                    checks += 1
                    expected = {line: [float(v) for v in d] for line, d in oracle.distributions.items()}
                    payload = payload if status == 200 and payload else {}
                    got = payload.get("distributions") or {}
                    self.answers.append((name, spec, got))
                    if got != expected:
                        worst = max(
                            (abs(a - b) for ln in expected for a, b in zip(expected[ln], got.get(ln, ()))),
                            default=float("nan"),
                        )
                        self.failures.append(
                            f"{name}: detail=distributions response (status {status}, result_cache_hit="
                            f"{payload.get('result_cache_hit')}) differs from a fresh estimate by {worst:.3g}"
                        )
            finally:
                conn.close()
        return checks

    def activity_error(self, server: ServerProcess) -> float:
        """Mean |activity - simulation| of the server's answers at the
        fixed operating points."""
        errors = []
        conn = Connection(HOST, server.port)
        try:
            for name, circuit in self.circuits.items():
                for spec in FIXED_POINTS:
                    status, payload = conn.post("/estimate", _body(name, spec, "activities"))
                    if status != 200 or not payload or "activities" not in payload:
                        self.failures.append(f"{name}: fixed-point request failed with {status}: {payload}")
                        continue
                    reference = simulated_activities(circuit, spec)
                    errors.append(
                        statistics.fmean(abs(payload["activities"][ln] - reference[ln]) for ln in reference)
                    )
        finally:
            conn.close()
        return statistics.fmean(errors) if errors else float("nan")

    def cross_hash_seed(self) -> str:
        """The ``detail=distributions`` answers against fresh estimates
        made in a process with ``PYTHONHASHSEED`` = :data:`OTHER_HASH_SEED`.
        Reported, not gated: it shows whether compiled models still
        depend on the string-hash seed."""
        env = dict(os.environ, PYTHONHASHSEED=OTHER_HASH_SEED)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.root / "src"), env.get("PYTHONPATH")]))
        request = json.dumps([[name, spec] for name, spec, _got in self.answers]).encode()
        try:
            proc = subprocess.run(
                [sys.executable, str(self.root / "perfbench" / "hash_oracle.py")],
                input=request, capture_output=True, env=env, cwd=self.root, timeout=120, check=True,
            )
        except (subprocess.SubprocessError, OSError) as exc:
            return f"oracle failed: {exc}"
        oracle = json.loads(proc.stdout)
        equal = sum(got == expected for (_n, _s, got), expected in zip(self.answers, oracle))
        worst = max(
            (abs(a - b) for (_n, _s, got), expected in zip(self.answers, oracle)
             for line in expected for a, b in zip(expected[line], got.get(line, ()))),
            default=0.0,
        )
        return (
            f"{equal} of {len(oracle)} answers bitwise-equal to PYTHONHASHSEED={OTHER_HASH_SEED} "
            f"estimates (largest difference {worst:.3g})"
        )


# ----------------------------------------------------------------------


def completion_rate(records: List[Record]) -> float:
    """Successful completions per second over the phase."""
    return sum(r.ok for r in records) / (max(r.done for r in records) - min(r.sent for r in records))


def typical_latency(records: List[Record], requests: List[tuple]) -> float:
    """Geometric mean over circuits of the median latency.  c17 and alu
    requests take about 5 and 10 ms, so the median of the mix falls in
    the gap between them and jumps from run to run; each circuit's own
    median moves by a few percent.  A failed request counts as
    infinitely slow.

    The gated figure comes from the closed loop.  At the open loop's
    48 requests/s both processes idle between requests, and waking them
    costs this host anywhere from 0.8 to 1.3 ms per result-cache hit from
    run to run (a quarter of the serve_zipf median); busy processes do
    not pay it."""
    by_circuit: Dict[str, List[float]] = defaultdict(list)
    for r in records:
        by_circuit[requests[r.index][0]].append(r.latency if r.ok else float("inf"))
    medians = [statistics.median(v) for v in by_circuit.values()]
    return math.exp(statistics.fmean(math.log(m) for m in medians))


def _latency_summary(phase: dict) -> dict:
    opened: List[Record] = phase["open"]
    latencies = [r.latency if r.ok else float("inf") for r in opened]
    n = len(latencies)
    return {
        "capacity": completion_rate(phase["closed"]),
        "latency_ms": 1000.0 * typical_latency(phase["closed"], phase["closed_reqs"]),
        "open-loop latency_ms": 1000.0 * typical_latency(opened, phase["open_reqs"]),
        "p50_ms": 1000.0 * statistics.median(latencies),
        "p95_ms": 1000.0 * percentile(latencies, 95),
        "p99_ms": 1000.0 * percentile(latencies, 99) if highest_supported(n) >= 99 else None,
        "highest_supported_pct": highest_supported(n),
        "open_samples": n,
        "closed_samples": len(phase["closed"]),
        "lag_p50_ms": 1000.0 * statistics.median(r.lag for r in opened),
        "lag_max_ms": 1000.0 * max(r.lag for r in opened),
    }


def _server_counts(phase: dict) -> dict:
    before, after = phase["stats"]
    hits = after["result_cache"]["hits"] - before["result_cache"]["hits"]
    misses = after["result_cache"]["misses"] - before["result_cache"]["misses"]
    items = after["batcher"]["items"] - before["batcher"]["items"]
    batches = after["batcher"]["batches"] - before["batcher"]["batches"]
    deduped = after["batcher"]["deduped"] - before["batcher"]["deduped"]
    return {
        "rcache.hit_rate": hits / max(1, hits + misses),
        "batcher.batch_size": items / max(1, batches),
        "batcher.dedup_frac": deduped / max(1, items + deduped),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, root: Path) -> dict:
    bench = ServeWorkload(seed, workload == "serve_zipf", root, workdir)
    setups: List[float] = []
    checks = 0
    if not trace:
        for i in range(SETUP_REPEATS - 1):
            server, setup = bench.launch(f"setup{i}")
            server.stop()
            setups.append(setup)
    window = seconds / 2 if trace else seconds
    server, setup = bench.launch("main")
    setups.append(setup)
    try:
        phase = bench.measure(server, window)
        checks += bench.check(server, phase)
        activity_err = bench.activity_error(server)
    finally:
        server.stop()
    hash_seed_check = bench.cross_hash_seed()
    summary = _latency_summary(phase)
    out = {
        "attempted": len(phase["closed"]) + len(phase["open"]) + checks,
        "metrics": {
            "setup_s": statistics.median(setups),
            "scenarios_per_s": summary["capacity"],
            "latency_ms": summary["latency_ms"],
            "activity_err": activity_err,
            "rss_mb": phase["rss_mb"],
        },
        "report": {
            "methods": bench.methods,
            "open-loop rate req/s": OPEN_RATE,
            "connections": CONNS,
            **{k: v for k, v in summary.items() if k not in ("capacity", "latency_ms")},
            **_server_counts(phase),
            "closed-loop bodies exhausted": phase["exhausted"],
            "setup runs s": [round(v, 4) for v in setups],
            "responses checked": checks,
            "hash-seed check (not gated)": hash_seed_check,
        },
    }
    if trace:
        spans_path = workdir.parent / f"spans-{workload}-{seed}.json"
        server, _setup = bench.launch("traced", spans=spans_path)
        try:
            traced = bench.measure(server, window)
            out["attempted"] += len(traced["closed"]) + len(traced["open"]) + bench.check(server, traced)
        finally:
            server.stop()
        out["layers"] = layer_metrics(*load_trace(spans_path), traced, summary, bench)
    out["failures"] = bench.failures
    return out


def layer_metrics(spans, counts, phase: dict, untraced: dict, bench: ServeWorkload) -> dict:
    """Per-layer metrics of the traced half: times are self times along
    each request's blocking path, mean per request."""
    from repro.core.inputs import input_model_from_spec
    from repro.core.rcache import scenario_digest

    selfs = self_times(spans)
    groups = by_root(spans)
    batches = {}
    produced = defaultdict(list)  # id(result) -> [(end, batch sid)]
    for span in spans:
        if span[3] == "server.batch":
            batches[span[0]] = span
            for result_id in span[6]["results"]:
                produced[result_id].append((span[5], span[0]))

    records = [(r, phase["closed_reqs"][r.index][:2]) for r in phase["closed"]]
    records += [(r, phase["open_reqs"][r.index][:2]) for r in phase["open"]]
    sums: Dict[str, float] = defaultdict(float)
    used = set()
    attributed = wall = 0.0
    digest_calls = 0
    for record, _req in records:
        group = groups.get(record.rid, [])
        by_name = defaultdict(list)
        for span in group:
            by_name[span[3]].append(span)
        if not by_name["server.handle"]:
            continue
        handle = by_name["server.handle"][0]
        wire = record.done - record.sent
        request = defaultdict(float)
        request["server.transport_ms"] = wire - (handle[5] - handle[4])
        for sid, _p, _r, name, _s, _e, _x in group:
            if name in layers.LAYER_OF and name != "batcher.submit":
                request[layers.LAYER_OF[name]] += selfs[sid]
        digest_calls += len(by_name["rcache.digest"])
        submits, stores = by_name["batcher.submit"], by_name["server.store"]
        candidates = []
        if submits and stores:
            submit, store = submits[0], stores[0]
            candidates = [c for c in produced[store[6]["result"]] if c[0] <= store[4]]
        if candidates:
            batch = batches[max(candidates)[1]]
            used.add(batch[0])
            # handle's self time includes the wait for the result: charge
            # it to the batcher queue and to the batch's own layers.  Only
            # the hand-off from the batch thread back to the request
            # thread stays unattributed.
            request["server.handle_self_ms"] -= store[4] - submit[5]
            request["batcher.wait_ms"] = batch[4] - submit[4]
            for sid, _p, _r, name, _s, _e, _x in groups.get(batch[0], []):
                if name in layers.LAYER_OF:
                    request[layers.LAYER_OF[name]] += selfs[sid]
        for layer, value in request.items():
            sums[layer] += value
            attributed += value
        wall += wire
    n = max(1, len(records))
    work = layers.engine_work(groups, used, counts)
    digests = {
        scenario_digest(bench.circuits[name], input_model_from_spec(spec)) for _r, (name, spec) in records
    }
    traced = _latency_summary(phase)
    metrics = {name: 1000.0 * sums[name] / n for name in layers.SPAN_METRICS}
    metrics["server.transport_ms"] = 1000.0 * sums["server.transport_ms"] / n
    metrics.update(_server_counts(phase))
    metrics.update(layers.compile_metrics(spans, selfs))
    metrics.update(layers.engine_metrics(work, n, work))
    metrics.update(
        {
            "validate.ms_per_scenario": 1000.0 * sums["validate.ms"] / n,
            "rcache.digest_calls": digest_calls / n,
            "sweep.distinct_frac": len(digests) / n,
            "trace.closure": attributed / wall if wall else 0.0,
            "trace.overhead_pct": 100.0 * (untraced["capacity"] / traced["capacity"] - 1.0),
            "loadgen.lag_ms": traced["lag_p50_ms"],
        }
    )
    return metrics
