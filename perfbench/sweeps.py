"""The ``sweep`` and ``sweep_repeat`` workloads: compile once, sweep many.

In-process, one thread, closed loop: each job is one call to the public
``repro.core.backend.estimate_many(circuit, 64 scenarios,
backend="auto", cache=<fresh per-run directory>)``, the paper's
compile-once, re-propagate-per-statistics use.  ``sweep_repeat`` draws
each job's 64 scenarios Zipf(1.1) from 16 operating points (about 13
distinct per job); ``sweep`` makes all 64 distinct.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

import numpy as np

import layers
from streams import Stream
from tracing import Tracer, by_root, self_times

CIRCUITS = ("pcler8", "alu", "c432s")
SCENARIOS_PER_JOB = 64
ZIPF_POINTS = 16
#: One cycle of the job mix.  Per-job time is about 0.16 s for pcler8,
#: 0.2 s for alu (2 segments) and 2.7 s for c432s (15 segments), so no
#: circuit takes much more than half of the timed wall time.  The cycle
#: starts with one job of each circuit (the traced run counts engine
#: work over exactly those three jobs).
CYCLE = ("pcler8", "alu", "c432s") + ("pcler8", "alu") * 6 + ("pcler8",)
SETUP_REPEATS = 3
#: fresh per-scenario ``estimate(..., cache=None)`` checks per circuit
SAMPLES = {"pcler8": 3, "alu": 3, "c432s": 1}
SAMPLE_ATOL = 1e-12
#: traced job ids start here, clear of the tracer's own span ids
JOB_IDS = 1_000_000_000


def weights() -> Dict[str, int]:
    return {name: CYCLE.count(name) for name in CIRCUITS}


class SweepWorkload:
    def __init__(self, seed: int, repeat: bool, workdir: Path):
        from repro.circuits.suite import load_circuit
        import repro.core.backend as backend

        self.backend = backend
        self.seed = seed
        self.repeat = repeat
        self.workdir = workdir
        self.circuits = {name: load_circuit(name) for name in CIRCUITS}
        purpose = "sweep_repeat" if repeat else "sweep"
        self.streams = {
            name: Stream(seed, purpose, name, circuit.inputs)
            for name, circuit in self.circuits.items()
        }
        self.sample_rng = np.random.default_rng([seed, 7])
        self.cache = None
        self.failures: List[str] = []
        self.methods: Dict[str, str] = {}
        #: per circuit: reservoir of (model, result) pairs from timed jobs
        self.samples: Dict[str, list] = defaultdict(list)
        self.sampled_jobs: Dict[str, int] = defaultdict(int)

    # -- inputs ---------------------------------------------------------

    def job_specs(self, name: str) -> List[dict]:
        stream = self.streams[name]
        if not self.repeat:
            return stream.take(SCENARIOS_PER_JOB)
        points = stream.take(ZIPF_POINTS)
        return [points[i] for i in stream.zipf(ZIPF_POINTS, SCENARIOS_PER_JOB)]

    # -- set-up ---------------------------------------------------------

    def cold_compile(self, tag: str) -> float:
        """Compile every circuit into a fresh compile cache; returns the
        wall time and leaves the cache for the jobs."""
        from repro.core.inputs import input_model_from_spec

        cache = self.workdir / f"cache-{tag}"
        first = {
            name: input_model_from_spec(Stream(self.seed, "setup", name, c.inputs).take(1)[0])
            for name, c in self.circuits.items()
        }
        start = time.perf_counter()
        for name, circuit in self.circuits.items():
            self.backend.compile_model(circuit, first[name], backend="auto", cache=str(cache))
        elapsed = time.perf_counter() - start
        self.cache = str(cache)
        return elapsed

    # -- jobs -----------------------------------------------------------

    def run_job(self, name: str, tracer: Tracer = None, job_id: int = 0, sample: bool = True) -> dict:
        from repro.core.inputs import input_model_from_spec

        specs = self.job_specs(name)
        models = [input_model_from_spec(spec) for spec in specs]
        if tracer is not None:
            tracer.next_root(job_id)
        start = time.perf_counter()
        try:
            results = self.backend.estimate_many(
                self.circuits[name], models, backend="auto", cache=self.cache
            )
        except Exception as exc:  # counted as a failed job
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return {"circuit": name, "seconds": time.perf_counter() - start, "ok": False}
        seconds = time.perf_counter() - start
        ok = self._check_job(name, specs, models, results, sample)
        return {"circuit": name, "seconds": seconds, "ok": ok, "specs": specs}

    def _check_job(self, name, specs, models, results, sample: bool) -> bool:
        if len(results) != len(models):
            self.failures.append(f"{name}: {len(results)} results for {len(models)} scenarios")
            return False
        self.methods[name] = f"{results[0].method} ({results[0].segments} segments)"
        if results[0].cache_hit is not True:
            self.failures.append(f"{name}: job missed the compile cache")
            return False
        first_of: Dict[int, int] = {}
        for k, spec in enumerate(specs):
            key = id(spec)
            j = first_of.setdefault(key, k)
            if j != k:
                a, b = results[j].distributions, results[k].distributions
                if any(not np.array_equal(a[line], b[line]) for line in a):
                    self.failures.append(f"{name}: duplicate scenarios {j},{k} differ")
                    return False
        if sample:
            self._sample(name, models, results)
        return True

    def _sample(self, name, models, results) -> None:
        """Reservoir sampling: every timed job of a circuit is equally
        likely to supply one of its :data:`SAMPLES` checked results."""
        seen = self.sampled_jobs[name] = self.sampled_jobs[name] + 1
        pick = int(self.sample_rng.integers(len(models)))
        reservoir = self.samples[name]
        if len(reservoir) < SAMPLES[name]:
            reservoir.append((models[pick], results[pick]))
        else:
            slot = int(self.sample_rng.integers(seen))
            if slot < SAMPLES[name]:
                reservoir[slot] = (models[pick], results[pick])

    def timed(self, seconds: float, tracer: Tracer = None, first_id: int = 1) -> List[dict]:
        """Jobs in :data:`CYCLE` order until ``seconds`` of job time."""
        jobs: List[dict] = []
        busy = 0.0
        i = 0
        while busy < seconds:
            name = CYCLE[i % len(CYCLE)]
            job = self.run_job(name, tracer, first_id + i)
            job["id"] = first_id + i
            jobs.append(job)
            busy += job["seconds"]
            i += 1
        return jobs

    # -- output checks --------------------------------------------------

    def check_samples(self) -> int:
        """Sampled results against a fresh per-scenario estimate;
        returns the number checked."""
        checked = 0
        for name, pairs in self.samples.items():
            for model, result in pairs:
                fresh = self.backend.estimate(self.circuits[name], model, backend="auto", cache=None)
                checked += 1
                worst = max(
                    float(np.max(np.abs(fresh.distributions[line] - result.distributions[line])))
                    for line in fresh.distributions
                )
                if worst > SAMPLE_ATOL or fresh.method != result.method:
                    self.failures.append(
                        f"{name}: sampled result differs from a fresh estimate by {worst:.3g}"
                    )
        return checked

    def activity_error(self) -> float:
        from accuracy import FIXED_POINTS, simulated_activities
        from repro.core.inputs import input_model_from_spec

        errors = []
        for name, circuit in self.circuits.items():
            models = [input_model_from_spec(spec) for spec in FIXED_POINTS]
            results = self.backend.estimate_many(circuit, models, backend="auto", cache=self.cache)
            for spec, result in zip(FIXED_POINTS, results):
                reference = simulated_activities(circuit, spec)
                errors.append(
                    statistics.fmean(abs(result.activities[line] - reference[line]) for line in reference)
                )
        return statistics.fmean(errors)


def best_job_seconds(jobs: List[dict]) -> Dict[str, float]:
    """Per-circuit fastest job.  On a shared host the CPU itself runs
    up to 1.8x slower for seconds at a time (a fixed loop's CPU time
    varies that much), which moves median job times by a quarter from
    run to run; the fastest job in a run moves by well under a tenth."""
    times: Dict[str, List[float]] = defaultdict(list)
    for job in jobs:
        if job["ok"]:
            times[job["circuit"]].append(job["seconds"])
    return {name: min(values) for name, values in times.items()}


def throughput(best: Dict[str, float]) -> float:
    """Scenarios per second of the weighted job mix, from per-circuit
    best job times."""
    w = weights()
    return SCENARIOS_PER_JOB * sum(w.values()) / sum(w[n] * best[n] for n in w)


def typical_latency_ms(best: Dict[str, float]) -> float:
    """Geometric mean over circuits of the best job latency."""
    return 1000.0 * math.exp(statistics.fmean(math.log(v) for v in best.values()))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One run; with ``trace`` the window is split into an untraced and
    a traced half and the result carries per-layer metrics."""
    bench = SweepWorkload(seed, workload == "sweep_repeat", workdir)
    setups = [bench.cold_compile(f"setup{i}") for i in range(1 if trace else SETUP_REPEATS)]
    for name in CIRCUITS:  # warm-up, untimed: first-touch allocation and plan caches
        bench.run_job(name, sample=False)
    window = seconds / 2 if trace else seconds
    jobs = bench.timed(window)
    best = best_job_seconds(jobs)
    rss = peak_rss_mb()

    traced_jobs: List[dict] = []
    if trace:
        tracer = Tracer()
        layers.install_library(tracer)
        bench.cold_compile("traced")
        traced_jobs = bench.timed(window, tracer, first_id=JOB_IDS)
        tracer.restore()
        tracer.dump(workdir.parent / f"spans-{workload}-{seed}.json")

    checked = bench.check_samples()
    activity_err = bench.activity_error()
    all_jobs = jobs + traced_jobs
    out = {
        "attempted": len(all_jobs) + checked,
        "failures": bench.failures,
        "metrics": {
            "setup_s": statistics.median(setups),
            "scenarios_per_s": throughput(best),
            "latency_ms": typical_latency_ms(best),
            "activity_err": activity_err,
            "rss_mb": rss,
        },
        "report": {
            "methods": bench.methods,
            "jobs timed": len(jobs),
            "best job ms": {n: round(1000.0 * v, 3) for n, v in best.items()},
            "setup runs s": [round(v, 4) for v in setups],
            "sampled results checked": checked,
        },
    }
    if trace:
        out["layers"] = layer_metrics(tracer.spans, tracer.counts, traced_jobs, best, bench)
    return out


def layer_metrics(spans, counts, jobs: List[dict], untraced: Dict[str, float], bench: SweepWorkload) -> dict:
    """Per-layer metrics of the traced jobs (times are self times, mean
    per job) and of the cold compile that preceded them."""
    from repro.core.inputs import input_model_from_spec
    from repro.core.rcache import scenario_digest

    selfs = self_times(spans)
    groups = by_root(spans)
    sums: Dict[str, float] = defaultdict(float)
    attributed = wall = 0.0
    for job in jobs:
        for sid, _p, _r, name, _s, _e, _x in groups.get(job["id"], []):
            layer = layers.LAYER_OF.get(name)
            if layer is not None:
                sums[layer] += selfs[sid]
                attributed += selfs[sid]
        wall += job["seconds"]
    n = max(1, len(jobs))
    # Engine work per scenario is counted over the first traced job of
    # each circuit, so every run weighs the circuits alike whatever
    # number of jobs fits into its window.
    first = [job["id"] for job in jobs[: len(CIRCUITS)]]
    specs = [(job["circuit"], spec) for job in jobs for spec in job.get("specs", ())]
    digests = {
        scenario_digest(bench.circuits[name], input_model_from_spec(spec)) for name, spec in specs
    }
    traced_best = best_job_seconds(jobs)
    ratios = [traced_best[c] / untraced[c] for c in traced_best if c in untraced]

    metrics = {name: 0.0 for name in SERVER_ONLY}
    metrics.update({name: 1000.0 * sums[name] / n for name in layers.SPAN_METRICS})
    job_ids = {job["id"] for job in jobs}
    metrics.update(layers.compile_metrics([s for s in spans if s[2] not in job_ids], selfs))
    metrics.update(
        layers.engine_metrics(
            layers.engine_work(groups, first, counts),
            SCENARIOS_PER_JOB * max(1, len(first)),
            layers.engine_work(groups, job_ids, counts),
        )
    )
    metrics.update(
        {
            "validate.ms_per_scenario": 1000.0 * sums["validate.ms"] / max(1, len(specs)),
            "sweep.distinct_frac": len(digests) / max(1, len(specs)),
            "trace.closure": attributed / wall if wall else 0.0,
            "trace.overhead_pct": 100.0 * (math.exp(statistics.fmean(math.log(r) for r in ratios)) - 1.0),
        }
    )
    return metrics


#: per-layer metrics measured only on the serving path; a sweep reads 0
SERVER_ONLY = (
    "server.transport_ms",
    "rcache.digest_calls",
    "rcache.hit_rate",
    "batcher.batch_size",
    "batcher.dedup_frac",
    "loadgen.lag_ms",
)
