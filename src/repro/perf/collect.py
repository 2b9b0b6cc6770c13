"""Collect a perf profile: run the measurements or ingest bench JSON.

This module is the single home of the measurement methodology that
``benchmarks/bench_propagation.py`` and ``benchmarks/bench_throughput.py``
previously each reimplemented (``benchmarks/common.py`` now re-exports
from here):

- the junction-tree-first / segmented-fallback compile rule the CLI
  uses,
- the fixed input-probability sweep cycled through repeat-propagation,
- golden-ratio scenario salting (no two repeats install identical
  potentials, so the skip-unchanged fast path never turns a repeat
  into a no-op),
- **min over repeats** as the primary statistic: the minimum is the
  least noise-contaminated observation of a deterministic code path's
  true cost (noise on a busy machine is strictly additive), so it is
  what version-to-version comparisons use.

:func:`collect_profile` runs the measurements live (with the obs
metrics registry enabled, so the profile carries FLOP estimates,
``factor_bytes``, support density and cache counters next to the
timings); :func:`ingest_bench_documents` builds the same profile shape
from already-emitted ``BENCH_propagation.json`` /
``BENCH_throughput.json`` reports.  Accuracy is part of the profile,
not an afterthought: where the enumeration oracle is feasible the
worst per-line distribution error is recorded (``max_abs_error``), so
the regression gate catches a kernel that got *fast but wrong*.
"""

from __future__ import annotations

import subprocess
import time
from datetime import datetime, timezone
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.circuits import suite
from repro.core.backend import CliqueBudgetExceeded, compile_model
from repro.core.backend import estimate as facade_estimate
from repro.core.inputs import IndependentInputs
from repro.core.states import N_STATES
from repro.errors import PerfProfileError
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.perf.fingerprint import machine_fingerprint
from repro.perf.store import PROFILE_SCHEMA, PROFILE_SCHEMA_VERSION

__all__ = [
    "DEFAULT_CIRCUITS",
    "PHI",
    "SWEEP",
    "collect_profile",
    "compile_or_fallback",
    "git_revision",
    "ingest_bench_documents",
    "measure_circuit",
    "repeat_cycles",
    "salted_scenarios",
    "timed",
]

#: Circuits profiled by default (the benchmark runners' suite).
DEFAULT_CIRCUITS = ["c17", "alu", "comp", "voter", "pcler8", "c432s"]

#: Input probabilities cycled through the repeat-propagation phase.
SWEEP = [0.2, 0.35, 0.5, 0.65, 0.8]

#: Golden-ratio increment: scenario probabilities fill (0.05, 0.95)
#: quasi-uniformly, and the per-repeat salt shifts the whole set so no
#: two repeats install identical potentials.
PHI = 0.6180339887498949

#: Enumeration-oracle budget on joint input states (4^k); circuits
#: whose input count fits record ``max_abs_error`` against the oracle.
DEFAULT_ORACLE_BUDGET = N_STATES ** 8


def timed(fn, *args) -> float:
    """Seconds for one call."""
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def salted_scenarios(k: int, salt: int) -> List[IndependentInputs]:
    """``k`` deterministic quasi-uniform scenarios, shifted by ``salt``."""
    return [
        IndependentInputs(0.05 + 0.9 * ((i * PHI + salt * 0.2718 + 0.041) % 1.0))
        for i in range(k)
    ]


def compile_or_fallback(circuit, parallelism: int = 0, kernel: str = "auto"):
    """Junction tree first, segmented past the clique budget (CLI rule).

    Returns ``(compiled_model, method)`` with ``method`` one of
    ``"single-bn"`` / ``"segmented"``.
    """
    try:
        model = compile_model(
            circuit,
            backend="junction-tree",
            max_clique_states=4 ** 10,
            kernel=kernel,
        )
        return model, "single-bn"
    except CliqueBudgetExceeded:
        model = compile_model(
            circuit, backend="segmented", parallelism=parallelism, kernel=kernel
        )
        return model, "segmented"


def repeat_cycles(
    estimator, repeats: int, sweep: Sequence[float] = SWEEP
) -> List[float]:
    """Seconds per ``update_inputs`` + ``estimate`` cycle over ``sweep``."""
    cycle_seconds = []
    for i in range(repeats):
        model = IndependentInputs(sweep[i % len(sweep)])
        start = time.perf_counter()
        estimator.update_inputs(model)
        estimator.estimate()
        cycle_seconds.append(time.perf_counter() - start)
    return cycle_seconds


def git_revision(cwd: Optional[str] = None) -> Dict[str, Any]:
    """Current git SHA + dirty flag; degrades to ``"unknown"`` outside
    a repository (profiles stay recordable from exported tarballs)."""

    def _git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", *args],
                capture_output=True,
                text=True,
                cwd=cwd,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        return proc.stdout

    sha = (_git("rev-parse", "HEAD") or "unknown").strip() or "unknown"
    status = _git("status", "--porcelain")
    dirty = bool(status.strip()) if status is not None else False
    return {"sha": sha, "short": sha[:10], "dirty": dirty}


def measure_circuit(
    name: str,
    repeats: int = 3,
    batch_sizes: Iterable[int] = (64,),
    parallelism: int = 0,
    kernel: str = "auto",
    oracle_budget: int = DEFAULT_ORACLE_BUDGET,
) -> Dict[str, Any]:
    """One circuit's measurement block (see the store's profile shape).

    Times the compile, the repeat-propagation fast path (min over
    ``repeats`` fresh-statistics cycles), and the batched sweep rate at
    each ``batch_sizes`` entry; records accuracy (``mean_activity`` at
    fair-coin inputs, plus ``max_abs_error`` against the enumeration
    oracle when ``4^inputs`` fits ``oracle_budget``).
    """
    circuit = suite.load_circuit(name)
    measurements: Dict[str, Any] = {"gates": circuit.num_gates}

    start = time.perf_counter()
    model, method = compile_or_fallback(circuit, parallelism, kernel)
    measurements["compile_seconds"] = time.perf_counter() - start
    measurements["method"] = method
    measurements["kernel"] = kernel
    estimator = model.estimator

    measurements["first_estimate_seconds"] = timed(estimator.estimate)

    cycles = repeat_cycles(estimator, repeats)
    measurements["repeat_estimate_min_seconds"] = min(cycles)
    measurements["repeat_estimate_seconds_samples"] = cycles

    if hasattr(estimator, "support_stats"):
        stats = estimator.support_stats()
        measurements["support_density"] = stats["support_density"]
        measurements["sparse_cliques"] = stats["sparse_cliques"]

    rates: Dict[str, float] = {}
    for k in batch_sizes:
        # Warm once outside timing so the one-time batch-engine
        # allocation is excluded (same protocol as bench_throughput).
        model.query_many(salted_scenarios(k, repeats + 1))
        best = min(
            timed(model.query_many, salted_scenarios(k, r))
            for r in range(repeats)
        )
        rates[str(k)] = k / best
    if rates:
        measurements["batched_scenarios_per_sec"] = rates

    fair = IndependentInputs(0.5)
    estimator.update_inputs(fair)
    estimate = estimator.estimate()
    measurements["mean_activity"] = estimate.mean_activity()

    if N_STATES ** len(circuit.inputs) <= oracle_budget:
        oracle = facade_estimate(
            circuit, fair, backend="enumeration", cache=None
        )
        worst = 0.0
        for line, dist in oracle.distributions.items():
            delta = float(abs(dist - estimate.distributions[line]).max())
            if delta > worst:
                worst = delta
        measurements["max_abs_error"] = worst

    return measurements


def _assemble_profile(
    measurements: Dict[str, Dict[str, Any]],
    obs: Optional[Dict[str, Any]] = None,
    note: str = "",
) -> Dict[str, Any]:
    if not measurements:
        raise PerfProfileError("no measurements collected")
    profile: Dict[str, Any] = {
        "schema": PROFILE_SCHEMA,
        "schema_version": PROFILE_SCHEMA_VERSION,
        "recorded_at": datetime.now(timezone.utc)
        .isoformat(timespec="seconds")
        .replace("+00:00", "Z"),
        "note": note,
        "git": git_revision(),
        "fingerprint": machine_fingerprint(),
        "measurements": measurements,
    }
    if obs is not None:
        profile["obs"] = obs
    return profile


def collect_profile(
    circuits: Optional[Sequence[str]] = None,
    repeats: int = 3,
    batch_sizes: Iterable[int] = (64,),
    parallelism: int = 0,
    kernel: str = "auto",
    oracle_budget: int = DEFAULT_ORACLE_BUDGET,
    note: str = "",
    quick: bool = False,
    progress=None,
) -> Dict[str, Any]:
    """Run the measurement suite and assemble one profile.

    ``quick`` shrinks to the CI configuration (c17 only, 2 repeats,
    K=64) -- wide error bars, but enough for the wide-band CI gate.
    Measurements run under a private *enabled* metrics registry, so the
    profile's ``obs`` block carries the work counters (FLOP estimates,
    ``factor_bytes``, support density, cache hits) that explain the
    timings; the caller's registry is untouched.
    """
    if quick:
        circuits = ["c17"]
        repeats = min(repeats, 2)
        batch_sizes = (64,)
    names = list(circuits) if circuits else list(DEFAULT_CIRCUITS)
    registry = MetricsRegistry(enabled=True)
    previous = set_metrics(registry)
    try:
        cycle_histogram = registry.histogram("perf.repeat_cycle_seconds")
        measurements: Dict[str, Dict[str, Any]] = {}
        for name in names:
            measurements[name] = measure_circuit(
                name,
                repeats=repeats,
                batch_sizes=batch_sizes,
                parallelism=parallelism,
                kernel=kernel,
                oracle_budget=oracle_budget,
            )
            for seconds in measurements[name]["repeat_estimate_seconds_samples"]:
                cycle_histogram.observe(seconds)
            if progress is not None:
                progress(name, measurements[name])
    finally:
        set_metrics(previous)
    return _assemble_profile(measurements, obs=registry.snapshot(), note=note)


#: bench-report row fields copied verbatim into a measurement block.
_PROPAGATION_ROW_FIELDS = (
    "gates",
    "method",
    "kernel",
    "compile_seconds",
    "first_estimate_seconds",
    "repeat_estimate_seconds",
    "repeat_estimate_min_seconds",
    "support_density",
    "sparse_cliques",
    "mean_activity",
    "max_abs_diff_vs_dense",
    "sparse_speedup",
)

#: segmentation-report row fields copied into a measurement block; the
#: names deliberately reuse the propagation vocabulary so the existing
#: gate rules (min-time band, mean-activity drift, max_abs_error
#: growth) apply without new metric plumbing.
_SEGMENTATION_ROW_FIELDS = (
    "gates",
    "segments",
    "glue_edges",
    "compile_seconds",
    "repeat_estimate_min_seconds",
    "mean_activity",
    "max_abs_error",
    "refine_iterations",
    "refine_delta",
)


def ingest_bench_documents(
    propagation: Optional[Dict[str, Any]] = None,
    throughput: Optional[Dict[str, Any]] = None,
    segmentation: Optional[Dict[str, Any]] = None,
    serving: Optional[Dict[str, Any]] = None,
    note: str = "",
) -> Dict[str, Any]:
    """Build a profile from already-emitted benchmark reports.

    This is the ``repro perf record --from-propagation/--from-throughput``
    path and the benchmark runners' ``--store`` mode: the numbers were
    just measured by the runner, so they are harvested instead of
    re-measured.
    """
    measurements: Dict[str, Dict[str, Any]] = {}
    if propagation is not None:
        if propagation.get("benchmark") != "propagation":
            raise PerfProfileError(
                f"expected a propagation report, got "
                f"{propagation.get('benchmark')!r}"
            )
        for row in propagation.get("results", []):
            block = measurements.setdefault(row["circuit"], {})
            for field in _PROPAGATION_ROW_FIELDS:
                if field in row:
                    block[field] = row[field]
    if throughput is not None:
        if throughput.get("benchmark") != "throughput":
            raise PerfProfileError(
                f"expected a throughput report, got "
                f"{throughput.get('benchmark')!r}"
            )
        for row in throughput.get("results", []):
            block = measurements.setdefault(row["circuit"], {})
            rates = block.setdefault("batched_scenarios_per_sec", {})
            # Dedup-sweep rows share the batched rows' metric but carry
            # a "sweep" tag; suffix the key so both gate independently.
            rate_key = str(row["batch_size"])
            if row.get("sweep"):
                rate_key = f"{rate_key}[{row['sweep']}]"
            rates[rate_key] = row["batched_scenarios_per_sec"]
    if segmentation is not None:
        if segmentation.get("benchmark") != "segmentation":
            raise PerfProfileError(
                f"expected a segmentation report, got "
                f"{segmentation.get('benchmark')!r}"
            )
        # One block per (circuit, refine) point: each refine level has
        # its own timing/accuracy trajectory to gate.
        for row in segmentation.get("results", []):
            key = f"{row['circuit']}[refine={row['refine']}]"
            block = measurements.setdefault(key, {})
            for field in _SEGMENTATION_ROW_FIELDS:
                if field in row and row[field] is not None:
                    block[field] = row[field]
    if serving is not None:
        if serving.get("benchmark") != "serving":
            raise PerfProfileError(
                f"expected a serving report, got "
                f"{serving.get('benchmark')!r}"
            )
        # Mirrors the throughput shape: a rate dict per circuit, keyed
        # by the serving configuration so batched and unbatched rates
        # at each concurrency gate independently.
        for row in serving.get("results", []):
            block = measurements.setdefault(row["circuit"], {})
            rates = block.setdefault("serving_scenarios_per_sec", {})
            rate_key = f"{row['mode']}@c{row['concurrency']}"
            # Skewed-stream rows (the cached-serving benchmark) carry a
            # workload tag and, when the server reported it, the result
            # cache's hit rate for the run.
            if row.get("workload"):
                rate_key = f"{rate_key}[{row['workload']}]"
            rates[rate_key] = row["scenarios_per_sec"]
            if row.get("cache_hit_rate") is not None:
                hit_rates = block.setdefault("serving_cache_hit_rate", {})
                hit_rates[rate_key] = row["cache_hit_rate"]
    if not measurements:
        raise PerfProfileError(
            "nothing to ingest: no benchmark rows in the given report(s)"
        )
    return _assemble_profile(measurements, note=note)
