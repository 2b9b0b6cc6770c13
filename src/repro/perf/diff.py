"""Statistical comparison of two perf profiles (the regression gate).

Exit-code contract (the CLI and CI both rely on it):

- ``0`` -- no significant change,
- ``1`` -- at least one *performance* metric regressed beyond the
  noise band,
- ``2`` -- an *accuracy* metric drifted, or the inputs are not
  comparable at all (different machines without ``force``, no common
  rows, mismatched benchmark kinds).

Accuracy outranks speed: a kernel that got fast by getting wrong is a
worse failure than a slowdown, so any accuracy drift wins the exit
code even when every timing improved.

Noise-band statistics
---------------------

The primary time statistic is the **min over repeats** (see
:mod:`repro.perf.collect`): timing noise on a shared machine is
additive, so the minimum converges on the true cost from above.  A
regression must still clear a noise band before it counts:

``new_min > old_min * (1 + band_eff)``

where ``band_eff`` is the configured ``--noise-band`` *widened by the
observed run-internal dispersion* of whichever side recorded raw
samples: ``(median - min) / min`` says how noisy that run actually
was, and a gate should never flag a delta smaller than the noise the
recording itself exhibited.  Rate metrics (scenarios/sec) use the
symmetric rule ``new < old * (1 - band)``.  Timing rows where both
sides sit below ``--floor-seconds`` are skipped outright: sub-ms
timings on a shared runner are timer noise, not signal.

:func:`compare_bench_documents` applies the same band/floor rules to
raw ``BENCH_propagation.json`` / ``BENCH_throughput.json`` reports --
it is the engine behind ``benchmarks/bench_diff.py``, which keeps its
historical CLI contract as a thin wrapper.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import PerfDiffError
from repro.perf.fingerprint import fingerprints_compatible
from repro.perf.store import validate_profile

__all__ = [
    "PerfDiffError",
    "compare_bench_documents",
    "compare_profiles",
    "exit_code",
]

#: per-circuit scalar timings gated lower-is-better (floor applies).
_TIME_METRICS = ("repeat_estimate_min_seconds",)

#: per-circuit ``{batch_size: rate}`` tables gated higher-is-better.
#: serving rates and cache hit rates share the dict shape (keyed by
#: serving configuration), so they gate through the same loop.
_RATE_METRICS = (
    "batched_scenarios_per_sec",
    "serving_scenarios_per_sec",
    "serving_cache_hit_rate",
)

#: error metrics: growth beyond atol is an accuracy failure (exit 2).
_ERROR_METRICS = ("max_abs_error", "max_abs_diff_vs_dense")

#: value metrics: *any* drift beyond atol is an accuracy failure --
#: the estimate itself changed between versions.
_VALUE_METRICS = ("mean_activity",)


def _ratio(old: float, new: float) -> float:
    return new / old if old else float("inf")


def _dispersion(samples: Optional[Sequence[float]]) -> float:
    """Run-internal relative noise: ``(median - min) / min``.

    Zero when samples are absent or degenerate -- the band then stays
    at its configured width.
    """
    if not samples or len(samples) < 2:
        return 0.0
    low = min(samples)
    if low <= 0:
        return 0.0
    return max(0.0, (statistics.median(samples) - low) / low)


def _record(
    key: str,
    metric: str,
    old: float,
    new: float,
    status: str,
    band: float,
) -> Dict[str, Any]:
    return {
        "key": key,
        "metric": metric,
        "old": old,
        "new": new,
        "ratio": _ratio(old, new),
        "status": status,
        "band": band,
    }


def compare_profiles(
    old: Dict[str, Any],
    new: Dict[str, Any],
    noise_band: float = 0.25,
    floor_seconds: float = 0.001,
    accuracy_atol: float = 1e-6,
    force: bool = False,
) -> List[Dict[str, Any]]:
    """Row-by-row comparison of two ``repro.perf/v1`` profiles.

    Returns one record per compared metric (``status`` in ``"ok"`` /
    ``"regression"`` / ``"accuracy"`` / ``"skipped"`` / ``"missing"``);
    circuits present in ``old`` but absent from ``new`` become
    ``"missing"`` records (a quick-mode recording covers fewer circuits
    than a full baseline -- that narrows the gate, it does not fail
    it).  Raises :class:`~repro.errors.PerfDiffError` when the two
    profiles are not comparable at all.
    """
    validate_profile(old)
    validate_profile(new)
    if not force and not fingerprints_compatible(
        old["fingerprint"], new["fingerprint"]
    ):
        raise PerfDiffError(
            f"machine fingerprints differ "
            f"(old {old['fingerprint'].get('digest')!r} on "
            f"{old['fingerprint'].get('cpu_model')!r} x"
            f"{old['fingerprint'].get('cpu_count')}, "
            f"new {new['fingerprint'].get('digest')!r} on "
            f"{new['fingerprint'].get('cpu_model')!r} x"
            f"{new['fingerprint'].get('cpu_count')}); "
            f"cross-machine timings are not comparable -- pass force=True "
            f"(CLI: --force) to override"
        )
    records: List[Dict[str, Any]] = []
    compared = 0
    for circuit, old_block in sorted(old["measurements"].items()):
        new_block = new["measurements"].get(circuit)
        if new_block is None:
            records.append(
                _record(circuit, "*", float("nan"), float("nan"), "missing", 0.0)
            )
            continue

        for metric in _TIME_METRICS:
            if metric not in old_block or metric not in new_block:
                continue
            compared += 1
            old_val = float(old_block[metric])
            new_val = float(new_block[metric])
            if old_val < floor_seconds and new_val < floor_seconds:
                records.append(
                    _record(circuit, metric, old_val, new_val, "skipped", 0.0)
                )
                continue
            samples_key = "repeat_estimate_seconds_samples"
            band_eff = noise_band + max(
                _dispersion(old_block.get(samples_key)),
                _dispersion(new_block.get(samples_key)),
            )
            status = (
                "regression" if new_val > old_val * (1.0 + band_eff) else "ok"
            )
            records.append(
                _record(circuit, metric, old_val, new_val, status, band_eff)
            )

        for metric in _RATE_METRICS:
            old_rates = old_block.get(metric)
            new_rates = new_block.get(metric)
            if not isinstance(old_rates, dict) or not isinstance(
                new_rates, dict
            ):
                continue
            for batch, old_rate in sorted(old_rates.items()):
                if batch not in new_rates:
                    continue
                compared += 1
                old_val = float(old_rate)
                new_val = float(new_rates[batch])
                status = (
                    "regression"
                    if new_val < old_val * (1.0 - noise_band)
                    else "ok"
                )
                records.append(
                    _record(
                        f"{circuit}[K={batch}]",
                        metric,
                        old_val,
                        new_val,
                        status,
                        noise_band,
                    )
                )

        for metric in _ERROR_METRICS:
            if metric not in old_block or metric not in new_block:
                continue
            compared += 1
            old_val = float(old_block[metric])
            new_val = float(new_block[metric])
            status = "accuracy" if new_val > old_val + accuracy_atol else "ok"
            records.append(
                _record(circuit, metric, old_val, new_val, status, accuracy_atol)
            )

        for metric in _VALUE_METRICS:
            if metric not in old_block or metric not in new_block:
                continue
            compared += 1
            old_val = float(old_block[metric])
            new_val = float(new_block[metric])
            status = "accuracy" if abs(new_val - old_val) > accuracy_atol else "ok"
            records.append(
                _record(circuit, metric, old_val, new_val, status, accuracy_atol)
            )

    if compared == 0:
        raise PerfDiffError(
            "no comparable measurements between the two profiles "
            f"(old circuits: {sorted(old['measurements'])}, "
            f"new circuits: {sorted(new['measurements'])})"
        )
    return records


def exit_code(records: List[Dict[str, Any]]) -> int:
    """Map diff records to the 0/1/2 exit-code contract."""
    if any(r["status"] == "accuracy" for r in records):
        return 2
    if any(r["status"] == "regression" for r in records):
        return 1
    return 0


# ----------------------------------------------------------------------
# Raw benchmark-report comparison (the bench_diff.py engine)
# ----------------------------------------------------------------------

#: metric name, row-key fields, and direction per benchmark kind;
#: ``higher_is_better`` flips the regression inequality.
_BENCH_KINDS: Dict[str, Dict[str, Any]] = {
    "propagation": {
        "metric": "repeat_estimate_min_seconds",
        "key_fields": ("circuit",),
        "higher_is_better": False,
    },
    "throughput": {
        # "sweep" is optional in rows: only the repeated-sweep rows
        # carry it ("dedup" since schema 4, "delta" in schema 3, so the
        # two never pair up), and via _row_key's .get -> None plain
        # batched rows keep the key identity they had before the field
        # existed.
        "metric": "batched_scenarios_per_sec",
        "key_fields": ("circuit", "batch_size", "sweep"),
        "higher_is_better": True,
    },
    "segmentation": {
        "metric": "repeat_estimate_min_seconds",
        "key_fields": ("circuit", "refine"),
        "higher_is_better": False,
    },
    "serving": {
        # "workload" is likewise optional: only skewed-stream rows
        # (zipf/hotspot/burst) tag it, uniform rows stay unkeyed.
        "metric": "scenarios_per_sec",
        "key_fields": ("circuit", "mode", "concurrency", "workload"),
        "higher_is_better": True,
    },
}


def _row_key(row: Dict, key_fields: Tuple[str, ...]) -> Tuple:
    # Absent optional fields ("sweep", "workload") are dropped rather
    # than kept as None, so rows from reports that predate a field keep
    # the exact key tuple they had when their baseline was recorded.
    return tuple(
        row[field] for field in key_fields if row.get(field) is not None
    )


def compare_bench_documents(
    old_doc: Dict,
    new_doc: Dict,
    noise_band: float = 0.25,
    floor_seconds: float = 0.001,
    allow_missing: bool = False,
) -> List[Dict[str, Any]]:
    """Compare two raw benchmark reports row by row.

    This preserves the PR 6 ``bench_diff.py`` contract exactly: record
    keys are tuples of the kind's key fields, rows present in the old
    report but missing from the new raise (a regenerated report must
    cover the committed baseline), and unknown/mismatched benchmark
    kinds raise.  All failures are :class:`~repro.errors.PerfDiffError`
    (exit code 2 at the CLI).

    ``allow_missing=True`` relaxes only the coverage rule: baseline
    rows absent from the new report become ``"missing"`` records
    instead of an error (the profile gate's quick-mode idiom) -- for
    gating a CI-sized regeneration against a fuller committed
    baseline.  At least one row must still be comparable.
    """
    old_kind = old_doc.get("benchmark")
    new_kind = new_doc.get("benchmark")
    if old_kind != new_kind:
        raise PerfDiffError(
            f"benchmark kinds differ: old is {old_kind!r}, new is {new_kind!r}"
        )
    spec = _BENCH_KINDS.get(old_kind)
    if spec is None:
        raise PerfDiffError(f"unknown benchmark kind {old_kind!r}")
    metric = spec["metric"]
    key_fields = spec["key_fields"]
    higher_is_better = spec["higher_is_better"]

    new_rows = {
        _row_key(row, key_fields): row for row in new_doc.get("results", [])
    }
    records: List[Dict[str, Any]] = []
    missing: List[Tuple] = []
    for row in old_doc.get("results", []):
        key = _row_key(row, key_fields)
        if metric not in row:
            continue  # old row predates the metric; nothing to compare
        other = new_rows.get(key)
        if other is None or metric not in other:
            missing.append(key)
            continue
        old_val = float(row[metric])
        new_val = float(other[metric])
        record = {
            "key": key,
            "metric": metric,
            "old": old_val,
            "new": new_val,
            "ratio": _ratio(old_val, new_val),
            "band": noise_band,
        }
        if (
            not higher_is_better
            and old_val < floor_seconds
            and new_val < floor_seconds
        ):
            record["status"] = "skipped"
        elif higher_is_better:
            record["status"] = (
                "regression" if new_val < old_val * (1.0 - noise_band) else "ok"
            )
        else:
            record["status"] = (
                "regression" if new_val > old_val * (1.0 + noise_band) else "ok"
            )
        records.append(record)
    if missing:
        if not allow_missing:
            raise PerfDiffError(
                f"rows present in the old report are missing from the new "
                f"one: {missing}"
            )
        for key in missing:
            records.append(
                {
                    "key": key,
                    "metric": metric,
                    "old": float("nan"),
                    "new": float("nan"),
                    "ratio": float("nan"),
                    "band": noise_band,
                    "status": "missing",
                }
            )
    if not any(r["status"] != "missing" for r in records):
        raise PerfDiffError("no comparable rows between the two reports")
    return records
