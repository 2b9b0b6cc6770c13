"""Propagation-engine benchmark: compile vs. propagate vs. marginal extraction.

Emits ``BENCH_propagation.json`` (schema version 4) -- the perf
trajectory datapoint.  The paper's headline claim is the *compile once,
re-propagate in milliseconds* split; this runner times the three phases
separately so regressions in any one of them are visible:

- ``compile_seconds``      -- LIDAG + triangulation + junction tree(s),
- ``first_estimate_seconds`` -- first calibration + marginal read-off,
- ``repeat_estimate_min_seconds`` -- minimum over ``update_inputs`` +
  ``estimate()`` cycles with fresh input statistics.  **The primary
  metric since schema v3**: the min is the least noise-contaminated
  observation of the fast path's true cost, which is what regression
  comparisons should use (the mean is retained as
  ``repeat_estimate_seconds`` for context),
- ``marginal_extraction_seconds`` -- reading every line's 4-state
  marginal from an already propagated install.

Since schema version 2 every row also carries a ``breakdown`` section
with the engine's structural work counters (messages passed, dirty
cliques skipped versus repropagated, FLOP estimate, preallocated buffer
bytes) read from the always-on :class:`PropagationCounters` -- timings
can then be *explained*, not just compared.  The counters are plain
integer adds inside the engine, so recording them does not perturb the
timed phases.

Since schema version 4 the primary run uses the sparse message-kernel
path (``--kernel``, default ``auto``) and every row additionally
records the compile-time support analysis (``support_density``,
``feasible_states``, ``total_states``, ``sparse_cliques``) plus a
dense-kernel comparison run over the same sweep:
``dense_repeat_estimate_min_seconds`` (the same repeat-phase timing
with ``kernel="dense"``), ``sparse_speedup`` (dense over primary), and
``max_abs_diff_vs_dense`` (worst per-line distribution delta between
the two kernels across the sweep -- the recorded exactness evidence,
expected at the 1e-15 association-order level, hard-bounded by 1e-12).

Usage::

    PYTHONPATH=src python benchmarks/bench_propagation.py \
        [--circuits c17,alu,comp,voter,pcler8,c432s] [--repeats 5] \
        [--kernel auto|dense|sparse] [--output BENCH_propagation.json] \
        [--store .repro-perf]

``--store DIR`` additionally records the run into the perf profile
store (see ``repro perf``), so the datapoint joins the version
trajectory without a separate ``repro perf record`` pass.

Compilation goes through the backend facade: the ``"junction-tree"``
backend first, falling back to ``"segmented"`` on
:class:`CliqueBudgetExceeded` (the c432 class), exactly as the CLI
does.  Phase timings run against the raw estimator under the artifact
so the numbers measure the engine, not the facade.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from typing import Dict, List

try:  # package import (pytest benchmarks/, repo-root scripts)
    from benchmarks.common import (
        DEFAULT_CIRCUITS,
        SWEEP,
        add_store_argument,
        compile_estimator,
        engine_counters,
        parse_csv_names,
        repeat_cycles,
        store_report,
    )
except ImportError:  # direct execution: python benchmarks/bench_propagation.py
    from common import (
        DEFAULT_CIRCUITS,
        SWEEP,
        add_store_argument,
        compile_estimator,
        engine_counters,
        parse_csv_names,
        repeat_cycles,
        store_report,
    )

from repro.circuits import suite
from repro.core.inputs import IndependentInputs
from repro.core.segments import SegmentedEstimator

#: Bump when the emitted JSON shape changes (v2: added ``schema_version``
#: and per-row ``breakdown`` with engine work counters; v3:
#: ``repeat_estimate_min_seconds`` is the primary repeat-phase metric
#: and the breakdown carries the batched-engine counters; v4: rows
#: record the support analysis -- ``kernel``, ``support_density``,
#: ``feasible_states``, ``total_states``, ``sparse_cliques`` -- and a
#: dense-kernel comparison: ``dense_repeat_estimate_min_seconds``,
#: ``sparse_speedup``, ``max_abs_diff_vs_dense``).
BENCH_SCHEMA_VERSION = 4


def _extract_marginals(estimator, lines: List[str]) -> float:
    """Seconds to read every line marginal from the propagated install
    the last estimate left behind."""
    jt = estimator.junction_tree
    start = time.perf_counter()
    jt.marginals_batch(lines)
    return time.perf_counter() - start


def _max_abs_diff(estimator_a, estimator_b) -> float:
    """Worst per-line distribution delta between two estimators' sweeps."""
    worst = 0.0
    for p in SWEEP:
        model = IndependentInputs(p)
        estimator_a.update_inputs(model)
        estimator_b.update_inputs(model)
        got = estimator_a.estimate().distributions
        ref = estimator_b.estimate().distributions
        for line, dist in ref.items():
            delta = float(abs(dist - got[line]).max())
            if delta > worst:
                worst = delta
    return worst


def bench_circuit(
    name: str, repeats: int, parallelism: int, kernel: str = "auto"
) -> Dict[str, object]:
    circuit = suite.load_circuit(name)
    row: Dict[str, object] = {
        "circuit": name,
        "gates": circuit.num_gates,
        "lines": len(circuit.lines),
        "kernel": kernel,
    }

    start = time.perf_counter()
    estimator, method = compile_estimator(circuit, parallelism, kernel)
    row["method"] = method
    if method == "segmented":
        row["segments"] = estimator.num_segments
    row["compile_seconds"] = time.perf_counter() - start
    if hasattr(estimator, "support_stats"):
        stats = estimator.support_stats()
        row["support_density"] = stats["support_density"]
        row["feasible_states"] = stats["feasible_states"]
        row["total_states"] = stats["total_states"]
        row["sparse_cliques"] = stats["sparse_cliques"]

    start = time.perf_counter()
    first = estimator.estimate()
    row["first_estimate_seconds"] = time.perf_counter() - start
    after_first = engine_counters(estimator)

    cycle_seconds = repeat_cycles(estimator, repeats)
    row["repeat_estimate_seconds"] = statistics.mean(cycle_seconds)
    row["repeat_estimate_min_seconds"] = min(cycle_seconds)

    # Dense-kernel comparison over the same sweep: the speedup the
    # packed kernels buy, and the recorded evidence that they change
    # nothing (worst per-line delta, expected at float association-
    # order level).
    if kernel != "dense":
        dense, _ = compile_estimator(circuit, parallelism, "dense")
        dense.estimate()  # first calibration outside the timed region
        dense_cycles = repeat_cycles(dense, repeats)
        row["dense_repeat_estimate_min_seconds"] = min(dense_cycles)
        row["sparse_speedup"] = (
            row["dense_repeat_estimate_min_seconds"]
            / row["repeat_estimate_min_seconds"]
        )
        row["max_abs_diff_vs_dense"] = _max_abs_diff(estimator, dense)
    else:
        row["dense_repeat_estimate_min_seconds"] = row[
            "repeat_estimate_min_seconds"
        ]
        row["sparse_speedup"] = 1.0
        row["max_abs_diff_vs_dense"] = 0.0

    if not isinstance(estimator, SegmentedEstimator):
        row["marginal_extraction_seconds"] = _extract_marginals(
            estimator, list(circuit.lines)
        )
    row["mean_activity"] = first.mean_activity()

    totals = engine_counters(estimator)
    if totals:
        # Repeat-phase deltas isolate the dirty-clique fast path: the
        # skipped count is the work the engine *avoided* re-doing.
        repeat_totals = {
            key: totals[key] - after_first.get(key, 0) for key in totals
        }
        row["breakdown"] = {
            "messages_passed": totals["messages"],
            "cliques_repropagated": totals["cliques_repropagated"],
            "cliques_skipped": totals["cliques_skipped"],
            "flop_estimate": totals["flops"],
            "scenarios_propagated": totals.get("scenarios_propagated", 0),
            "potentials_unchanged": totals.get("potentials_unchanged", 0),
            "factor_bytes": (
                estimator.factor_bytes()
                if hasattr(estimator, "factor_bytes")
                else 0
            ),
            "repeat_phase": {
                "messages_passed": repeat_totals["messages"],
                "cliques_repropagated": repeat_totals["cliques_repropagated"],
                "cliques_skipped": repeat_totals["cliques_skipped"],
                "flop_estimate": repeat_totals["flops"],
            },
        }
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--circuits", default=",".join(DEFAULT_CIRCUITS),
        help="comma-separated circuit names from the Table 1 suite",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--parallelism", type=int, default=0,
        help="worker threads for segmented circuits (0 = serial)",
    )
    parser.add_argument(
        "--kernel", default="auto", choices=("auto", "dense", "sparse"),
        help="message-kernel mode for the primary run",
    )
    parser.add_argument("--output", default="BENCH_propagation.json")
    add_store_argument(parser)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    rows = []
    for name in parse_csv_names(args.circuits):
        row = bench_circuit(name, args.repeats, args.parallelism, args.kernel)
        rows.append(row)
        print(
            f"{name:>10s}  {row['method']:>9s}  "
            f"compile {row['compile_seconds']:7.3f}s  "
            f"first {row['first_estimate_seconds']:7.3f}s  "
            f"repeat(min) {row['repeat_estimate_min_seconds']:7.3f}s  "
            f"dense(min) {row['dense_repeat_estimate_min_seconds']:7.3f}s  "
            f"x{row['sparse_speedup']:5.2f}  "
            f"density {row.get('support_density', 1.0):5.3f}  "
            f"diff {row['max_abs_diff_vs_dense']:.1e}"
        )

    report = {
        "benchmark": "propagation",
        "schema_version": BENCH_SCHEMA_VERSION,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": rows,
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    if args.store:
        store_report(args.store, "propagation", report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
