"""End-to-end benchmark of the switching-activity estimator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (the metric names and units are the
ones listed in ``BENCHMARK.json``).  Human-readable lines come first;
the last line of standard output is one JSON object.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "sweep_repeat", "serve_fresh", "serve_zipf")
#: Compiled models depend on str hash order (ties in triangulation and
#: segmentation): alu's marginals differ in the last bits between
#: processes with different hash seeds.  Every run and the server it
#: starts use this one, so the gated serving checks compare like with
#: like and every run measures the same compiled models; the serving
#: report adds a comparison with another hash seed, not gated.
HASH_SEED = "0"
#: traced runs fail when the layer self times along the blocking paths
#: cover less than this share of end-to-end wall time
CLOSURE_MIN = 0.90


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import serving
    import sweeps

    workdir = ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if workload.startswith("sweep"):
            return sweeps.run(workload, seed, seconds, trace, workdir)
        return serving.run(workload, seed, seconds, trace, workdir, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def validity_checks(workload: str, out: dict) -> None:
    """Conditions a traced run must meet for its numbers to mean what
    the benchmark says they mean."""
    layer = out["layers"]
    closure = layer["trace.closure"]
    if not CLOSURE_MIN <= closure <= 1.0 + 1e-6:
        out["failures"].append(f"closure {closure:.4f} outside [{CLOSURE_MIN}, 1]")
    if workload == "sweep" and layer["sweep.distinct_frac"] != 1.0:
        out["failures"].append("sweep scenarios repeat")
    if workload == "sweep" and layer["engine.potentials_unchanged"] != 0:
        out["failures"].append("engine skipped unchanged potentials on distinct scenarios")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")

    spec = _spec()
    trace = bool(args.trace)
    out = run_workload(args.workload, args.seed, args.seconds, trace)
    if trace:
        validity_checks(args.workload, out)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = out["layers"] if trace else out["metrics"]
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: {sorted(missing)}")

    failed = len(out["failures"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key, value in out["report"].items():
        print(f"  {key}: {value}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("end-to-end:")
    for name, value in out["metrics"].items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<28} {failed / max(1, out['attempted']):>14.6g} ratio")
    if trace:
        print("per-layer (traced run):")
        for name, value in out["layers"].items():
            print(f"  {name:<28} {value:>14.6g} {units[name]}")
    for failure in out["failures"]:
        print(f"  FAILED: {failure}")
    result = {
        "correct": failed == 0,
        "attempted": int(out["attempted"]),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
