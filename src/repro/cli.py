"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro.cli table1 [--circuits c17 alu ...] [--pairs N] [--trace FILE]
    python -m repro.cli table2 [--circuits ...] [--pairs N] [--trace FILE]
    python -m repro.cli figures
    python -m repro.cli ablations [--which triangulation|segmentation|compile|inputs]
    python -m repro.cli estimate --circuit c17 [--backend auto] [--p-one 0.5]
    python -m repro.cli sweep --circuit c17 --scenarios FILE.json [--batch K]
    python -m repro.cli stats --circuit c432s [--json out.json]
    python -m repro.cli cache ls|clear [--dir DIR]
    python -m repro.cli fuzz [--seeds N] [--max-gates N] [--out DIR]
    python -m repro.cli perf record [--quick] [--store DIR] [--baseline FILE]
    python -m repro.cli perf log [--metric M] [--circuit C] [--all-machines]
    python -m repro.cli perf diff OLD NEW [--noise-band B] [--force]

``estimate`` goes through the backend facade and the on-disk compile
cache (``--no-cache`` disables it, ``--cache-dir`` relocates it); a
second run on the same circuit loads the compiled junction trees
instead of rebuilding them.  ``--circuit`` accepts a suite name *or* a
path to a ``.bench`` netlist, which is validated before estimation;
``--fallback`` enables graceful degradation through the backend chain.
``sweep`` compiles a circuit once and batch-propagates every
input-statistics scenario from a JSON file through the compiled model
in one vectorized pass per batch.  ``cache`` lists or clears the
cached artifacts.  ``stats`` profiles
one full compile + propagate + re-propagate cycle with the
observability layer enabled and prints the span tree and metrics
(optionally exporting the schema-versioned JSON report); ``--trace
FILE`` on the experiment subcommands writes the same report for a
table run.  ``fuzz`` runs the cross-backend differential harness and
exits non-zero if any backend disagrees with the enumeration oracle.
``perf`` tracks performance over time: ``record`` measures (or ingests
``BENCH_*.json`` reports) into the append-only profile store,
``log`` renders each metric's trajectory across recorded versions, and
``diff`` statistically compares two profiles -- exit 0 no change, 1
perf regression beyond the noise band, 2 accuracy drift or profiles
that are not comparable at all.

Every anticipated failure (unknown circuit, malformed netlist, unknown
backend, infeasible input statistics, ...) exits with status 1 and a
one-line ``repro: error: ...`` message -- no traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.tables import format_table, rows_from_dicts
from repro.circuits import suite
from repro.core.inputs import IndependentInputs
from repro.errors import ReproError, UnknownCircuitError


def _write_trace(path: str, meta: dict) -> None:
    """Export the enabled obs state as a validated JSON report."""
    from repro import obs

    report = obs.validate_report(obs.build_report(meta=meta))
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote trace report to {path}")


def _maybe_traced(args, command: str):
    """Enable obs when ``--trace`` was given; return a finalizer."""
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return lambda: None
    from repro import obs

    obs.enable()
    return lambda: _write_trace(trace_path, {"command": command})


def _cmd_table1(args) -> None:
    from repro.experiments.table1 import TABLE1_COLUMNS, run_table1

    finish = _maybe_traced(args, "table1")
    rows = run_table1(args.circuits, n_pairs=args.pairs, seed=args.seed)
    print(
        format_table(
            TABLE1_COLUMNS,
            rows_from_dicts(rows, TABLE1_COLUMNS),
            title="Table 1: switching activity estimation by Bayesian network modeling",
        )
    )
    finish()


def _cmd_table2(args) -> None:
    from repro.experiments.table2 import TABLE2_COLUMNS, run_table2

    finish = _maybe_traced(args, "table2")
    rows = run_table2(args.circuits, n_pairs=args.pairs, seed=args.seed)
    print(
        format_table(
            TABLE2_COLUMNS,
            rows_from_dicts(rows, TABLE2_COLUMNS),
            title="Table 2: BN vs approximate dependency models",
        )
    )
    finish()


def _cmd_figures(_args) -> None:
    from repro.experiments.figures import figure_walkthrough

    data = figure_walkthrough()
    circuit = data["circuit"]
    print("Figure 1: example circuit")
    for line in circuit.internal_lines:
        print(f"  {circuit.driver(line)}")
    print("\nFigure 2: LIDAG-structured Bayesian network")
    print(f"  joint = {data['factorization']}")
    for u, v in data["lidag_edges"]:
        print(f"  X{u} -> X{v}")
    print("\nFigure 3: moralized + triangulated graph")
    print(f"  marriage edges added: {data['marriages']}")
    print(f"  triangulation fill-ins: {data['fill_ins']}")
    print("\nFigure 4: junction tree of cliques")
    for clique in data["cliques"]:
        print(f"  clique {{{', '.join('X' + x for x in clique)}}}")
    for left, right, sep in data["separators"]:
        print(
            f"  {sorted(left)} --{sorted(sep)}-- {sorted(right)}"
        )


def _cmd_ablations(args) -> None:
    from repro.experiments import ablations

    which = args.which
    if which in ("triangulation", "all"):
        rows = ablations.ablate_triangulation()
        cols = ["circuit", "heuristic", "fill_ins", "max_clique_states", "compile_s"]
        print(format_table(cols, rows_from_dicts(rows, cols), title="Triangulation heuristics"))
        print()
    if which in ("segmentation", "all"):
        rows = ablations.ablate_segmentation()
        cols = [
            "circuit", "boundary", "lookback", "backend", "segments",
            "mu_abs_err", "sigma_err", "pct_err", "compile_s",
        ]
        print(format_table(cols, rows_from_dicts(rows, cols), title="Segmentation knobs"))
        print()
    if which in ("compile", "all"):
        rows = ablations.ablate_compile_vs_propagate()
        cols = ["circuit", "gates", "compile_s", "mean_propagate_s", "speedup"]
        print(format_table(cols, rows_from_dicts(rows, cols), title="Compile vs propagate"))
        print()
    if which in ("inputs", "all"):
        rows = ablations.ablate_input_models()
        cols = [
            "circuit", "input_model", "mean_activity",
            "sim_mean_activity", "mu_abs_err", "sigma_err",
        ]
        print(format_table(cols, rows_from_dicts(rows, cols), title="Input statistics models"))


def _resolve_cli_cache(args):
    """``--no-cache``/``--cache-dir`` -> a facade ``cache`` argument."""
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None) or True


def _resolve_circuit(spec: str):
    """A suite name, or a path to a ``.bench`` netlist on disk."""
    if spec in suite.available_circuits():
        return suite.load_circuit(spec)
    path = Path(spec)
    if path.suffix == ".bench" or path.is_file():
        if not path.is_file():
            raise UnknownCircuitError(f"no such .bench file: {spec}")
        from repro.circuits.bench import parse_bench_file

        return parse_bench_file(path)
    raise UnknownCircuitError(
        f"unknown circuit {spec!r}: not a suite name "
        f"({', '.join(suite.available_circuits())}) and not a .bench file"
    )


def _refine_opts(args) -> dict:
    """Boundary-refinement options, forwarded only when requested.

    Like ``--kernel``, ``--refine`` is a backend-specific knob: the
    segmented (and auto) backends accept it and bake it into the compile
    cache key; backends without the knob would reject the option.
    """
    if not getattr(args, "refine", 0):
        return {}
    opts = {"refine": args.refine, "refine_tol": args.refine_tol}
    if args.max_iters is not None:
        opts["max_iters"] = args.max_iters
    return opts


def _cmd_estimate(args) -> None:
    from repro.core.backend import estimate

    finish = _maybe_traced(args, "estimate")
    circuit = _resolve_circuit(args.circuit)
    # --kernel is only forwarded when set: exact backends accept it and
    # bake it into the compile (and its cache key); backends without the
    # knob (enumeration, baselines) would reject the option.
    kernel_opts = {"kernel": args.kernel} if args.kernel else {}
    result = estimate(
        circuit,
        IndependentInputs(args.p_one),
        backend=args.backend,
        cache=_resolve_cli_cache(args),
        fallback=args.fallback or None,
        budget_seconds=args.budget_seconds,
        **kernel_opts,
        **_refine_opts(args),
    )
    cache_note = {True: "hit", False: "miss", None: "off"}[result.cache_hit]
    print(
        f"{circuit.name}: {circuit.num_gates} gates, {result.segments} segment(s), "
        f"method {result.method}, cache {cache_note}, "
        f"compile {result.compile_seconds:.3f}s, propagate {result.propagate_seconds:.3f}s"
    )
    if result.refine_iterations:
        print(
            f"  refine: {result.refine_iterations} iteration(s), "
            f"final boundary delta {result.refine_delta:.3e}"
        )
    for failed, reason in result.fallbacks:
        print(f"  fallback: {failed} failed ({reason})")
    print(f"mean switching activity: {result.mean_activity():.4f}")
    outputs = [(ln, result.switching(ln)) for ln in circuit.outputs]
    print(
        format_table(
            ["output", "switching"],
            outputs,
            title="Primary-output switching activity",
        )
    )
    finish()


def _load_scenarios(path: str):
    """Read a sweep scenario file: a JSON list of input-model specs,
    or an object with a ``"scenarios"`` list."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ReproError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"malformed JSON in {path}: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("scenarios")
    if not isinstance(data, list) or not data:
        raise ReproError(
            f"{path}: expected a non-empty JSON list of input-model specs "
            '(or {"scenarios": [...]})'
        )
    from repro.core.inputs import input_model_from_spec

    models = []
    for i, spec in enumerate(data):
        if not isinstance(spec, dict):
            raise ReproError(f"{path}: scenario {i} is not an object")
        try:
            models.append(input_model_from_spec(spec))
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"{path}: scenario {i}: {exc}") from exc
    return models


def _cmd_sweep(args) -> None:
    """Sweep K input-statistics scenarios against one compile."""
    import time

    from repro.core.backend import estimate_many

    finish = _maybe_traced(args, "sweep")
    circuit = _resolve_circuit(args.circuit)
    models = _load_scenarios(args.scenarios)
    start = time.perf_counter()
    kernel_opts = {"kernel": args.kernel} if args.kernel else {}
    results = estimate_many(
        circuit,
        models,
        backend=args.backend,
        cache=_resolve_cli_cache(args),
        batch_size=args.batch,
        dtype=args.dtype,
        **kernel_opts,
        **_refine_opts(args),
    )
    elapsed = time.perf_counter() - start
    cache_note = {True: "hit", False: "miss", None: "off"}[results[0].cache_hit]
    batch_note = args.batch if args.batch else len(models)
    print(
        f"{circuit.name}: {circuit.num_gates} gates, {len(models)} scenario(s), "
        f"batch {batch_note}, "
        f"method {results[0].method}, cache {cache_note}"
    )
    rows = [
        (k, f"{r.mean_activity():.6f}", f"{r.propagate_seconds * 1e3:.2f}")
        for k, r in enumerate(results)
    ]
    print(
        format_table(
            ["scenario", "mean_activity", "propagate_ms"],
            rows,
            title="Mean switching activity per scenario",
        )
    )
    # compile_seconds is the fresh-compile cost; on a cache hit it was
    # paid in an earlier process, so the whole elapsed time is queries.
    query_seconds = elapsed
    if results[0].cache_hit is not True:
        query_seconds = max(elapsed - results[0].compile_seconds, 0.0)
    rate = len(models) / query_seconds if query_seconds > 0 else float("inf")
    print(
        f"swept {len(models)} scenario(s) in {elapsed:.3f}s "
        f"({rate:.1f} scenarios/sec after compile)"
    )
    finish()


def _cmd_stats(args) -> None:
    """Profile one compile + propagate + re-propagate cycle.

    The second estimate runs with fresh input statistics so the
    dirty-clique fast path (skipped versus repropagated cliques) shows
    up in the counters -- the paper's asymmetric cost claim, measured.
    """
    from repro import obs
    from repro.core.backend import compile_model

    obs.enable()
    tracer = obs.get_tracer()
    circuit = _resolve_circuit(args.circuit)
    kernel_opts = {"kernel": args.kernel} if args.kernel else {}
    with tracer.span("stats.run", circuit=args.circuit):
        model = compile_model(
            circuit, IndependentInputs(args.p_one), backend="auto", **kernel_opts
        )
        result = model.query()
        repeat = model.query(IndependentInputs(args.repropagate_p_one))
    report = obs.build_report(
        meta={
            "command": "stats",
            "circuit": args.circuit,
            "gates": circuit.num_gates,
            "segments": repeat.segments,
            "mean_activity": repeat.mean_activity(),
        }
    )
    obs.validate_report(report)
    obs.check_span_containment(report)
    print(obs.render_report(report))
    support = getattr(model.estimator, "support_stats", None)
    if support is not None:
        st = support()
        print(
            f"kernel {st['kernel']}: {st['feasible_states']}/"
            f"{st['total_states']} feasible clique states "
            f"(density {st['support_density']:.3f}), "
            f"{st['sparse_cliques']}/{st['cliques']} packed cliques"
        )
    print(
        f"compile {result.compile_seconds:.3f}s, "
        f"first propagate {result.propagate_seconds:.3f}s, "
        f"re-propagate {repeat.propagate_seconds:.3f}s"
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")


def _cmd_cache(args) -> None:
    """List or clear the on-disk compile cache."""
    from repro.core.backend import CompileCache

    cache = CompileCache(args.dir) if args.dir else CompileCache()
    if args.action == "ls":
        entries = cache.entries()
        if not entries:
            print(f"cache at {cache.root}: empty")
            return
        print(f"cache at {cache.root}: {len(entries)} artifact(s)")
        print(
            format_table(
                ["key", "backend", "circuit", "bytes"],
                [
                    (e.key[:16], e.backend, e.circuit, e.size_bytes)
                    for e in entries
                ],
            )
        )
    else:  # clear
        removed = cache.clear()
        print(f"removed {removed} artifact(s) from {cache.root}")


def _cmd_fuzz(args) -> int:
    """Differentially fuzz the exact backends against the oracle."""
    from repro.core.backend import get_backend
    from repro.testing.differential import (
        DEFAULT_FUZZ_BACKENDS,
        parse_backend_spec,
        run_fuzz,
    )

    backends = tuple(args.backends) if args.backends else DEFAULT_FUZZ_BACKENDS
    if args.refine:
        # Deliberately approximate: small segments force real cuts, the
        # loose per-spec atol guards against divergence, not exactness.
        backends += (
            f"segmented(refine={args.refine}, max_gates_per_segment=10, "
            f"lookback=1, atol=0.75)",
        )
    for spec in backends:
        get_backend(parse_backend_spec(spec)[0])  # typos fail up front
    report = run_fuzz(
        seeds=args.seeds,
        max_gates=args.max_gates,
        max_inputs=args.max_inputs,
        backends=backends,
        atol=args.atol,
        out_dir=Path(args.out),
        seed_base=args.seed_base,
        progress=lambda case: (
            None
            if case.ok
            else print(f"seed {case.seed}: MISMATCH (reproducer: {case.reproducer})")
        ),
    )
    print(report.summary())
    return 0 if report.ok else 1


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _cmd_serve(args) -> None:
    """Run the resident estimation server until SIGTERM/SIGINT."""
    from repro.serve import EstimationServer, ServerConfig
    from repro.serve.server import install_signal_handlers

    config = ServerConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        options={"kernel": args.kernel} if args.kernel else {},
        cache=_resolve_cli_cache(args),
        max_models=args.max_models,
        engines_per_model=args.engines_per_model,
        max_batch=args.max_batch,
        linger_ms=args.linger_ms,
        workers=args.workers,
        result_cache_entries=args.result_cache_entries,
    )
    server = EstimationServer(config)
    install_signal_handlers(server)
    print(
        f"repro-serve listening on {server.address} "
        f"(max_batch={config.max_batch}, linger={config.linger_ms}ms, "
        f"engines/model={config.engines_per_model}, "
        f"result_cache_entries={config.result_cache_entries})",
        flush=True,
    )
    server.serve_forever()
    server.close()
    print("repro-serve: shut down cleanly")


def _cmd_client(args) -> int:
    """Load-generate against a running server (or just scrape it)."""
    from repro.obs import validate_report
    from repro.serve import ServeClient, run_load

    if args.check_metrics:
        report = ServeClient(args.url, timeout=args.timeout).metrics()
        validate_report(report)  # raises ObsError on schema violations
        groups = report.get("metrics", {})
        total = sum(len(v) for v in groups.values() if isinstance(v, dict))
        print(
            f"metrics report valid: schema {report['schema']}, "
            f"{total} metric(s), "
            f"{report['meta']['pool']['resident']} resident model(s)"
        )
        return 0

    if args.quick:
        args.concurrency, args.requests = 4, 24
    report = run_load(
        args.url,
        args.circuit,
        mode=args.mode,
        concurrency=args.concurrency,
        requests=args.requests,
        rate=args.rate,
        salt=args.salt,
        backend=args.backend or None,
        detail=args.detail,
        timeout=args.timeout,
        workload=args.workload,
    )
    row = report.to_row()
    cols = list(row.keys())
    print(format_table(cols, rows_from_dicts([row], cols), title="Load run"))
    if report.errors:
        print(f"first error: {report.first_error}", file=sys.stderr)
        return 1
    return 0


def _load_bench_json(path: str, kind: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ReproError(f"cannot read {kind} report {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"malformed JSON in {path}: {exc}") from exc


def _cmd_perf_record(args) -> None:
    """Record one perf profile: measure live, or ingest bench reports."""
    from repro.perf import (
        PerfStore,
        collect_profile,
        ingest_bench_documents,
        load_profiles_file,
        write_history,
    )

    if (
        args.from_propagation
        or args.from_throughput
        or args.from_segmentation
        or args.from_serving
    ):
        profile = ingest_bench_documents(
            propagation=(
                _load_bench_json(args.from_propagation, "propagation")
                if args.from_propagation
                else None
            ),
            throughput=(
                _load_bench_json(args.from_throughput, "throughput")
                if args.from_throughput
                else None
            ),
            segmentation=(
                _load_bench_json(args.from_segmentation, "segmentation")
                if args.from_segmentation
                else None
            ),
            serving=(
                _load_bench_json(args.from_serving, "serving")
                if args.from_serving
                else None
            ),
            note=args.note,
        )
    else:
        circuits = (
            [c.strip() for c in args.circuits.split(",") if c.strip()]
            if args.circuits
            else None
        )
        profile = collect_profile(
            circuits=circuits,
            repeats=args.repeats,
            batch_sizes=[
                int(k) for k in args.batch_sizes.split(",") if k.strip()
            ],
            parallelism=args.parallelism,
            kernel=args.kernel,
            note=args.note,
            quick=args.quick,
            progress=lambda name, block: print(
                f"{name:>10s}  repeat(min) "
                f"{block['repeat_estimate_min_seconds'] * 1e3:8.3f}ms"
                + (
                    f"  max_abs_error {block['max_abs_error']:.2e}"
                    if "max_abs_error" in block
                    else ""
                )
            ),
        )
    store = PerfStore(args.store)
    path = store.append(profile)
    git = profile["git"]
    print(
        f"recorded profile {git['short']}{'*' if git['dirty'] else ''} "
        f"({len(profile['measurements'])} circuit(s), machine "
        f"{profile['fingerprint']['digest']}) into {path}"
    )
    if args.baseline:
        baseline = Path(args.baseline)
        history = load_profiles_file(baseline) if baseline.is_file() else []
        history.append(profile)
        write_history(baseline, history)
        print(f"appended to baseline {baseline} ({len(history)} profile(s))")


def _cmd_perf_log(args) -> None:
    """Render each metric's trajectory across recorded versions."""
    from repro.perf import PerfStore, machine_fingerprint, render_log

    store = PerfStore(args.store)
    digest = None if args.all_machines else machine_fingerprint()["digest"]
    profiles = store.profiles(fingerprint_digest=digest)
    if not profiles and digest is not None and store.profiles():
        print(
            f"note: the store has profiles, but none from this machine "
            f"(digest {digest}); pass --all-machines to see them"
        )
    print(render_log(profiles, metric=args.metric, circuit=args.circuit), end="")


def _cmd_perf_diff(args) -> int:
    """Statistically compare two profiles; exit 0 ok / 1 perf / 2 accuracy."""
    from repro.errors import PerfDiffError, PerfProfileError
    from repro.perf import (
        PerfStore,
        compare_profiles,
        exit_code,
        render_diff,
        version_label,
    )

    store = PerfStore(args.store)
    try:
        old = store.resolve(args.old)
        new = store.resolve(args.new)
        records = compare_profiles(
            old,
            new,
            noise_band=args.noise_band,
            floor_seconds=args.floor_seconds,
            accuracy_atol=args.accuracy_atol,
            force=args.force,
        )
    except (PerfDiffError, PerfProfileError) as exc:
        # Not-comparable is contractually exit 2 (CI distinguishes it
        # from the plain perf regression's exit 1).
        print(f"repro perf diff: {exc}", file=sys.stderr)
        return 2
    print(f"old: {version_label(old)}  {old.get('recorded_at', '?')}")
    print(f"new: {version_label(new)}  {new.get('recorded_at', '?')}")
    print(render_diff(records), end="")
    rc = exit_code(records)
    counts = {}
    for record in records:
        counts[record["status"]] = counts.get(record["status"], 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    verdict = {0: "ok", 1: "PERF REGRESSION", 2: "ACCURACY DRIFT"}[rc]
    print(f"perf diff: {summary} -> {verdict}")
    return rc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Bayesian-network switching activity experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="accuracy + timing over the benchmark suite")
    p1.add_argument("--circuits", nargs="*", default=None, choices=suite.FULL_SUITE)
    p1.add_argument("--pairs", type=int, default=100_000)
    p1.add_argument("--seed", type=int, default=0)
    p1.add_argument("--trace", default=None, metavar="FILE",
                    help="write an obs JSON report of the run")
    p1.set_defaults(func=_cmd_table1)

    p2 = sub.add_parser("table2", help="BN vs approximate dependency models")
    p2.add_argument("--circuits", nargs="*", default=None, choices=suite.FULL_SUITE)
    p2.add_argument("--pairs", type=int, default=100_000)
    p2.add_argument("--seed", type=int, default=0)
    p2.add_argument("--trace", default=None, metavar="FILE",
                    help="write an obs JSON report of the run")
    p2.set_defaults(func=_cmd_table2)

    pf = sub.add_parser("figures", help="Figures 1-4 walkthrough")
    pf.set_defaults(func=_cmd_figures)

    pa = sub.add_parser("ablations", help="design-choice ablations")
    pa.add_argument(
        "--which",
        default="all",
        choices=["triangulation", "segmentation", "compile", "inputs", "all"],
    )
    pa.set_defaults(func=_cmd_ablations)

    pe = sub.add_parser("estimate", help="estimate one circuit (suite name or .bench path)")
    pe.add_argument(
        "--circuit", required=True, metavar="NAME_OR_BENCH",
        help="suite circuit name, or path to a .bench netlist",
    )
    pe.add_argument("--p-one", type=float, default=0.5)
    pe.add_argument(
        "--backend", default="auto",
        help="inference backend (see `repro.core.backend`); default: auto",
    )
    pe.add_argument(
        "--fallback", action="store_true",
        help="degrade through the default backend chain on compile failure",
    )
    pe.add_argument(
        "--budget-seconds", type=float, default=None, metavar="S",
        help="wall-clock budget; once exceeded, jump to the cheapest fallback",
    )
    pe.add_argument(
        "--kernel", choices=["auto", "dense", "sparse"], default=None,
        help="propagation message kernel for exact backends "
             "(default: the backend's own default, auto)",
    )
    pe.add_argument(
        "--refine", type=int, default=0, metavar="N",
        help="segmented backend: up to N iterative boundary-refinement "
             "passes over the segment graph (default: 0, off)",
    )
    pe.add_argument(
        "--refine-tol", type=float, default=1e-5, metavar="TOL",
        help="refinement convergence tolerance on the max boundary-belief "
             "delta (default: 1e-5)",
    )
    pe.add_argument(
        "--max-iters", type=int, default=None, metavar="N",
        help="hard cap on refinement iterations (default: the --refine value)",
    )
    pe.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="compile-cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    pe.add_argument(
        "--no-cache", action="store_true",
        help="compile fresh, skipping the on-disk cache",
    )
    pe.add_argument("--trace", default=None, metavar="FILE",
                    help="write an obs JSON report of the run")
    pe.set_defaults(func=_cmd_estimate)

    pw = sub.add_parser(
        "sweep",
        help="batch-propagate many input-statistics scenarios over one compile",
    )
    pw.add_argument(
        "--circuit", required=True, metavar="NAME_OR_BENCH",
        help="suite circuit name, or path to a .bench netlist",
    )
    pw.add_argument(
        "--scenarios", required=True, metavar="FILE",
        help='JSON list of input-model specs (or {"scenarios": [...]}); '
             'each spec is {"kind": "independent", "p_one": 0.3}-style',
    )
    pw.add_argument(
        "--batch", type=int, default=None, metavar="K",
        help="distinct scenarios per batched propagation (default: all in "
             "one batch)",
    )
    pw.add_argument(
        "--backend", default="auto",
        help="inference backend (see `repro.core.backend`); default: auto",
    )
    pw.add_argument(
        "--kernel", choices=["auto", "dense", "sparse"], default=None,
        help="propagation message kernel for exact backends "
             "(default: the backend's own default, auto)",
    )
    pw.add_argument(
        "--dtype", choices=["float64", "float32"], default="float64",
        help="batch-buffer dtype; float32 halves sweep memory at ~1e-6 "
             "relative tolerance",
    )
    pw.add_argument(
        "--refine", type=int, default=0, metavar="N",
        help="segmented backend: up to N iterative boundary-refinement "
             "passes over the segment graph (default: 0, off)",
    )
    pw.add_argument(
        "--refine-tol", type=float, default=1e-5, metavar="TOL",
        help="refinement convergence tolerance on the max boundary-belief "
             "delta (default: 1e-5)",
    )
    pw.add_argument(
        "--max-iters", type=int, default=None, metavar="N",
        help="hard cap on refinement iterations (default: the --refine value)",
    )
    pw.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="compile-cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    pw.add_argument(
        "--no-cache", action="store_true",
        help="compile fresh, skipping the on-disk cache",
    )
    pw.add_argument("--trace", default=None, metavar="FILE",
                    help="write an obs JSON report of the run")
    pw.set_defaults(func=_cmd_sweep)

    pc = sub.add_parser("cache", help="inspect or clear the compile cache")
    pc.add_argument("action", choices=["ls", "clear"])
    pc.add_argument(
        "--dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    pc.set_defaults(func=_cmd_cache)

    ps = sub.add_parser(
        "stats", help="profile compile/propagate with the obs layer"
    )
    ps.add_argument(
        "--circuit", required=True, metavar="NAME_OR_BENCH",
        help="suite circuit name, or path to a .bench netlist",
    )
    ps.add_argument("--p-one", type=float, default=0.5)
    ps.add_argument(
        "--repropagate-p-one", type=float, default=0.3,
        help="input probability for the re-propagation pass",
    )
    ps.add_argument(
        "--kernel", choices=["auto", "dense", "sparse"], default=None,
        help="propagation message kernel (default: auto)",
    )
    ps.add_argument("--json", default=None, metavar="FILE",
                    help="also write the JSON report here")
    ps.set_defaults(func=_cmd_stats)

    pz = sub.add_parser(
        "fuzz",
        help="differentially fuzz backends against the enumeration oracle",
    )
    pz.add_argument("--seeds", type=int, default=50,
                    help="number of random cases (default: 50)")
    pz.add_argument("--seed-base", type=int, default=0,
                    help="first seed (default: 0)")
    pz.add_argument("--max-gates", type=int, default=40,
                    help="max gates per generated circuit (default: 40)")
    pz.add_argument("--max-inputs", type=int, default=6,
                    help="max primary inputs; bounds the 4^n oracle (default: 6)")
    pz.add_argument(
        "--backends", nargs="*", default=None, metavar="SPEC",
        help="backend names or specs like 'segmented(refine=2,atol=0.5)' "
             "(default: junction-tree segmented enumeration)",
    )
    pz.add_argument(
        "--refine", type=int, default=0, metavar="N",
        help="also fuzz a refined segmented config (small segments, "
             "N refinement iterations) at a loose approximate tolerance",
    )
    pz.add_argument("--atol", type=float, default=1e-10,
                    help="per-entry tolerance on line distributions (default: 1e-10)")
    pz.add_argument(
        "--out", default="fuzz-failures", metavar="DIR",
        help="directory for shrunk reproducers (default: fuzz-failures)",
    )
    pz.set_defaults(func=_cmd_fuzz)

    pv = sub.add_parser(
        "serve",
        help="run the resident estimation server (HTTP/JSON, dynamic batching)",
    )
    pv.add_argument("--host", default="127.0.0.1")
    pv.add_argument("--port", type=int, default=8337)
    pv.add_argument("--backend", default="auto",
                    help="default backend for /estimate (default: auto)")
    pv.add_argument("--kernel", choices=["auto", "dense", "sparse"],
                    default=None, help="propagation kernel for every compile")
    pv.add_argument("--max-models", type=int, default=8,
                    help="LRU ceiling on resident compiled models (default: 8)")
    pv.add_argument("--engines-per-model", type=int, default=2,
                    help="engine replicas per model (default: 2)")
    pv.add_argument("--max-batch", type=int, default=16,
                    help="scenario ceiling per coalesced propagation "
                         "(1 = unbatched; default: 16)")
    pv.add_argument("--linger-ms", type=float, default=2.0,
                    help="how long a non-full batch waits for company "
                         "(default: 2.0)")
    pv.add_argument("--workers", type=int, default=2,
                    help="batch drain threads (default: 2)")
    pv.add_argument("--result-cache-entries", type=_non_negative_int,
                    default=4096, metavar="N",
                    help="LRU capacity of the fingerprint-keyed result cache "
                         "(exact scenario repeats replay without propagating; "
                         "0 disables it)")
    pv.add_argument("--no-cache", action="store_true",
                    help="skip the on-disk compile cache")
    pv.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="compile cache directory (default: $REPRO_CACHE_DIR)")
    pv.set_defaults(func=_cmd_serve)

    pg = sub.add_parser(
        "client",
        help="drive a running estimation server: load-generate or scrape",
    )
    pg.add_argument("--url", default="http://127.0.0.1:8337")
    pg.add_argument("--circuit", default="c17",
                    help="suite name or .bench path (default: c17)")
    pg.add_argument("--mode", choices=["closed", "open"], default="closed",
                    help="closed: send-receive loops; open: fixed arrival rate")
    pg.add_argument("--concurrency", type=int, default=8)
    pg.add_argument("--requests", type=int, default=100)
    pg.add_argument("--rate", type=float, default=50.0,
                    help="open-loop arrivals per second (default: 50)")
    pg.add_argument("--workload", default="uniform", metavar="SPEC",
                    help="scenario stream: uniform (all distinct), zipf:A, "
                         "hotspot:P, or burst:N (skewed streams repeat "
                         "scenarios and exercise the server's result cache)")
    pg.add_argument("--salt", type=float, default=0.0,
                    help="scenario stream offset (default: 0)")
    pg.add_argument("--backend", default=None)
    pg.add_argument("--detail", choices=["mean", "activities", "distributions"],
                    default=None, help="response payload detail level")
    pg.add_argument("--timeout", type=float, default=60.0)
    pg.add_argument("--quick", action="store_true",
                    help="CI smoke configuration: 4 workers, 24 requests")
    pg.add_argument("--check-metrics", action="store_true",
                    help="scrape /metrics, validate the repro.obs report, exit")
    pg.set_defaults(func=_cmd_client)

    pp = sub.add_parser(
        "perf", help="record, inspect and diff performance profiles"
    )
    perf_sub = pp.add_subparsers(dest="perf_command", required=True)

    def _add_store(p):
        p.add_argument(
            "--store", default=None, metavar="DIR",
            help="profile store directory "
                 "(default: $REPRO_PERF_DIR or .repro-perf)",
        )

    pr = perf_sub.add_parser(
        "record", help="measure (or ingest bench reports) into the store"
    )
    _add_store(pr)
    pr.add_argument(
        "--circuits", default=None, metavar="A,B,...",
        help="comma-separated circuit names (default: the benchmark suite)",
    )
    pr.add_argument("--repeats", type=int, default=3)
    pr.add_argument(
        "--batch-sizes", default="64", metavar="K,...",
        help="comma-separated scenario-sweep batch sizes (default: 64)",
    )
    pr.add_argument(
        "--parallelism", type=int, default=0,
        help="worker threads for segmented circuits (0 = serial)",
    )
    pr.add_argument(
        "--kernel", choices=["auto", "dense", "sparse"], default="auto",
        help="propagation message kernel for every compile",
    )
    pr.add_argument(
        "--quick", action="store_true",
        help="CI smoke configuration: c17 only, 2 repeats, K=64",
    )
    pr.add_argument(
        "--from-propagation", default=None, metavar="FILE",
        help="ingest a BENCH_propagation.json instead of measuring",
    )
    pr.add_argument(
        "--from-throughput", default=None, metavar="FILE",
        help="ingest a BENCH_throughput.json instead of measuring",
    )
    pr.add_argument(
        "--from-segmentation", default=None, metavar="FILE",
        help="ingest a BENCH_segmentation.json instead of measuring",
    )
    pr.add_argument(
        "--from-serving", default=None, metavar="FILE",
        help="ingest a BENCH_serving.json instead of measuring",
    )
    pr.add_argument(
        "--note", default="", metavar="TEXT",
        help="free-form provenance note stored with the profile",
    )
    pr.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="also append the profile to this committed history document "
             "(PERF_HISTORY.json)",
    )
    pr.set_defaults(func=_cmd_perf_record)

    pl = perf_sub.add_parser(
        "log", help="per-metric trajectory across recorded versions"
    )
    _add_store(pl)
    pl.add_argument(
        "--metric", default=None, metavar="NAME",
        help="show only this metric (e.g. repeat_estimate_min_seconds)",
    )
    pl.add_argument(
        "--circuit", default=None, metavar="NAME",
        help="show only this circuit",
    )
    pl.add_argument(
        "--all-machines", action="store_true",
        help="include profiles recorded on other machines "
             "(default: this machine's fingerprint only)",
    )
    pl.set_defaults(func=_cmd_perf_log)

    pd = perf_sub.add_parser(
        "diff", help="compare two profiles (exit 1 perf / 2 accuracy)"
    )
    _add_store(pd)
    pd.add_argument(
        "old",
        help="baseline profile: a file (profile JSON, PERF_HISTORY.json, "
             ".jsonl log), 'latest', or a git SHA prefix",
    )
    pd.add_argument("new", help="candidate profile (same reference forms)")
    pd.add_argument(
        "--noise-band", type=float, default=0.25,
        help="fractional tolerance before a timing delta counts as a "
             "regression; auto-widened by the runs' own dispersion",
    )
    pd.add_argument(
        "--floor-seconds", type=float, default=0.001,
        help="timing rows where both sides are below this are skipped",
    )
    pd.add_argument(
        "--accuracy-atol", type=float, default=1e-6,
        help="absolute tolerance on accuracy metrics (exit 2 beyond it)",
    )
    pd.add_argument(
        "--force", action="store_true",
        help="compare across different machine fingerprints anyway",
    )
    pd.set_defaults(func=_cmd_perf_diff)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
    except ReproError as exc:
        # Anticipated, typed failures get a one-line message, not a
        # traceback: the exit status is the machine-readable part.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    return int(rc or 0)


if __name__ == "__main__":
    sys.exit(main())
