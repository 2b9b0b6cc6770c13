"""Where the tracer wraps the program: the public functions of each layer.

Span names are ``<layer>.<what>``; :data:`LAYER_OF` maps each span name
to the per-layer metric its self time is charged to.  Nothing here
changes what the wrapped functions compute.
"""

from __future__ import annotations

import sys

from tracing import Tracer

#: span name -> per-layer time metric its self time counts toward
LAYER_OF = {
    # serving request path
    "server.handle": "server.handle_self_ms",
    "server.store": "server.handle_self_ms",
    "server.admit": "server.admit_ms",
    "rcache.key": "rcache.digest_ms",
    "rcache.digest": "rcache.digest_ms",
    "rcache.probe": "rcache.probe_ms",
    "rcache.store": "rcache.store_ms",
    "batcher.submit": "batcher.wait_ms",
    "server.batch": "server.batch_self_ms",
    "pool.checkout": "pool.checkout_wait_ms",
    # library and engine path
    "facade.estimate_many": "facade.self_ms",
    "facade.compile_model": "facade.self_ms",
    "validate": "validate.ms",
    "backend.cache_load": "backend.cache_load_ms",
    "backend.cache_store": "backend.cache_store_ms",
    "backend.query": "backend.query_ms",
    "estimator.estimate_many": "estimator.self_ms",
    "estimator.stacked": "estimator.self_ms",
    "segmented.estimate_many": "estimator.self_ms",
    "junction.cpd_install": "junction.cpd_install_ms",
    "junction.marginals": "junction.marginals_ms",
    "engine.propagate": "engine.propagate_ms",
}

#: time metrics charged from spans, as a mean per job or request
SPAN_METRICS = sorted(set(LAYER_OF.values()) - {"validate.ms"})

#: compile spans, reported as seconds summed over one cold compile of
#: the workload's circuits: metric -> (span name, inclusive?)
COMPILE_METRICS = {
    "backend.compile_s": ("backend.compile", True),
    "backend.cache_store_s": ("backend.cache_store", True),
    "compile.lidag_s": ("compile.lidag", False),
    "compile.junction_s": ("compile.junction", False),
    "compile.segments_s": ("compile.segments", False),
}

#: PropagationCounters fields that change inside ``propagate``
COUNTER_FIELDS = (
    "messages_collect",
    "messages_distribute",
    "flops",
    "cliques_repropagated",
    "cliques_skipped",
    "scenarios_propagated",
)
#: the counter ``set_potential[_batch]`` increments when it skips a
#: potential equal to the installed one, before ``propagate`` runs
UNCHANGED = "potentials_unchanged"


def compile_metrics(spans, selfs) -> dict:
    """:data:`COMPILE_METRICS` summed over ``spans``."""
    return {
        metric: sum(
            (end - start) if inclusive else selfs[sid]
            for sid, _p, _r, name, start, end, _x in spans
            if name == span_name
        )
        for metric, (span_name, inclusive) in COMPILE_METRICS.items()
    }


def engine_work(groups, roots, counts) -> dict:
    """Engine work of the jobs or batches ``roots``: the
    :data:`COUNTER_FIELDS` deltas of their ``propagate`` calls, the
    potentials skipped as unchanged, the scenario slots of junction-tree
    segments queried, and the largest engine buffer bytes of one root."""
    work = dict.fromkeys(COUNTER_FIELDS + (UNCHANGED, "slots", "factor_bytes"), 0)
    for root in roots:
        engines = {}
        for _sid, _p, _r, name, _s, _e, extra in groups.get(root, ()):
            if name == "engine.propagate":
                engines[extra["engine"]] = extra["factor_bytes"]
                for field in COUNTER_FIELDS:
                    work[field] += extra[field]
            elif name == "backend.query":
                work["slots"] += extra["k"] * extra["jt_segments"]
        work[UNCHANGED] += counts.get(root, {}).get(UNCHANGED, 0)
        work["factor_bytes"] = max(work["factor_bytes"], sum(engines.values()))
    return work


def engine_metrics(counted: dict, per: int, total: dict) -> dict:
    """The engine's per-layer metrics: counts of ``counted`` (an
    :func:`engine_work`) per ``per`` scenarios or requests; skipped
    potentials, buffer bytes and the propagated share from ``total``."""
    return {
        "engine.messages": (counted["messages_collect"] + counted["messages_distribute"]) / per,
        "engine.flops": counted["flops"] / per,
        "engine.cliques_repropagated": counted["cliques_repropagated"] / per,
        "engine.cliques_skipped": counted["cliques_skipped"] / per,
        "engine.scenarios_propagated": counted["scenarios_propagated"] / per,
        "engine.potentials_unchanged": float(total[UNCHANGED]),
        "engine.factor_bytes": float(total["factor_bytes"]),
        "sweep.propagated_frac": total["scenarios_propagated"] / max(1, total["slots"]),
    }


def _counters_before(args):
    counters = args[0].counters
    return tuple(getattr(counters, field) for field in COUNTER_FIELDS)


def _counters_after(before, args, _result):
    engine = args[0]
    after = tuple(getattr(engine.counters, field) for field in COUNTER_FIELDS)
    extra = {f: a - b for f, a, b in zip(COUNTER_FIELDS, after, before)}
    extra["engine"] = id(engine)
    extra["factor_bytes"] = int(engine.factor_bytes)
    return extra


def _unchanged(args) -> int:
    return args[0].counters.potentials_unchanged


def _query_shape(_token, args, _result):
    from repro.core.estimator import SwitchingActivityEstimator

    model, inputs = args[0], args[1]
    estimator = model.estimator
    graph = getattr(estimator, "graph", None)
    if graph is None:
        segments = 1 if isinstance(estimator, SwitchingActivityEstimator) else 0
    else:
        segments = sum(
            isinstance(node.estimator, SwitchingActivityEstimator)
            for node in graph.nodes
        )
    return {"k": len(inputs), "jt_segments": segments}


def install_library(tracer: Tracer) -> None:
    """Wrap the estimation library: facade, validation, compile cache,
    backends, estimators, junction tree, propagation engine, compile."""
    import repro.core.backend as backend_pkg
    import repro.core.backend.facade as facade
    import repro.core.estimator as estimator_mod
    import repro.core.rcache as rcache
    from repro.bayesian.junction import JunctionTree
    from repro.bayesian.propagation import PropagationEngine
    from repro.core.backend.backends import AutoBackend, EstimatorCompiledModel
    from repro.core.backend.cache import CompileCache
    from repro.core.segments.estimator import SegmentedEstimator

    tracer.wrap_function([facade, backend_pkg], "estimate_many", "facade.estimate_many")
    tracer.wrap_function([facade], "validate_pass", "validate")
    pool_mod = sys.modules.get("repro.serve.pool")
    tracer.wrap_function([facade, backend_pkg, pool_mod], "compile_model", "facade.compile_model")
    tracer.wrap_method(CompileCache, "get", "backend.cache_load")
    tracer.wrap_method(CompileCache, "put", "backend.cache_store")
    tracer.wrap_method(AutoBackend, "compile", "backend.compile")
    tracer.wrap_method(EstimatorCompiledModel, "query_many", "backend.query", finish=_query_shape)
    tracer.wrap_method(estimator_mod.SwitchingActivityEstimator, "estimate_many", "estimator.estimate_many")
    tracer.wrap_method(estimator_mod.SwitchingActivityEstimator, "estimate_many_stacked", "estimator.stacked")
    tracer.wrap_method(SegmentedEstimator, "estimate_many", "segmented.estimate_many")
    tracer.wrap_method(JunctionTree, "update_cpds_batch", "junction.cpd_install")
    tracer.wrap_method(JunctionTree, "marginals_batch", "junction.marginals")
    tracer.wrap_method(
        PropagationEngine, "propagate", "engine.propagate",
        probe=_counters_before, finish=_counters_after,
    )
    for install in ("set_potential", "set_potential_batch"):
        tracer.count_method(PropagationEngine, install, UNCHANGED, _unchanged)
    tracer.wrap_function([estimator_mod], "build_lidag", "compile.lidag")
    tracer.wrap_method(JunctionTree, "from_network", "compile.junction")
    tracer.wrap_method(SegmentedEstimator, "compile", "compile.segments")
    server_mod = sys.modules.get("repro.serve.server")
    tracer.wrap_function([rcache, facade, server_mod], "scenario_digest", "rcache.digest")
    tracer.wrap_method(rcache.ResultCache, "get", "rcache.probe")
    tracer.wrap_method(rcache.ResultCache, "put", "rcache.store")


def _batch_results(_token, _args, result):
    return {"results": [id(r) for r in result or ()]}


def _stored_result(_token, args, _result):
    return {"result": id(args[2])}


def install_server(tracer: Tracer) -> None:
    """Wrap the serving layers, then the library beneath them.

    The request id travels in the ``X-Bench-Rid`` header; the handler
    hook hands it to the thread's next top-level span, which is the
    request's ``handle_estimate``.
    """
    import repro.serve.server as server_mod
    from repro.serve.batcher import DynamicBatcher
    from repro.serve.pool import EnginePool
    from repro.serve.server import EstimationServer

    make_handler = server_mod._make_handler

    def traced_make_handler(server):
        handler = make_handler(server)

        class TracedHandler(handler):
            def _body(self):
                rid = self.headers.get("X-Bench-Rid")
                if rid is not None:
                    tracer.next_root(int(rid))
                return super()._body()

        return TracedHandler

    server_mod._make_handler = traced_make_handler
    tracer.on_restore(lambda: setattr(server_mod, "_make_handler", make_handler))
    tracer.wrap_method(EstimationServer, "handle_estimate", "server.handle")
    tracer.wrap_method(EstimationServer, "_admit", "server.admit")
    tracer.wrap_method(EstimationServer, "_scenario_key", "rcache.key")
    tracer.wrap_method(EstimationServer, "_store", "server.store", finish=_stored_result)
    tracer.wrap_method(DynamicBatcher, "submit", "batcher.submit")
    tracer.wrap_method(EstimationServer, "_run_batch", "server.batch", finish=_batch_results)
    tracer.wrap_method(EnginePool, "checkout", "pool.checkout")
    install_library(tracer)
