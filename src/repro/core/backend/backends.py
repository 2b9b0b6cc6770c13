"""Concrete inference backends.

Seven entry points used to be scattered across the codebase --
:class:`~repro.core.estimator.SwitchingActivityEstimator`,
:class:`~repro.core.segments.SegmentedEstimator`,
:func:`~repro.core.estimator.exact_switching_by_enumeration`, and the
four :mod:`repro.baselines` estimators.  They are all query strategies
over the same LIDAG switching model (Tucci: even BDD-style evaluation
is a special case of Bayesian-network inference), so they live here
behind one :class:`~repro.core.backend.base.Backend` surface:

- ``"junction-tree"`` -- single-BN exact inference (the paper's method),
- ``"segmented"``     -- multiple-BN estimation for large circuits,
- ``"enumeration"``   -- exact support enumeration (the oracle),
- ``"auto"``          -- junction tree under the clique budget, falling
  back to segmentation on :class:`CliqueBudgetExceeded` (what the CLI
  and the experiments use),
- ``"pairwise"``, ``"local-cone"``, ``"independence"``,
  ``"monte-carlo"``, ``"simulation"`` -- adapters over the classical
  baseline estimators, so comparisons run through the same facade.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.circuits.netlist import Circuit
from repro.core import rcache
from repro.core.backend.base import Backend, CompiledModel, Method
from repro.core.backend.errors import CliqueBudgetExceeded
from repro.core.estimator import SwitchingActivityEstimator, SwitchingEstimate
from repro.core.inputs import IndependentInputs, InputModel
from repro.core.segments import SegmentedEstimator
from repro.errors import ZeroBeliefError
from repro.core.sweep import group_scenarios
from repro.obs.trace import get_tracer

__all__ = [
    "AutoBackend",
    "BaselineBackend",
    "BaselineCompiledModel",
    "EnumerationBackend",
    "EstimatorCompiledModel",
    "JunctionTreeBackend",
    "SegmentedBackend",
]


class EstimatorCompiledModel(CompiledModel):
    """Artifact wrapping a compiled estimator.

    Works for every estimator exposing ``update_inputs`` and
    ``estimate_many`` (single-BN, segmented, enumeration -- all
    deterministic, which is what lets :meth:`query_many` propagate
    each distinct scenario once); :meth:`query` is a one-scenario
    :meth:`query_many`.  The junction-tree
    structure, propagation schedules, and clique potentials pickle with
    the estimator, so a loaded artifact re-propagates without paying
    the compile again.
    """

    def __init__(self, backend_name: str, circuit: Circuit, estimator):
        super().__init__(backend_name, circuit)
        self.estimator = estimator

    def query(self, inputs: Optional[InputModel] = None) -> SwitchingEstimate:
        with get_tracer().span(
            "backend.query", backend=self.backend_name, circuit=self.circuit.name
        ):
            if inputs is not None:
                self.estimator.update_inputs(inputs)
            return self.query_many([self.estimator.input_model])[0]

    def query_many(
        self,
        inputs_list: "list[InputModel]",
        batch_size: Optional[int] = None,
        dtype: Optional[str] = None,
    ) -> "list[SwitchingEstimate]":
        """Vectorized sweep: each distinct scenario propagates once.

        Scenarios are keyed by :func:`repro.core.rcache.scenario_digest`
        (the result cache's key, so two specs inducing the same input
        CPDs collide) and only the first occurrence of each key -- its
        representative -- is propagated, through the estimator's
        ``estimate_many`` in chunks of at most ``batch_size``
        representatives.  Batch rows never interact, so a
        representative's row is bitwise the row each duplicate would
        have computed; every caller index gets its own
        :class:`SwitchingEstimate` and dict (the arrays may alias, as
        batch rows do).  ``propagate_seconds`` is the amortized share of
        the propagation over all K caller scenarios.  A one-scenario
        sweep skips the digest.

        ``batch_size`` caps the representatives per pass -- propagation
        memory is ``batch_size x`` the K=1 engine footprint.
        ``dtype="float32"`` runs propagating estimators' batch buffers
        in float32 (ignored by estimators without a dtype knob).

        A :class:`ZeroBeliefError` escaping a chunk is re-raised with
        its ``batch_indices`` mapped to the *caller's* scenario
        numbering: every caller index whose representative failed.
        """
        models = list(inputs_list)
        if not models:
            return []
        estimate_many = self.estimator.estimate_many
        # Only forward a non-default dtype, and only to estimators that
        # take it (EnumerationSegment.estimate_many does not).
        kwargs = {}
        if dtype is not None and dtype != "float64":
            import inspect

            if "dtype" in inspect.signature(estimate_many).parameters:
                kwargs["dtype"] = dtype
        if len(models) == 1:
            reps, scatter = [0], [0]
        else:
            reps, scatter = group_scenarios(
                [rcache.scenario_digest(self.circuit, m) for m in models]
            )
        distinct = [models[r] for r in reps]
        chunk = len(distinct) if not batch_size or batch_size < 1 else batch_size
        computed: "list[SwitchingEstimate]" = []
        with get_tracer().span(
            "backend.query_many",
            backend=self.backend_name,
            circuit=self.circuit.name,
            scenarios=len(models),
            distinct=len(distinct),
            batch=chunk,
        ):
            for start in range(0, len(distinct), chunk):
                try:
                    computed.extend(
                        estimate_many(distinct[start : start + chunk], **kwargs)
                    )
                except ZeroBeliefError as err:
                    local = getattr(err, "batch_indices", None)
                    if local:
                        failed = {start + i for i in local}
                        err.batch_indices = tuple(
                            j for j, r in enumerate(scatter) if r in failed
                        )
                        err.args = (
                            "cannot normalize a zero belief for batch "
                            f"elements {list(err.batch_indices)}",
                        ) + err.args[1:]
                    raise
        share = sum(r.propagate_seconds for r in computed) / len(models)
        return [
            replace(
                computed[r],
                distributions=dict(computed[r].distributions),
                propagate_seconds=share,
            )
            for r in scatter
        ]

    @property
    def compile_seconds(self) -> float:
        return getattr(self.estimator, "compile_seconds", 0.0)

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        if isinstance(self.estimator, SegmentedEstimator):
            info["segments"] = self.estimator.num_segments
        return info


class JunctionTreeBackend(Backend):
    """Single Bayesian network compiled to one junction tree (exact)."""

    name = "junction-tree"

    def compile(
        self,
        circuit: Circuit,
        inputs: Optional[InputModel] = None,
        heuristic: str = "min_fill",
        max_clique_states: Optional[int] = 4 ** 10,
        kernel: str = "auto",
    ) -> EstimatorCompiledModel:
        estimator = SwitchingActivityEstimator(
            circuit,
            input_model=inputs,
            heuristic=heuristic,
            max_clique_states=max_clique_states,
            kernel=kernel,
        ).compile()
        return EstimatorCompiledModel(self.name, circuit, estimator)


class SegmentedBackend(Backend):
    """Multiple-BN estimation for circuits beyond one clique budget."""

    name = "segmented"

    def compile(
        self,
        circuit: Circuit,
        inputs: Optional[InputModel] = None,
        max_gates_per_segment: int = 60,
        max_clique_states: int = 4 ** 9,
        heuristic: str = "min_fill",
        lookback: int = 3,
        boundary: str = "tree",
        enum_input_states: int = 4 ** 9,
        segment_backend: str = "auto",
        parallelism: int = 0,
        kernel: str = "auto",
        refine: int = 0,
        refine_tol: float = 1e-5,
        max_iters: "Optional[int]" = None,
    ) -> EstimatorCompiledModel:
        estimator = SegmentedEstimator(
            circuit,
            input_model=inputs,
            max_gates_per_segment=max_gates_per_segment,
            max_clique_states=max_clique_states,
            heuristic=heuristic,
            lookback=lookback,
            boundary=boundary,
            enum_input_states=enum_input_states,
            backend=segment_backend,
            parallelism=parallelism,
            kernel=kernel,
            refine=refine,
            refine_tol=refine_tol,
            max_iters=max_iters,
        ).compile()
        return EstimatorCompiledModel(self.name, circuit, estimator)


class EnumerationBackend(Backend):
    """Exact support enumeration over the whole circuit (the oracle).

    Deterministic gate CPTs make the joint support ``4^inputs`` no
    matter the treewidth; raises
    :class:`~repro.core.enumeration.SegmentTooWide` past the budget.
    """

    name = "enumeration"

    def compile(
        self,
        circuit: Circuit,
        inputs: Optional[InputModel] = None,
        max_input_states: int = 4 ** 9,
    ) -> EstimatorCompiledModel:
        from repro.core.enumeration import EnumerationSegment

        model = inputs if inputs is not None else IndependentInputs(0.5)
        estimator = EnumerationSegment(
            circuit, model, max_input_states=max_input_states
        )
        return EstimatorCompiledModel(self.name, circuit, estimator)


class AutoBackend(Backend):
    """Junction tree when it fits the clique budget, else segmentation.

    Reproduces the selection the experiments have always used: circuits
    up to ``max_gates_per_segment`` gates try a single BN first (which
    also preserves input-correlation models exactly); the budget
    defaults to ``4^10`` and tightens to ``4^9`` past 2000 gates.
    """

    name = "auto"

    def compile(
        self,
        circuit: Circuit,
        inputs: Optional[InputModel] = None,
        max_gates_per_segment: int = 60,
        lookback: int = 3,
        max_clique_states: Optional[int] = None,
        boundary: str = "tree",
        heuristic: str = "min_fill",
        parallelism: int = 0,
        kernel: str = "auto",
        refine: int = 0,
        refine_tol: float = 1e-5,
        max_iters: "Optional[int]" = None,
    ) -> EstimatorCompiledModel:
        if max_clique_states is None:
            max_clique_states = 4 ** 9 if circuit.num_gates > 2000 else 4 ** 10
        if circuit.num_gates <= max_gates_per_segment:
            try:
                return JunctionTreeBackend().compile(
                    circuit,
                    inputs,
                    heuristic=heuristic,
                    max_clique_states=max_clique_states,
                    kernel=kernel,
                )
            except CliqueBudgetExceeded:
                pass
        return SegmentedBackend().compile(
            circuit,
            inputs,
            max_gates_per_segment=max_gates_per_segment,
            max_clique_states=max_clique_states,
            heuristic=heuristic,
            lookback=lookback,
            boundary=boundary,
            parallelism=parallelism,
            kernel=kernel,
            refine=refine,
            refine_tol=refine_tol,
            max_iters=max_iters,
        )


# ----------------------------------------------------------------------
# Baseline adapters
# ----------------------------------------------------------------------


def _pairwise_runner(circuit, model, options):
    from repro.baselines.pairwise import pairwise_switching

    result = pairwise_switching(circuit, model)
    # The pairwise model reports (p, activity) per line; reconstruct the
    # 4-state distribution they pin down: P(x01) = P(x10) = a/2, with
    # the remaining mass split by the signal probability.
    distributions = {}
    for line, activity in result.activities.items():
        p = result.signal_probabilities[line]
        half = activity / 2.0
        distributions[line] = np.clip(
            np.array([1.0 - p - half, half, half, p - half]), 0.0, 1.0
        )
    return distributions


def _local_cone_runner(circuit, model, options):
    from repro.baselines.local import local_cone_switching

    result = local_cone_switching(
        circuit,
        model,
        depth=options.get("depth", 3),
        max_cut_inputs=options.get("max_cut_inputs", 6),
    )
    return result.distributions


def _independence_runner(circuit, model, options):
    from repro.baselines.independent import independence_switching

    return independence_switching(circuit, model).distributions


def _monte_carlo_runner(circuit, model, options):
    from repro.baselines.montecarlo import monte_carlo_switching

    result = monte_carlo_switching(
        circuit,
        model,
        relative_error=options.get("relative_error", 0.01),
        max_pairs=options.get("max_pairs", 500_000),
        rng=np.random.default_rng(options.get("seed", 0)),
    )
    return result.distributions


def _simulation_runner(circuit, model, options):
    from repro.baselines.simulation import simulate_switching

    result = simulate_switching(
        circuit,
        model,
        n_pairs=options.get("n_pairs", 100_000),
        rng=np.random.default_rng(options.get("seed", 0)),
    )
    return result.distributions


class BaselineCompiledModel(CompiledModel):
    """Compile-free artifact: the whole estimator runs per query."""

    def __init__(
        self,
        backend_name: str,
        circuit: Circuit,
        method: Method,
        options: Dict[str, Any],
    ):
        super().__init__(backend_name, circuit)
        self.method = method
        self.options = dict(options)

    def query(self, inputs: Optional[InputModel] = None) -> SwitchingEstimate:
        model = inputs if inputs is not None else IndependentInputs(0.5)
        runner = _BASELINE_RUNNERS[self.backend_name]
        with get_tracer().span(
            "backend.query", backend=self.backend_name, circuit=self.circuit.name
        ):
            start = time.perf_counter()
            distributions = runner(self.circuit, model, self.options)
            elapsed = time.perf_counter() - start
        return SwitchingEstimate(
            distributions={
                line: np.asarray(dist, dtype=np.float64)
                for line, dist in distributions.items()
            },
            compile_seconds=0.0,
            propagate_seconds=elapsed,
            method=self.method.value,
            segments=0,
        )


_BASELINE_RUNNERS: Dict[str, Callable] = {
    "pairwise": _pairwise_runner,
    "local-cone": _local_cone_runner,
    "independence": _independence_runner,
    "monte-carlo": _monte_carlo_runner,
    "simulation": _simulation_runner,
}

_BASELINE_METHODS: Dict[str, Method] = {
    "pairwise": Method.PAIRWISE,
    "local-cone": Method.LOCAL_CONE,
    "independence": Method.INDEPENDENCE,
    "monte-carlo": Method.MONTE_CARLO,
    "simulation": Method.SIMULATION,
}


class BaselineBackend(Backend):
    """Adapter exposing one classical estimator through the facade.

    These backends have no compile state worth caching -- ``compile``
    just freezes the options -- but going through the same interface
    lets comparisons (Table 2) swap methods with one string.
    """

    def __init__(self, name: str):
        if name not in _BASELINE_RUNNERS:
            raise ValueError(f"unknown baseline {name!r}")
        self.name = name

    def compile(
        self,
        circuit: Circuit,
        inputs: Optional[InputModel] = None,
        **options: Any,
    ) -> BaselineCompiledModel:
        return BaselineCompiledModel(
            self.name, circuit, _BASELINE_METHODS[self.name], options
        )
