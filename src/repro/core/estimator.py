"""The user-facing switching-activity estimator.

:class:`SwitchingActivityEstimator` implements the paper's flow on a
single Bayesian network:

- ``compile()`` -- build the LIDAG, moralize, triangulate, and build the
  junction tree (slow, once per circuit),
- ``estimate()`` -- calibrate by message passing and read off every
  line's 4-state marginal (fast); a one-scenario ``estimate_many``,
- ``update_inputs()`` -- swap input statistics without recompiling
  (the paper's advantage #3: "repeated computation of switching activity
  of the circuit with different input statistics does not require much
  time").

:func:`exact_switching_by_enumeration` is the brute-force oracle used
to prove exactness on small circuits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.bayesian.junction import JunctionTree
from repro.bayesian.propagation import PropagationCounters
from repro.circuits.netlist import Circuit
from repro.core.backend.base import Method
from repro.core.cpt import output_transition
from repro.core.inputs import IndependentInputs, InputModel
from repro.core.lidag import build_lidag
from repro.core.states import N_STATES, switching_probability
from repro.obs.trace import get_tracer


@dataclass
class SwitchingEstimate:
    """Per-line switching estimates plus timing breakdown."""

    #: 4-state transition distribution per line name.
    distributions: Dict[str, np.ndarray]
    #: seconds spent building LIDAG + junction tree (the compile phase)
    compile_seconds: float
    #: seconds spent calibrating + reading marginals (the update phase)
    propagate_seconds: float
    #: one of the :class:`repro.core.backend.Method` values
    method: str = Method.SINGLE_BN.value
    #: number of Bayesian networks used
    segments: int = 1
    #: degradation steps the facade took to produce this estimate, as
    #: ``(failed backend, reason)`` pairs; empty when the first backend
    #: in the chain succeeded.
    fallbacks: Tuple[Tuple[str, str], ...] = ()
    #: how the facade obtained the compiled model: ``True`` (cache hit),
    #: ``False`` (miss), or ``None`` (no cache consulted / direct use)
    cache_hit: Optional[bool] = None
    #: boundary-refinement iterations actually run (segmented backend
    #: with ``refine > 0``; 0 everywhere else)
    refine_iterations: int = 0
    #: max boundary-belief delta at the last refinement iteration
    refine_delta: float = 0.0

    def switching(self, line: str) -> float:
        """Switching activity of one line: P(x01) + P(x10)."""
        return switching_probability(self.distributions[line])

    @property
    def activities(self) -> Dict[str, float]:
        """Switching activity of every line."""
        return {ln: self.switching(ln) for ln in self.distributions}

    def mean_activity(self) -> float:
        """Average switching activity over all lines."""
        acts = self.activities
        return float(np.mean(list(acts.values()))) if acts else 0.0

    @property
    def total_seconds(self) -> float:
        return self.compile_seconds + self.propagate_seconds


class SwitchingActivityEstimator:
    """Single-BN switching-activity estimation for a combinational circuit.

    Parameters
    ----------
    circuit:
        The circuit to analyse.
    input_model:
        Primary-input statistics (default: independent fair coins).
    heuristic:
        Triangulation heuristic, ``"min_fill"`` (default) or
        ``"min_degree"``.
    max_clique_states:
        Budget on the largest clique table.  Exceeding it raises
        :class:`CliqueBudgetExceeded` so callers can segment instead of
        thrashing memory.  ``None`` disables the check.
    kernel:
        Message-kernel mode, ``"auto"`` (default), ``"dense"`` or
        ``"sparse"`` -- see :meth:`JunctionTree.from_network`.
    """

    def __init__(
        self,
        circuit: Circuit,
        input_model: Optional[InputModel] = None,
        heuristic: str = "min_fill",
        max_clique_states: Optional[int] = 4 ** 10,
        kernel: str = "auto",
    ):
        self.circuit = circuit
        self.input_model = input_model if input_model is not None else IndependentInputs(0.5)
        self.heuristic = heuristic
        self.max_clique_states = max_clique_states
        self.kernel = kernel
        self._bn = None
        self._jt: Optional[JunctionTree] = None
        self.compile_seconds = 0.0

    # ------------------------------------------------------------------

    def compile(self) -> "SwitchingActivityEstimator":
        """Build the LIDAG and its junction tree (idempotent)."""
        if self._jt is not None:
            return self
        with get_tracer().span(
            "estimator.compile",
            circuit=self.circuit.name,
            backend="junction-tree",
        ) as span:
            self._bn = build_lidag(self.circuit, self.input_model)
            self._jt = JunctionTree.from_network(
                self._bn,
                heuristic=self.heuristic,
                max_clique_states=self.max_clique_states,
                kernel=self.kernel,
            )
        self.compile_seconds = span.duration
        return self

    @property
    def junction_tree(self) -> JunctionTree:
        """The compiled junction tree (compiles on first access)."""
        self.compile()
        return self._jt

    def update_inputs(self, input_model: InputModel) -> None:
        """Swap input statistics without recompiling.

        Requires the new model to induce the same input-to-input edge
        structure (e.g. independent -> temporal is fine; adding new
        correlation groups needs a recompile).  The model's input CPDs
        replace the network's; nothing is multiplied or propagated here
        -- the next :meth:`estimate` installs them and re-propagates
        only the cliques they reach.
        """
        self.compile()
        self._jt.update_cpds(input_model.input_cpds_trusted(self.circuit.inputs))
        self.input_model = input_model

    # ------------------------------------------------------------------

    def estimate(self) -> SwitchingEstimate:
        """Calibrate and return every line's transition distribution:
        row 0 of a one-scenario :meth:`estimate_many`."""
        return self.estimate_many([self.input_model])[0]

    def estimate_many(
        self, input_models, dtype: str = "float64"
    ) -> "list[SwitchingEstimate]":
        """Estimate K input-statistics scenarios in one batched pass.

        All scenarios propagate through the compiled junction tree
        together: the engine stacks a leading batch axis onto every
        belief and message buffer and runs a single vectorized
        collect/distribute sweep, so the per-query Python overhead
        (schedule walking, kernel dispatch, marginal extraction) is paid
        once instead of K times.  Result ``k`` is bitwise-identical to a
        one-scenario ``estimate_many`` of scenario ``k``'s model.

        Every model must induce the same input-to-input edge structure
        as the compiled one (same rule as :meth:`update_inputs`).  This
        does not touch ``self.input_model``.  ``propagate_seconds`` on
        each result is the amortized per-scenario share of the sweep.
        """
        models = list(input_models)
        if not models:
            return []
        lines = list(self.circuit.lines)
        batched, per_scenario = self.estimate_many_stacked(models, lines, dtype=dtype)
        return [
            SwitchingEstimate(
                distributions={line: batched[line][k] for line in lines},
                compile_seconds=self.compile_seconds,
                propagate_seconds=per_scenario,
                method=Method.SINGLE_BN.value,
            )
            for k in range(len(models))
        ]

    def estimate_many_stacked(self, input_models, lines, dtype: str = "float64"):
        """Batched sweep returning stacked ``{line: (K, 4)}`` marginals.

        The workhorse behind :meth:`estimate_many` and the segmented
        pipeline: restricting ``lines`` (e.g. to a segment's owned
        internal lines) skips marginal extraction for everything else,
        and the stacked layout avoids building K per-scenario dicts
        that a segmented caller would immediately re-stack.  Returns
        ``(stacks, per_scenario_seconds)``.  ``dtype="float32"`` runs
        the batched engine in float32 (~1e-6 relative tolerance, half
        the ``K x`` memory).
        """
        models = list(input_models)
        self.compile()
        tracer = get_tracer()
        with tracer.span(
            "estimator.propagate",
            circuit=self.circuit.name,
            backend="junction-tree",
            scenarios=len(models),
        ) as span:
            with tracer.span("propagate.update_batch"):
                cpd_sets = [
                    m.input_cpds_trusted(self.circuit.inputs) for m in models
                ]
                self._jt.update_cpds_batch(cpd_sets, dtype=dtype)
            with tracer.span("propagate.calibrate", scenarios=len(models)):
                batched = self._jt.marginals_batch(list(lines))
        return batched, span.duration / len(models)

    def reset_propagation(self) -> None:
        """Mark every clique dirty so the next estimate is a full pass.

        Benchmarks and oracles use this to force complete propagations
        (a full pass is a pure function of the potentials, so two full
        passes over equal inputs agree bitwise); ``repro.serve`` resets
        checked-out replicas before every batch for the same reason --
        responses must not depend on what the replica served before: a
        reused engine's cached clean-subtree messages would otherwise
        make the next pass a dirty-path pass.
        """
        if self._jt is not None:
            self._jt.reset_propagation()

    def propagation_counters(self) -> PropagationCounters:
        """Cumulative engine work counters for this estimator's tree."""
        if self._jt is None:
            return PropagationCounters()
        return self._jt.propagation_counters()

    def factor_bytes(self) -> int:
        """Bytes of preallocated propagation buffers (memory accounting)."""
        return self._jt.engine_factor_bytes() if self._jt is not None else 0

    def support_stats(self) -> Dict[str, object]:
        """Support-analysis summary of the compiled tree (compiles)."""
        self.compile()
        return self._jt.support_stats()

    def line_distribution(self, line: str) -> np.ndarray:
        """Convenience: one line's 4-state marginal."""
        stacks, _ = self.estimate_many_stacked([self.input_model], [line])
        return stacks[line][0]

    def conditional_distribution(
        self, line: str, evidence: Mapping[str, int]
    ) -> np.ndarray:
        """Posterior transition distribution given observed transitions.

        The Bayesian network answers *diagnostic* queries the classic
        propagation methods cannot: e.g. the switching of an internal
        line given that a primary output was observed to rise
        (``evidence={"out": TransitionState.X01}``).  The evidence is
        local to this call: it joins one K=1 install of the current
        input model.
        """
        self.compile()
        self._jt.set_evidence({k: int(v) for k, v in evidence.items()})
        try:
            return self.line_distribution(line)
        finally:
            self._jt.clear_evidence()

    def conditional_switching(self, line: str, evidence: Mapping[str, int]) -> float:
        """Switching activity of ``line`` given observed transitions."""
        return switching_probability(self.conditional_distribution(line, evidence))


def exact_switching_by_enumeration(
    circuit: Circuit, input_model: Optional[InputModel] = None
) -> Dict[str, np.ndarray]:
    """Exact per-line transition distributions by joint enumeration.

    Enumerates all ``4^n`` joint input transition assignments, weights
    each by the input model's joint probability, and functionally
    propagates transitions through the circuit.  Exponential in the
    input count -- this is the ground-truth oracle for small circuits.
    """
    model = input_model if input_model is not None else IndependentInputs(0.5)
    inputs = circuit.inputs
    n = len(inputs)
    if n > 12:
        raise ValueError(f"enumeration over 4^{n} input states is infeasible")

    # Joint input distribution from the model's CPDs (handles correlated
    # groups transparently).
    from repro.bayesian.network import BayesianNetwork

    input_bn = BayesianNetwork("inputs")
    for cpd in model.input_cpds(inputs):
        input_bn.add_cpd(cpd)
    joint = input_bn.joint_factor().permute(inputs)

    distributions = {
        line: np.zeros(N_STATES) for line in circuit.lines
    }
    order = circuit.topological_order()
    for assignment in itertools.product(range(N_STATES), repeat=n):
        weight = float(joint.values[assignment])
        if weight == 0.0:
            continue
        states: Dict[str, int] = dict(zip(inputs, assignment))
        for line in order:
            gate = circuit.driver(line)
            if gate is not None:
                states[line] = int(
                    output_transition(
                        gate.gate_type, [states[s] for s in gate.inputs]
                    )
                )
        for line, state in states.items():
            distributions[line][state] += weight
    return distributions
