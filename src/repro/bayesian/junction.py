"""Junction tree construction and Hugin-style message passing.

This is the compilation + propagation machinery of the paper's Section 5:

1. moralize the Bayesian network's DAG,
2. triangulate the moral graph (greedy elimination order),
3. extract maximal cliques and connect them into a junction tree (a
   maximum-weight spanning tree over separator sizes, which for chordal
   graphs guarantees the running intersection property),
4. assign each CPD to a containing clique and form clique potentials,
5. calibrate by two-phase message passing (collect toward a root, then
   distribute), after which every clique potential is the exact joint
   marginal of its scope times the probability of the evidence.

The *compile once, propagate per input-statistics* split the paper
advertises maps to :meth:`JunctionTree.from_network` (steps 1-3, slow)
versus :meth:`JunctionTree.update_cpds` + :meth:`JunctionTree.calibrate`
(steps 4-5, fast).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from repro.bayesian.cpd import TabularCPD
from repro.bayesian.factor import Factor, factor_product, plan_product
from repro.bayesian.moral import moral_graph
from repro.bayesian.network import BayesianNetwork
from repro.bayesian.propagation import (
    PropagationCounters,
    PropagationEngine,
    PropagationSchedule,
)
from repro.bayesian.triangulate import elimination_cliques, triangulate

# CliqueBudgetExceeded's canonical home is the backend layer (its
# import-light ``errors`` module), because that is where the budget
# fallback policy lives; this module is its raising site.
from repro.core.backend.errors import CliqueBudgetExceeded
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer

__all__ = ["CliqueBudgetExceeded", "JunctionTree", "JunctionTreeError"]

#: synthetic variable name for the leading batch axis of stacked
#: per-scenario factors; NUL guarantees no collision with circuit lines.
_BATCH_AXIS = "\x00batch"


class JunctionTreeError(RuntimeError):
    """Raised for structural or calibration failures."""


class JunctionTree:
    """A calibrated junction tree over a Bayesian network.

    Do not call the constructor directly; use :meth:`from_network`.
    """

    def __init__(
        self,
        bn: BayesianNetwork,
        cliques: List[frozenset],
        tree: nx.Graph,
        elimination_order: List[str],
        fill_ins: List[Tuple[str, str]],
        engine: bool = True,
        kernel: str = "auto",
    ):
        if kernel not in ("auto", "dense", "sparse"):
            raise ValueError(f"unknown kernel mode {kernel!r}")
        self._bn = bn
        self.cliques = cliques
        self.tree = tree
        self.elimination_order = elimination_order
        self.fill_ins = fill_ins
        self._cardinalities = {n: bn.cardinality(n) for n in bn.nodes}

        #: index of one clique containing each variable (for marginals)
        self._home_clique: Dict[str, int] = {}
        for idx, clique in enumerate(cliques):
            for var in clique:
                self._home_clique.setdefault(var, idx)

        #: clique index each CPD is assigned to
        self._cpd_assignment: Dict[str, int] = {}
        #: reverse map: clique index -> nodes whose CPD lives there
        self._cpd_members: List[List[str]] = [[] for _ in cliques]
        for node in bn.nodes:
            family = set(bn.parents(node)) | {node}
            for idx, clique in enumerate(cliques):
                if family <= clique:
                    self._cpd_assignment[node] = idx
                    self._cpd_members[idx].append(node)
                    break
            else:
                raise JunctionTreeError(
                    f"no clique contains the family of {node!r}; "
                    "triangulation is inconsistent with the moral graph"
                )

        self._evidence: Dict[str, int] = {}
        self._potentials: List[Factor] = []
        self._separators: Dict[frozenset, Factor] = {}
        self._calibrated = False
        #: cached per-clique product of assigned CPD factors (no
        #: evidence); lets update_cpds re-multiply only touched cliques
        self._cpd_products: Optional[List[Factor]] = None
        #: compiled propagation engine (schedule + preallocated buffers);
        #: built lazily on first calibration when ``engine`` is True.
        #: ``engine=False`` keeps the Factor-based reference path, used
        #: by tests and benchmarks as the slow oracle.
        self._use_engine = engine
        self._engine: Optional[PropagationEngine] = None
        #: message-kernel mode handed to the schedule ("auto" | "dense"
        #: | "sparse"; see :class:`PropagationSchedule`)
        self._kernel = kernel
        #: per-node (variables, 0/1 support) recorded when deterministic
        #: CPD masks feed a compiled schedule; the soundness guard in
        #: update_cpds checks replacement CPDs against these.
        self._mask_supports: Dict[str, Tuple[Tuple[str, ...], np.ndarray]] = {}
        #: nodes whose CPDs once violated their recorded support; they
        #: never contribute masks again (treated as free tables).
        self._mask_exclude: Set[str] = set()
        #: shared immutable message schedule (built on first engine use;
        #: serves both the single-query and the batched engine)
        self._schedule: Optional[PropagationSchedule] = None
        #: batched engine for multi-scenario sweeps (built lazily by
        #: update_cpds_batch; dropped whenever the shared potentials it
        #: snapshot change, and excluded from pickles)
        self._batch_engine: Optional[PropagationEngine] = None
        self._init_potentials()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_network(
        cls,
        bn: BayesianNetwork,
        heuristic: str = "min_fill",
        elimination_order: Optional[Sequence[str]] = None,
        max_clique_states: Optional[int] = None,
        engine: bool = True,
        kernel: str = "auto",
    ) -> "JunctionTree":
        """Compile a Bayesian network into a junction tree.

        Parameters
        ----------
        bn:
            The network; must validate.
        heuristic:
            Elimination-order heuristic (``"min_fill"`` or
            ``"min_degree"``) when ``elimination_order`` is not given.
        elimination_order:
            Explicit elimination order (overrides the heuristic).
        max_clique_states:
            If given, raise :class:`CliqueBudgetExceeded` before
            materializing any table whose clique exceeds this many
            entries.
        engine:
            Use the compiled propagation engine
            (:mod:`repro.bayesian.propagation`).  ``False`` selects the
            Factor-based reference path (slower; kept as an oracle).
        kernel:
            Message-kernel mode for the compiled schedule: ``"auto"``
            (default) packs cliques whose deterministic-CPD support is
            sparse enough to win, ``"dense"`` keeps the PR-1 dense
            reductions everywhere, ``"sparse"`` forces packed kernels
            on every clique with any infeasible entry.
        """
        from repro.bayesian.triangulate import max_clique_state_space

        tracer = get_tracer()
        with tracer.span("compile.junction_tree", network=bn.name):
            bn.validate()
            with tracer.span("compile.moralize"):
                moral = moral_graph(bn)
            cards = {n: bn.cardinality(n) for n in bn.nodes}
            with tracer.span("compile.triangulate", heuristic=heuristic) as sp:
                chordal, order, fills = triangulate(
                    moral,
                    order=elimination_order,
                    heuristic=heuristic,
                    cardinalities=cards,
                )
                sp.annotate(fill_ins=len(fills))
            with tracer.span("compile.cliques") as sp:
                cliques = elimination_cliques(chordal, order)
                worst = max_clique_state_space(cliques, cards)
                sp.annotate(cliques=len(cliques), max_clique_states=worst)
            if max_clique_states is not None and worst > max_clique_states:
                raise CliqueBudgetExceeded(
                    f"{bn.name}: largest clique needs {worst} entries "
                    f"(budget {max_clique_states})"
                )
            # Gauges describe trees that actually get built; rejected
            # triangulations stay visible via the span attributes above.
            registry = get_metrics()
            if registry.enabled:
                total = 0
                histogram = registry.histogram("compile.clique_states")
                for clique in cliques:
                    size = 1
                    for node in clique:
                        size *= cards.get(node, 2)
                    histogram.observe(size)
                    total += size
                registry.counter("compile.fill_ins").inc(len(fills))
                registry.gauge("jt.max_clique_states").set_max(worst)
                registry.gauge("jt.total_states").add(total)
            with tracer.span("compile.spanning_tree"):
                tree = cls._build_tree(cliques)
            with tracer.span("compile.potentials"):
                jt = cls(
                    bn, cliques, tree, order, fills, engine=engine, kernel=kernel
                )
            if engine:
                # Build the message schedule (and its support analysis)
                # eagerly: it is part of the compile-once artifact, so
                # pickled models and compile-cache hits skip both.
                jt._ensure_schedule()
            return jt

    @staticmethod
    def _build_tree(cliques: List[frozenset]) -> nx.Graph:
        """Maximum-weight spanning tree over pairwise separator sizes."""
        candidate = nx.Graph()
        candidate.add_nodes_from(range(len(cliques)))
        for i in range(len(cliques)):
            for j in range(i + 1, len(cliques)):
                weight = len(cliques[i] & cliques[j])
                if weight > 0:
                    candidate.add_edge(i, j, weight=weight)
        tree = nx.Graph()
        tree.add_nodes_from(range(len(cliques)))
        # Maximum spanning forest; empty-separator components stay apart.
        for u, v, data in nx.maximum_spanning_edges(candidate, data=True):
            tree.add_edge(u, v, weight=data["weight"])
        return tree

    def _clique_cpd_product(self, idx: int) -> Factor:
        """Product of the CPD factors assigned to clique ``idx``, over
        the clique's full scope in canonical (sorted) axis order."""
        order = sorted(self.cliques[idx])
        base = Factor.uniform(order, [self._cardinalities[v] for v in order])
        members = [
            self._bn.cpd(node).to_factor() for node in self._cpd_members[idx]
        ]
        return factor_product([base] + members).permute(order)

    def _clique_cpd_product_batch(
        self, idx: int, overrides: Mapping[str, Sequence[TabularCPD]], k: int
    ) -> np.ndarray:
        """Batched clique-``idx`` CPD product, ready for
        :meth:`PropagationEngine.set_potential_batch`.

        For a dense clique this is a ``(K, *clique_shape)`` stack whose
        slice ``k`` is bitwise-identical to what
        :meth:`_clique_cpd_product` would compute with scenario ``k``'s
        CPDs swapped in.  For a clique the schedule packs it is the
        packed ``(K, nnz)`` stack: the same entries at the support
        coordinates ``sp.flat_idx``, built without the dense table.

        Bitwise equality holds because the fold order is planned with a
        *per-scenario* size key (a stacked factor counts as its
        unbatched size), so the batched fold multiplies the same factors
        in the same order as any single scenario's fold, and every
        multiply is elementwise over broadcast views.  The packed fold
        gathers each factor at the support coordinates first and then
        runs the same left fold, so every kept entry is the same chain
        of IEEE multiplies over the same operands.
        """
        order = tuple(sorted(self.cliques[idx]))
        shape = tuple(self._cardinalities[v] for v in order)
        base = Factor.uniform(order, shape)
        factors: List[Factor] = [base]
        for node in self._cpd_members[idx]:
            cpds = overrides.get(node)
            if cpds is None:
                factors.append(self._bn.cpd(node).to_factor())
            else:
                # update_cpds_batch holds every scenario to scenario 0's
                # parents, so all K tables share one axis order.
                first = cpds[0].to_factor()
                stacked = np.stack([c.to_factor().values for c in cpds])
                factors.append(
                    Factor._unsafe((_BATCH_AXIS,) + first.variables, stacked)
                )

        def per_scenario_size(factor: Factor) -> int:
            return factor.size // k if _BATCH_AXIS in factor else factor.size

        keep = plan_product(factors, size_key=per_scenario_size)
        batched = any(_BATCH_AXIS in factor for factor in keep)
        sp = self._ensure_schedule().sparse_cliques.get(idx)
        if sp is not None:
            coords = dict(zip(order, np.unravel_index(sp.flat_idx, shape)))

            def gather(factor: Factor) -> np.ndarray:
                # A stacked factor's batch axis leads; keep it whole.
                index = tuple(
                    slice(None) if v == _BATCH_AXIS else coords[v]
                    for v in factor.variables
                )
                return factor.values[index]

            packed = gather(keep[0])
            for factor in keep[1:]:
                packed = packed * gather(factor)
            if batched:
                return packed
            return np.broadcast_to(packed, (k, sp.nnz))
        result = keep[0]
        for factor in keep[1:]:
            result = result.product(factor)
        if batched:
            return result.permute((_BATCH_AXIS,) + order).values
        # Every scenario's table is identical (all overrides were
        # identities); broadcast the shared table over the batch axis.
        return np.broadcast_to(result.permute(order).values, (k,) + shape)

    def _clique_potential(self, idx: int) -> Factor:
        """Initial potential of clique ``idx``: its CPD product times
        the evidence indicators of variables homed there."""
        potential = self._cpd_products[idx]
        for var, state in self._evidence.items():
            if self._home_clique[var] == idx:
                indicator = Factor.indicator(var, self._cardinalities[var], state)
                potential = potential.product(indicator)
        return potential

    def _init_potentials(self) -> None:
        """(Re)build clique potentials from cached CPD products plus the
        current evidence, and reset all separators."""
        if self._cpd_products is None:
            self._cpd_products = [
                self._clique_cpd_product(idx) for idx in range(len(self.cliques))
            ]
        self._potentials = list(self._cpd_products)
        for var, state in self._evidence.items():
            idx = self._home_clique[var]
            indicator = Factor.indicator(var, self._cardinalities[var], state)
            self._potentials[idx] = self._potentials[idx].product(indicator)
        self._separators = {}
        for u, v in self.tree.edges:
            sep = self.cliques[u] & self.cliques[v]
            self._separators[frozenset((u, v))] = Factor.uniform(
                sorted(sep), [self._cardinalities[x] for x in sorted(sep)]
            )
        self._calibrated = False
        # The batched engine snapshots the shared CPD products; any
        # reset invalidates that snapshot.
        self._batch_engine = None
        if self._engine is not None:
            # Full reset requested (new evidence set, bench reruns, ...):
            # push every potential and mark everything dirty.
            self._engine.mark_all_dirty()
            for idx in range(len(self.cliques)):
                self._engine.set_potential(idx, self._potentials[idx])

    def _mark_cliques_dirty(self, indices: Iterable[int]) -> None:
        """Refresh the engine potentials of the given cliques only.

        This is the dirty-clique fast path: the next calibration
        re-propagates just the messages the changes can reach instead of
        resetting every potential and separator.
        """
        for idx in set(indices):
            potential = self._clique_potential(idx)
            self._potentials[idx] = potential
            self._engine.set_potential(idx, potential)
        self._calibrated = False
        self._batch_engine = None

    # ------------------------------------------------------------------
    # Evidence & CPD updates
    # ------------------------------------------------------------------

    def set_evidence(self, evidence: Mapping[str, int]) -> None:
        """Fix observed states; takes effect at the next calibration."""
        for var, state in evidence.items():
            if var not in self._cardinalities:
                raise KeyError(f"unknown variable {var!r}")
            if not 0 <= state < self._cardinalities[var]:
                raise ValueError(f"state {state} out of range for {var!r}")
        self._evidence.update(evidence)
        if self._engine is not None:
            self._mark_cliques_dirty(
                self._home_clique[var] for var in evidence
            )
        else:
            self._init_potentials()

    def clear_evidence(self) -> None:
        cleared = list(self._evidence)
        self._evidence = {}
        if self._engine is not None:
            self._mark_cliques_dirty(self._home_clique[var] for var in cleared)
        else:
            self._init_potentials()

    def update_cpds(self, cpds: Iterable[TabularCPD]) -> None:
        """Swap in new CPDs (same structure) without recompiling.

        This is the paper's fast re-propagation path: changing the input
        statistics of a compiled circuit only replaces root CPDs, then
        recalibrates.
        """
        cpds = list(cpds)
        for cpd in cpds:
            if cpd.variable not in self._cpd_assignment:
                raise KeyError(f"unknown node {cpd.variable!r}")
            old = self._bn.cpd(cpd.variable)
            if tuple(cpd.parents) != tuple(old.parents):
                raise ValueError(
                    f"new CPD for {cpd.variable!r} changes parents "
                    f"{old.parents} -> {cpd.parents}; recompile instead"
                )
            if cpd.cardinality != old.cardinality:
                raise ValueError(f"new CPD for {cpd.variable!r} changes cardinality")
            self._bn._cpds[cpd.variable] = cpd
        # Re-multiply only the cliques whose assigned CPDs changed.
        affected = {self._cpd_assignment[c.variable] for c in cpds}
        if self._cpd_products is not None:
            for idx in affected:
                self._cpd_products[idx] = self._clique_cpd_product(idx)
        if self._mask_supports and self._supports_violated(cpds):
            # A replacement CPD put mass outside the support its old
            # deterministic table promised (e.g. a gate CPD swapped for
            # a noisy one).  The packed kernels compiled against the old
            # masks would silently drop that mass, so drop the compiled
            # state; the next calibration re-analyzes without the
            # offending node's mask.
            self._invalidate_compiled()
        elif self._engine is not None and self._cpd_products is not None:
            self._mark_cliques_dirty(affected)
        else:
            self._init_potentials()

    def update_cpds_chain(self, cpds: Iterable[TabularCPD]) -> None:
        """Warm-start chain step: swap in only the *changed* CPDs.

        Delta sweeps call this between consecutive scenarios.  The CPD
        products of the affected cliques are patched incrementally --
        that is the expensive part of a scenario swap -- but the next
        :meth:`calibrate` propagates from reset initial potentials
        rather than the previous scenario's calibrated beliefs.  The
        dirty-path fast path updates clean cliques by separator-ratio
        multiplies, whose rounding differs (by ~1 ULP) from a fresh
        pass; restarting from the (bitwise-identical) initial products
        keeps every chain result bitwise-equal to an independent
        propagation, which is the contract delta sweeps promise.  The
        chain counters live on the engine
        (:class:`~repro.bayesian.propagation.PropagationCounters`).
        """
        cpds = list(cpds)
        engine = self._engine
        self.update_cpds(cpds)
        if self._cpd_products is not None:
            # update_cpds only marked the affected cliques dirty; force
            # the full reset that restores bitwise parity with a fresh
            # propagation over the patched products.
            self._init_potentials()
        if engine is not None:
            engine.counters.chain_steps += 1
            engine.counters.chain_potentials_updated += len(cpds)

    # ------------------------------------------------------------------
    # Batched multi-scenario propagation
    # ------------------------------------------------------------------

    def update_cpds_batch(
        self, cpd_sets: Sequence[Iterable[TabularCPD]], dtype: str = "float64"
    ) -> int:
        """Install K scenarios' CPDs for one batched propagation pass.

        ``cpd_sets[k]`` plays the role of :meth:`update_cpds`'s argument
        for scenario ``k``; every scenario must update the same
        variables (with unchanged parents and cardinality).  Unlike
        :meth:`update_cpds` this mutates neither the underlying network
        nor the single-query engine: scenarios live only in a lazily
        built batched engine, whose dirty tracking is shared across the
        batch (only the updated cliques' potentials differ per
        scenario).  Returns K.  Query results with
        :meth:`marginals_batch` / :meth:`joint_marginal_batch`.

        ``dtype="float32"`` builds the batched engine with float32
        buffers: half the ``K x`` memory and faster memory-bound sweeps,
        at a ~``1e-6`` relative tolerance versus float64 (see
        :class:`~repro.bayesian.propagation.PropagationEngine`).
        """
        sets = [list(s) for s in cpd_sets]
        if not sets:
            raise ValueError("need at least one CPD set")
        if not self._use_engine:
            raise JunctionTreeError(
                "batched propagation requires the compiled engine"
            )
        if self._evidence:
            raise JunctionTreeError(
                "batched propagation does not support evidence"
            )
        k = len(sets)
        variables = [cpd.variable for cpd in sets[0]]
        by_var: Dict[str, List[TabularCPD]] = {v: [] for v in variables}
        # Deep-validate scenario 0 against the network, then hold the
        # other K-1 scenarios to scenario 0's structure (cheap tuple and
        # shape compares instead of K network lookups per variable).
        for cpd in sets[0]:
            if cpd.variable not in self._cpd_assignment:
                raise KeyError(f"unknown node {cpd.variable!r}")
            old = self._bn.cpd(cpd.variable)
            if tuple(cpd.parents) != tuple(old.parents):
                raise ValueError(
                    f"new CPD for {cpd.variable!r} changes parents "
                    f"{old.parents} -> {cpd.parents}; recompile instead"
                )
            if cpd.cardinality != old.cardinality:
                raise ValueError(
                    f"new CPD for {cpd.variable!r} changes cardinality"
                )
            by_var[cpd.variable].append(cpd)
        for cpds in sets[1:]:
            if [cpd.variable for cpd in cpds] != variables:
                raise ValueError(
                    "every scenario must update the same variables in the "
                    "same order"
                )
            for cpd, ref in zip(cpds, sets[0]):
                if cpd.parents != ref.parents:
                    raise ValueError(
                        f"new CPD for {cpd.variable!r} changes parents "
                        f"{ref.parents} -> {cpd.parents}; recompile instead"
                    )
                if cpd.factor.values.shape != ref.factor.values.shape:
                    raise ValueError(
                        f"new CPD for {cpd.variable!r} changes cardinality"
                    )
                by_var[cpd.variable].append(cpd)

        if self._mask_supports and self._supports_violated(
            [cpd for cpds_for_var in by_var.values() for cpd in cpds_for_var]
        ):
            self._invalidate_compiled()

        schedule = self._ensure_schedule()
        if (
            self._batch_engine is None
            or self._batch_engine.batch_size != k
            or self._batch_engine.dtype != np.dtype(dtype)
        ):
            engine = PropagationEngine(schedule, batch_size=k, dtype=dtype)
            for idx in range(len(self.cliques)):
                # Gate-clique tables are identical across scenarios and
                # broadcast over the batch axis.
                engine.set_potential(idx, self._cpd_products[idx])
            self._batch_engine = engine
        affected = {self._cpd_assignment[v] for v in variables}
        for idx in sorted(affected):
            overrides = {
                node: by_var[node]
                for node in self._cpd_members[idx]
                if node in by_var
            }
            stacked = self._clique_cpd_product_batch(idx, overrides, k)
            self._batch_engine.set_potential_batch(idx, stacked)
        return k

    def marginals_batch(
        self, variables: Sequence[str], skip_zero: bool = False
    ) -> Dict[str, np.ndarray]:
        """Posterior marginals of the installed scenario batch.

        Returns ``{var: (K, card) array}``; row ``k`` is scenario
        ``k``'s marginal, bitwise-identical to what K independent
        single-query propagations would produce (see
        :mod:`repro.bayesian.propagation`).  Requires a prior
        :meth:`update_cpds_batch`.  ``skip_zero=True`` NaN-fills rows of
        zero-mass scenarios instead of raising, isolating them from
        their batch-mates.
        """
        engine = self._require_batch_engine()
        engine.propagate()
        return engine.marginals(variables, skip_zero=skip_zero)

    def joint_marginal_batch(self, variables: Sequence[str]) -> np.ndarray:
        """Batched joint posterior of variables sharing a clique: a
        ``(K, card_1, ..., card_m)`` array in the order of
        ``variables``.  See :meth:`joint_marginal`."""
        engine = self._require_batch_engine()
        engine.propagate()
        wanted = set(variables)
        for idx, clique in enumerate(self.cliques):
            if wanted <= clique:
                return engine.joint_marginal(idx, list(variables))
        raise JunctionTreeError(f"no clique jointly contains {sorted(wanted)}")

    def _require_batch_engine(self) -> PropagationEngine:
        if self._batch_engine is None:
            raise JunctionTreeError(
                "no scenario batch installed; call update_cpds_batch first"
            )
        return self._batch_engine

    def _ensure_schedule(self) -> PropagationSchedule:
        """Build (once) the immutable message schedule shared by the
        single-query and batched engines.  Non-dense kernel modes run
        the support analysis here, so it is paid once per compile and
        serializes with the tree (cache hits skip it entirely)."""
        if self._schedule is None:
            with get_tracer().span(
                "compile.schedule",
                cliques=len(self.cliques),
                kernel=self._kernel,
            ):
                masks = (
                    self._deterministic_masks()
                    if self._kernel != "dense"
                    else None
                )
                self._schedule = PropagationSchedule(
                    self.cliques,
                    self.tree.edges,
                    self._cardinalities,
                    clique_masks=masks,
                    kernel=self._kernel,
                )
            self._publish_support_gauges()
        return self._schedule

    def _deterministic_masks(self) -> List[Optional[np.ndarray]]:
        """Per-clique 0/1 feasibility masks from deterministic gate CPDs.

        Each non-root deterministic CPD (a 0/1 indicator table) ANDs its
        support into the clique it is assigned to; every other CPD --
        including root/input priors, whose tables *change* between
        queries and may only look deterministic at p in {0, 1} --
        contributes nothing, keeping the masks sound under every input
        model.  Records each contributing node's support so
        :meth:`update_cpds` can detect replacements that break it.
        """
        masks: List[Optional[np.ndarray]] = [None] * len(self.cliques)
        self._mask_supports = {}
        for node, idx in self._cpd_assignment.items():
            if node in self._mask_exclude:
                continue
            cpd = self._bn.cpd(node)
            if not cpd.parents or not cpd.is_deterministic():
                continue
            factor = cpd.to_factor()
            support = factor.values != 0
            self._mask_supports[node] = (factor.variables, support)
            order = tuple(sorted(self.cliques[idx]))
            position = {v: i for i, v in enumerate(order)}
            axes = np.array([position[v] for v in factor.variables])
            # Permute the support's axes into clique-canonical order,
            # then pad singleton axes for the clique variables the CPD
            # does not mention so it broadcasts against the clique table.
            arranged = support.transpose(np.argsort(axes))
            shape = [1] * len(order)
            for pos, size in zip(np.sort(axes), arranged.shape):
                shape[pos] = size
            expanded = arranged.reshape(shape)
            masks[idx] = expanded if masks[idx] is None else masks[idx] & expanded
        for idx, mask in enumerate(masks):
            if mask is not None:
                shape = tuple(
                    self._cardinalities[v] for v in sorted(self.cliques[idx])
                )
                masks[idx] = np.ascontiguousarray(np.broadcast_to(mask, shape))
        return masks

    def _supports_violated(self, cpds: Iterable[TabularCPD]) -> bool:
        """Check replacement CPDs against their recorded mask supports.

        Violating nodes are added to ``_mask_exclude`` so a rebuilt
        schedule never trusts them again.  Returns True if any new CPD
        has mass outside its recorded support.
        """
        violated = False
        for cpd in cpds:
            recorded = self._mask_supports.get(cpd.variable)
            if recorded is None:
                continue
            variables, support = recorded
            values = cpd.to_factor().permute(variables).values
            if ((values != 0) & ~support).any():
                self._mask_exclude.add(cpd.variable)
                violated = True
        return violated

    def _invalidate_compiled(self) -> None:
        """Drop the compiled schedule and engines (support masks went
        stale) and restore initial potentials for a fresh calibration.

        The potential rebuild is load-bearing: after a calibration
        ``self._potentials`` are belief *views* over the dropped
        engine's buffers, and seeding a new engine with beliefs instead
        of initial potentials would square the evidence.
        """
        self._schedule = None
        self._engine = None
        self._batch_engine = None
        self._mask_supports = {}
        self._init_potentials()

    def _publish_support_gauges(self) -> None:
        """Export the schedule's support analysis to the metrics registry."""
        registry = get_metrics()
        if not registry.enabled:
            return
        schedule = self._schedule
        total = sum(schedule.sizes)
        feasible = sum(schedule.support_nnz)
        registry.gauge("jt.feasible_states").add(feasible)
        registry.gauge("jt.support_density").set_max(
            feasible / total if total else 1.0
        )
        registry.gauge("jt.sparse_cliques").add(int(sum(schedule.sparse)))

    def support_stats(self) -> Dict[str, object]:
        """Support-analysis summary: kernel mode, feasible states, density.

        Builds the schedule on first call (engine mode only; the
        Factor-based reference path reports dense full support).
        """
        if not self._use_engine:
            total = sum(
                int(np.prod([self._cardinalities[v] for v in c]))
                for c in self.cliques
            )
            return {
                "kernel": "dense",
                "cliques": len(self.cliques),
                "sparse_cliques": 0,
                "total_states": total,
                "feasible_states": total,
                "support_density": 1.0,
            }
        schedule = self._ensure_schedule()
        total = sum(schedule.sizes)
        feasible = sum(schedule.support_nnz)
        return {
            "kernel": schedule.kernel,
            "cliques": schedule.n_cliques,
            "sparse_cliques": int(sum(schedule.sparse)),
            "total_states": int(total),
            "feasible_states": int(feasible),
            "support_density": feasible / total if total else 1.0,
        }

    def __getstate__(self):
        # The batched engine is a per-sweep cache keyed by batch size;
        # rebuilding it is cheap and keeps artifacts K-independent.
        state = dict(self.__dict__)
        state["_batch_engine"] = None
        return state

    # ------------------------------------------------------------------
    # Calibration (two-phase message passing)
    # ------------------------------------------------------------------

    def calibrate(self) -> None:
        """Run collect + distribute over every tree component.

        With the compiled engine (the default) this propagates over the
        precomputed schedule, re-running only messages reachable from
        dirty cliques; a calibrated tree with no pending changes is a
        no-op.  With ``engine=False`` it runs the Factor-based reference
        message passes.
        """
        if self._use_engine:
            self._calibrate_engine()
            return
        seen: Set[int] = set()
        for root in self.tree.nodes:
            if root in seen:
                continue
            component_order = self._dfs_order(root)
            seen.update(node for node, _ in component_order)
            # Collect: leaves toward root (reverse DFS order).
            for node, parent in reversed(component_order):
                if parent is not None:
                    self._pass_message(node, parent)
            # Distribute: root toward leaves.
            for node, parent in component_order:
                if parent is not None:
                    self._pass_message(parent, node)
        self._calibrated = True

    def _calibrate_engine(self) -> None:
        """Propagate via the compiled schedule (built on first use)."""
        if self._engine is None:
            schedule = self._ensure_schedule()
            self._engine = PropagationEngine(schedule)
            for idx in range(len(self.cliques)):
                self._engine.set_potential(idx, self._potentials[idx])
            registry = get_metrics()
            if registry.enabled:
                registry.gauge("engine.factor_bytes.peak").set_max(
                    self._engine.factor_bytes
                )
        self._engine.propagate()
        # Beliefs are views over the engine's preallocated buffers; the
        # Factor wrappers are stable across propagations.
        self._potentials = self._engine.belief_factors()
        self._separators = {
            frozenset((u, v)): self._engine.separator_factor(u, v)
            for u, v in self.tree.edges
        }
        self._calibrated = True

    def _dfs_order(self, root: int) -> List[Tuple[int, Optional[int]]]:
        """(node, parent) pairs in DFS pre-order from ``root``."""
        order: List[Tuple[int, Optional[int]]] = []
        stack: List[Tuple[int, Optional[int]]] = [(root, None)]
        visited: Set[int] = set()
        while stack:
            node, parent = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            order.append((node, parent))
            for neighbor in self.tree.neighbors(node):
                if neighbor not in visited:
                    stack.append((neighbor, node))
        return order

    def _pass_message(self, source: int, target: int) -> None:
        """Hugin update: absorb ``source``'s separator marginal into ``target``."""
        key = frozenset((source, target))
        separator_vars = self._separators[key].variables
        new_sep = self._potentials[source].marginal_onto(separator_vars)
        ratio = new_sep.divide(self._separators[key])
        self._potentials[target] = self._potentials[target].product(ratio)
        self._separators[key] = new_sep

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _require_calibration(self) -> None:
        if not self._calibrated:
            self.calibrate()

    def marginal(self, variable: str) -> np.ndarray:
        """Posterior marginal ``P(variable | evidence)`` as a vector."""
        self._require_calibration()
        if self._engine is not None:
            return self._engine.marginals([variable])[variable]
        idx = self._home_clique.get(variable)
        if idx is None:
            raise KeyError(f"unknown variable {variable!r}")
        factor = self._potentials[idx].marginal_onto([variable])
        return factor.normalize().values

    def marginals(self, variables: Sequence[str]) -> Dict[str, np.ndarray]:
        """Posterior marginals of many variables in one batched sweep.

        Variables sharing a home clique are extracted together: the
        clique belief is normalized once and swept with one einsum per
        variable, instead of one ``marginal_onto`` + ``normalize`` pair
        per variable.  Equivalent to ``{v: jt.marginal(v) for v in
        variables}`` but substantially faster for full-circuit reads.
        """
        self._require_calibration()
        if self._engine is not None:
            return self._engine.marginals(variables)
        return {v: self.marginal(v) for v in variables}

    def joint_marginal(self, variables: Sequence[str]) -> Factor:
        """Joint posterior of variables that share a clique.

        Raises :class:`JunctionTreeError` if no clique contains all of
        them (an arbitrary joint would require out-of-clique inference;
        use :func:`repro.bayesian.elimination.variable_elimination`).
        """
        self._require_calibration()
        wanted = set(variables)
        for idx, clique in enumerate(self.cliques):
            if wanted <= clique:
                factor = self._potentials[idx].marginal_onto(list(wanted))
                return factor.normalize().permute(list(variables))
        raise JunctionTreeError(f"no clique jointly contains {sorted(wanted)}")

    def probability_of_evidence(self) -> float:
        """P(evidence); 1.0 when no evidence is set.

        With multiple tree components the per-component masses multiply.
        """
        self._require_calibration()
        seen: Set[int] = set()
        prob = 1.0
        for root in self.tree.nodes:
            if root in seen:
                continue
            seen.update(node for node, _ in self._dfs_order(root))
            prob *= self._potentials[root].total()
        return float(prob)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def check_running_intersection(self) -> bool:
        """Verify the junction-tree property.

        For every variable, the cliques containing it must induce a
        connected subtree.
        """
        for variable in self._cardinalities:
            containing = [i for i, c in enumerate(self.cliques) if variable in c]
            if len(containing) <= 1:
                continue
            sub = self.tree.subgraph(containing)
            if not nx.is_connected(sub):
                return False
        return True

    def check_calibration(self, atol: float = 1e-9) -> bool:
        """Verify neighbouring cliques agree on their separators."""
        self._require_calibration()
        for u, v in self.tree.edges:
            sep_vars = self._separators[frozenset((u, v))].variables
            mu = self._potentials[u].marginal_onto(sep_vars)
            mv = self._potentials[v].marginal_onto(sep_vars)
            if not mu.allclose(mv, atol=atol):
                return False
        return True

    def propagation_counters(self) -> PropagationCounters:
        """Cumulative engine work counters (zeros before first calibration
        or on the ``engine=False`` reference path).

        With only one engine alive (the common case) this returns the
        live counters object; with both a single-query and a batched
        engine it returns a combined snapshot.
        """
        if self._batch_engine is None:
            if self._engine is not None:
                return self._engine.counters
            return PropagationCounters()
        if self._engine is None:
            return self._batch_engine.counters
        combined = PropagationCounters()
        combined.add(self._engine.counters)
        combined.add(self._batch_engine.counters)
        return combined

    def engine_factor_bytes(self) -> int:
        """Bytes held by the engines' preallocated belief/message/scratch
        buffers (0 before first calibration or with ``engine=False``).
        A batched engine contributes ``K x`` the single-query footprint."""
        total = self._engine.factor_bytes if self._engine is not None else 0
        if self._batch_engine is not None:
            total += self._batch_engine.factor_bytes
        return total

    def max_clique_size(self) -> int:
        """State-space size of the largest clique table."""
        return max(p.size for p in self._potentials) if self._potentials else 0

    def stats(self) -> Dict[str, float]:
        """Structure statistics for reports."""
        return {
            "cliques": len(self.cliques),
            "max_clique_vars": max((len(c) for c in self.cliques), default=0),
            "max_clique_states": self.max_clique_size(),
            "fill_ins": len(self.fill_ins),
            "total_table_entries": sum(p.size for p in self._potentials),
        }

    def __repr__(self) -> str:
        return (
            f"JunctionTree(cliques={len(self.cliques)}, "
            f"max_clique={max((len(c) for c in self.cliques), default=0)})"
        )
