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
versus :meth:`JunctionTree.update_cpds_batch` +
:meth:`JunctionTree.marginals_batch` (steps 4-5, fast).  Every query on
the compiled engine is a batch: a single query is a K=1 install of the
network's current CPDs (:meth:`JunctionTree.calibrate`).
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
        #: cached per-clique product of assigned CPD factors (no
        #: evidence); ``None`` marks a product update_cpds invalidated,
        #: rebuilt only when a shared install or the Factor path needs it
        self._cpd_products: List[Optional[Factor]] = [
            self._clique_cpd_product(idx) for idx in range(len(cliques))
        ]
        #: ``engine=False`` keeps the Factor-based reference path, used
        #: by tests and benchmarks as the slow oracle; its potentials
        #: and separators live here.
        self._use_engine = engine
        self._potentials: List[Factor] = []
        self._separators: Dict[frozenset, Factor] = {}
        self._calibrated = False
        #: the compiled propagation engine (schedule + preallocated
        #: buffers), built by the first CPD install and rebuilt whenever
        #: the batch size or dtype changes
        self._engine: Optional[PropagationEngine] = None
        #: cliques whose shared potential (CPD product times evidence)
        #: changed since the engine installed it
        self._stale: Set[int] = set()
        #: cliques holding per-scenario stacks from the last install
        self._stacked: Set[int] = set()
        #: fold order of each clique's batched potential, keyed by the
        #: clique's install structure (see _clique_cpd_product_batch)
        self._fold_plans: Dict[tuple, list] = {}
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
        #: shared immutable message schedule (built on first engine use)
        self._schedule: Optional[PropagationSchedule] = None
        if not engine:
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
        """Batched clique-``idx`` potential, ready for
        :meth:`PropagationEngine.set_potential_batch`.

        The product of the clique's CPD factors -- with scenario ``k``'s
        ``overrides`` swapped in -- times the indicators of any evidence
        homed at the clique.  For a dense clique this is a
        ``(K, *clique_shape)`` stack; for a clique the schedule packs it
        is the packed ``(K, nnz)`` stack: the same entries at the support
        coordinates ``sp.flat_idx``, built without the dense table.

        Rows agree bitwise across ``K`` because the fold order is
        planned with a *per-scenario* size key (a stacked factor counts
        as its unbatched size), so every scenario's row multiplies the
        same factors in the same order, and every multiply is
        elementwise over broadcast views.  The packed fold gathers each
        factor at the support coordinates first and then runs the same
        left fold, so every kept entry is the same chain of IEEE
        multiplies over the same operands.
        """
        order = tuple(sorted(self.cliques[idx]))
        shape = tuple(self._cardinalities[v] for v in order)

        def factor_at(slot) -> Factor:
            if slot is None:  # all-ones base over the clique's scope
                return Factor.uniform(order, shape)
            if isinstance(slot, tuple):  # evidence indicator
                var = slot[0]
                return Factor.indicator(
                    var, self._cardinalities[var], self._evidence[var]
                )
            cpds = overrides.get(slot)
            if cpds is None:
                return self._bn.cpd(slot).to_factor()
            # update_cpds_batch holds every scenario to scenario 0's
            # parents, so all K tables share one axis order.
            stacked = np.array([cpd.to_factor().values for cpd in cpds])
            return Factor._unsafe(
                (_BATCH_AXIS,) + cpds[0].to_factor().variables, stacked
            )

        # Which factors the fold keeps, and in what order, depends only
        # on the clique's structure: sizes are fixed by the compile, and
        # a CPD is all-ones exactly when its variable has one state (its
        # columns sum to 1), whatever values update_cpds swaps in.  So
        # the fold is planned on the first install of each structure
        # and replayed after that.
        evidence = tuple(
            (var,) for var in self._evidence if self._home_clique[var] == idx
        )
        key = (idx, tuple(overrides), evidence)
        plan = self._fold_plans.get(key)
        if plan is None:
            slots = [None, *self._cpd_members[idx], *evidence]
            factors = [factor_at(slot) for slot in slots]

            def per_scenario_size(factor: Factor) -> int:
                return factor.size // k if _BATCH_AXIS in factor else factor.size

            keep = plan_product(factors, size_key=per_scenario_size)
            self._fold_plans[key] = [
                next(s for s, f in zip(slots, factors) if f is factor)
                for factor in keep
            ]
        else:
            keep = [factor_at(slot) for slot in plan]
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
        """Shared potential of clique ``idx``: its CPD product times
        the evidence indicators of variables homed there."""
        potential = self._cpd_products[idx]
        if potential is None:
            potential = self._cpd_products[idx] = self._clique_cpd_product(idx)
        for var, state in self._evidence.items():
            if self._home_clique[var] == idx:
                indicator = Factor.indicator(var, self._cardinalities[var], state)
                potential = potential.product(indicator)
        return potential

    def _init_potentials(self) -> None:
        """Factor path: (re)build clique potentials from the cached CPD
        products plus the current evidence, and reset all separators."""
        self._potentials = [
            self._clique_potential(idx) for idx in range(len(self.cliques))
        ]
        self._separators = {}
        for u, v in self.tree.edges:
            sep = sorted(self.cliques[u] & self.cliques[v])
            self._separators[frozenset((u, v))] = Factor.uniform(
                sep, [self._cardinalities[x] for x in sep]
            )
        self._calibrated = False

    def _touch(self, cliques: Iterable[int]) -> None:
        """Record that the shared potentials of ``cliques`` changed: the
        engine reinstalls them at its next install (skipping values that
        turn out unchanged); the Factor path resets."""
        if self._use_engine:
            self._stale.update(cliques)
        else:
            self._init_potentials()

    # ------------------------------------------------------------------
    # Evidence & CPD updates
    # ------------------------------------------------------------------

    def set_evidence(self, evidence: Mapping[str, int]) -> None:
        """Fix observed states; takes effect at the next calibration.

        On the compiled engine evidence is part of the K=1 install
        (:meth:`calibrate`); :meth:`update_cpds_batch` rejects it for
        K > 1.
        """
        for var, state in evidence.items():
            if var not in self._cardinalities:
                raise KeyError(f"unknown variable {var!r}")
            if not 0 <= state < self._cardinalities[var]:
                raise ValueError(f"state {state} out of range for {var!r}")
        self._evidence.update(evidence)
        self._touch(self._home_clique[var] for var in evidence)

    def clear_evidence(self) -> None:
        cleared = list(self._evidence)
        self._evidence = {}
        self._touch(self._home_clique[var] for var in cleared)

    def _check_cpd(self, cpd: TabularCPD) -> None:
        """Reject a replacement CPD that changes the compiled structure."""
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

    def update_cpds(self, cpds: Iterable[TabularCPD]) -> None:
        """Swap new CPDs (same structure) into the network without
        recompiling; the next calibration re-propagates only what the
        changed cliques can reach.

        The changed cliques' CPD products are rebuilt lazily, by the
        first install that needs them as shared potentials: a
        :meth:`update_cpds_batch` that overrides the same CPDs never
        does.
        """
        cpds = list(cpds)
        for cpd in cpds:
            self._check_cpd(cpd)
            self._bn._cpds[cpd.variable] = cpd
        affected = {self._cpd_assignment[c.variable] for c in cpds}
        for idx in affected:
            self._cpd_products[idx] = None
        if self._mask_supports and self._supports_violated(cpds):
            # A replacement CPD put mass outside the support its old
            # deterministic table promised (e.g. a gate CPD swapped for
            # a noisy one).  The packed kernels compiled against the old
            # masks would silently drop that mass, so drop the compiled
            # state; the next calibration re-analyzes without the
            # offending node's mask.
            self._invalidate_compiled()
        else:
            self._touch(affected)

    # ------------------------------------------------------------------
    # Batched multi-scenario propagation (the engine's only entry)
    # ------------------------------------------------------------------

    def update_cpds_batch(
        self, cpd_sets: Sequence[Iterable[TabularCPD]], dtype: str = "float64"
    ) -> int:
        """Install K scenarios' CPDs for one batched propagation pass.

        ``cpd_sets[k]`` plays the role of :meth:`update_cpds`'s argument
        for scenario ``k``; every scenario must update the same
        variables (with unchanged parents and cardinality).  Unlike
        :meth:`update_cpds` this does not mutate the underlying network:
        scenarios live only in the engine, whose dirty tracking is
        shared across the batch (only the updated cliques' potentials
        differ per scenario; every other clique holds the network's
        shared potential).  Returns K.  Query results with
        :meth:`marginals_batch` / :meth:`joint_marginal_batch`.

        Evidence joins a K=1 install (its indicators multiply into their
        home cliques' potentials) and is rejected for K > 1.

        ``dtype="float32"`` builds the engine with float32 buffers: half
        the ``K x`` memory and faster memory-bound sweeps, at a
        ~``1e-6`` relative tolerance versus float64 (see
        :class:`~repro.bayesian.propagation.PropagationEngine`).
        """
        sets = [list(s) for s in cpd_sets]
        if not sets:
            raise ValueError("need at least one CPD set")
        if not self._use_engine:
            raise JunctionTreeError(
                "batched propagation requires the compiled engine"
            )
        k = len(sets)
        if self._evidence and k > 1:
            raise JunctionTreeError(
                "batched propagation does not support evidence"
            )
        variables = [cpd.variable for cpd in sets[0]]
        by_var: Dict[str, List[TabularCPD]] = {v: [] for v in variables}
        # Deep-validate scenario 0 against the network, then hold the
        # other K-1 scenarios to scenario 0's structure (cheap tuple and
        # shape compares instead of K network lookups per variable).
        for cpd in sets[0]:
            self._check_cpd(cpd)
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
        affected = {self._cpd_assignment[v] for v in variables}
        engine = self._engine
        if (
            engine is None
            or engine.batch_size != k
            or engine.dtype != np.dtype(dtype)
        ):
            engine = self._engine = PropagationEngine(
                schedule, batch_size=k, dtype=dtype
            )
            shared = set(range(len(self.cliques)))
        else:
            shared = self._stale | self._stacked
        # Cliques no scenario overrides hold the network's shared
        # potential, broadcast over the batch axis.
        for idx in sorted(shared - affected):
            engine.set_potential(idx, self._clique_potential(idx))
        self._stale.clear()
        self._stacked = affected
        for idx in sorted(affected):
            overrides = {
                node: by_var[node]
                for node in self._cpd_members[idx]
                if node in by_var
            }
            stacked = self._clique_cpd_product_batch(idx, overrides, k)
            engine.set_potential_batch(idx, stacked)
        return k

    def marginals_batch(
        self, variables: Sequence[str], skip_zero: bool = False
    ) -> Dict[str, np.ndarray]:
        """Posterior marginals of the installed scenario batch.

        Returns ``{var: (K, card) array}``; row ``k`` is scenario
        ``k``'s marginal, bitwise-identical to a K=1 propagation of that
        scenario alone (see :mod:`repro.bayesian.propagation`).
        Requires a prior :meth:`update_cpds_batch`.  ``skip_zero=True``
        NaN-fills rows of zero-mass scenarios instead of raising,
        isolating them from their batch-mates.
        """
        engine = self._require_engine()
        engine.propagate()
        return engine.marginals(variables, skip_zero=skip_zero)

    def joint_marginal_batch(self, variables: Sequence[str]) -> np.ndarray:
        """Batched joint posterior of variables sharing a clique: a
        ``(K, card_1, ..., card_m)`` array in the order of
        ``variables``.  See :meth:`joint_marginal`."""
        engine = self._require_engine()
        engine.propagate()
        idx = self._clique_containing(variables)
        return engine.joint_marginal(idx, list(variables))

    def _clique_containing(self, variables: Sequence[str]) -> int:
        wanted = set(variables)
        for idx, clique in enumerate(self.cliques):
            if wanted <= clique:
                return idx
        raise JunctionTreeError(f"no clique jointly contains {sorted(wanted)}")

    def _require_engine(self) -> PropagationEngine:
        if self._engine is None:
            raise JunctionTreeError(
                "no scenario batch installed; call update_cpds_batch first"
            )
        return self._engine

    def _ensure_schedule(self) -> PropagationSchedule:
        """Build (once) the immutable message schedule shared by engines
        of every batch size.  Non-dense kernel modes run
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
        """Drop the compiled schedule and engine (support masks went
        stale); the next install rebuilds both from the network."""
        self._schedule = None
        self._engine = None
        self._stale.clear()
        self._stacked = set()
        self._mask_supports = {}

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
        # The engine is a per-query cache keyed by batch size; rebuilding
        # it is cheap and keeps artifacts K-independent.
        state = dict(self.__dict__)
        state["_engine"] = None
        state["_stale"] = set()
        state["_stacked"] = set()
        return state

    # ------------------------------------------------------------------
    # Calibration (two-phase message passing)
    # ------------------------------------------------------------------

    def calibrate(self) -> None:
        """Run collect + distribute over every tree component.

        With the compiled engine (the default) this is a K=1
        :meth:`update_cpds_batch` of the network's current CPDs (plus
        any evidence) followed by a propagation that re-runs only the
        messages reachable from changed cliques; with nothing changed it
        is a no-op.  With ``engine=False`` it runs the Factor-based
        reference message passes.
        """
        if self._use_engine:
            self.update_cpds_batch([[]])
            self._engine.propagate()
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
        if self._use_engine or not self._calibrated:
            self.calibrate()

    def marginal(self, variable: str) -> np.ndarray:
        """Posterior marginal ``P(variable | evidence)`` as a vector."""
        return self.marginals([variable])[variable]

    def marginals(self, variables: Sequence[str]) -> Dict[str, np.ndarray]:
        """Posterior marginals of many variables in one sweep.

        On the compiled engine this reads row 0 of the K=1 install
        (variables sharing a home clique are extracted together, with
        one reduction per clique).
        """
        self._require_calibration()
        if self._use_engine:
            return {v: m[0] for v, m in self._engine.marginals(variables).items()}
        out = {}
        for variable in variables:
            idx = self._home_clique.get(variable)
            if idx is None:
                raise KeyError(f"unknown variable {variable!r}")
            factor = self._potentials[idx].marginal_onto([variable])
            out[variable] = factor.normalize().values
        return out

    def joint_marginal(self, variables: Sequence[str]) -> Factor:
        """Joint posterior of variables that share a clique.

        Raises :class:`JunctionTreeError` if no clique contains all of
        them (an arbitrary joint would require out-of-clique inference;
        use :func:`repro.bayesian.elimination.variable_elimination`).
        """
        idx = self._clique_containing(variables)
        self._require_calibration()
        if self._use_engine:
            joint = self._engine.joint_marginal(idx, list(variables))[0]
            return Factor._unsafe(tuple(variables), np.ascontiguousarray(joint))
        factor = self._potentials[idx].marginal_onto(list(set(variables)))
        return factor.normalize().permute(list(variables))

    def clique_belief(self, idx: int) -> Factor:
        """Calibrated belief of clique ``idx`` as a dense Factor.

        On the compiled engine this is row 0 of the K=1 install, built
        on demand (packed beliefs are scattered onto zeros).
        """
        self._require_calibration()
        if self._use_engine:
            return Factor._unsafe(
                self._schedule.orders[idx], self._engine.belief(idx)
            )
        return self._potentials[idx]

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
            prob *= self.clique_belief(root).total()
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
            sep_vars = sorted(self.cliques[u] & self.cliques[v])
            mu = self.clique_belief(u).marginal_onto(sep_vars)
            mv = self.clique_belief(v).marginal_onto(sep_vars)
            if not mu.allclose(mv, atol=atol):
                return False
        return True

    def propagation_counters(self) -> PropagationCounters:
        """Cumulative work counters of the current engine (zeros before
        the first install or on the ``engine=False`` reference path)."""
        if self._engine is None:
            return PropagationCounters()
        return self._engine.counters

    def engine_factor_bytes(self) -> int:
        """Bytes held by the engine's preallocated belief/message/scratch
        buffers (0 before the first install or with ``engine=False``).
        A K-scenario engine holds ``K x`` the K=1 footprint."""
        return self._engine.factor_bytes if self._engine is not None else 0

    def reset_propagation(self) -> None:
        """Mark every clique dirty so the next propagation is a full pass."""
        if self._engine is not None:
            self._engine.mark_all_dirty()

    def _clique_sizes(self) -> List[int]:
        return [
            int(np.prod([self._cardinalities[v] for v in clique]))
            for clique in self.cliques
        ]

    def max_clique_size(self) -> int:
        """State-space size of the largest clique table."""
        return max(self._clique_sizes(), default=0)

    def stats(self) -> Dict[str, float]:
        """Structure statistics for reports."""
        return {
            "cliques": len(self.cliques),
            "max_clique_vars": max((len(c) for c in self.cliques), default=0),
            "max_clique_states": self.max_clique_size(),
            "fill_ins": len(self.fill_ins),
            "total_table_entries": sum(self._clique_sizes()),
        }

    def __repr__(self) -> str:
        return (
            f"JunctionTree(cliques={len(self.cliques)}, "
            f"max_clique={max((len(c) for c in self.cliques), default=0)})"
        )
