"""Iterative boundary refinement across the segment graph.

The spanning-forest boundary model (:mod:`.boundary`) can only carry a
pairwise joint when some single upstream segment knows it -- two
boundary lines owned by *different* segments always cross the cut
independently, and that is exactly the error source the paper reports
for its segmented benchmarks.

Refinement closes that gap with *glue estimators*.  At compile time
(``refine > 0``) the boundary forest of every segment is augmented with
cross-provider edges (:func:`augment_boundary_forest`); each such edge
gets a small **glue cone** -- the union of the two lines' truncated
fanin cones -- compiled once into an exact support-enumeration segment
(:class:`~repro.core.enumeration.EnumerationSegment`).  At estimate
time, after the ordinary forward pass, the refinement loop:

1. re-evaluates every glue cone against the *current* published
   marginals (its frontier lines carry the latest ``known`` values),
   calibrates the resulting 4x4 joint to the published marginals by
   iterative proportional fitting, and turns it into a
   ``P(child | parent)`` boundary conditional;
2. re-propagates every segment whose boundary factors or boundary
   input marginals changed -- cheap, because only input CPDs change,
   so the PR 1 dirty-clique machinery repropagates a fraction of each
   junction tree -- cascading dirtiness down the segment DAG;
3. repeats until the maximum boundary-belief delta drops below
   ``refine_tol`` or ``max_iters`` is reached.

A fixed point exists because the circuit DAG is feed-forward: glue
frontier marginals converge as their owners converge, so deltas
attenuate monotonically in practice (oscillation is possible only
through the marginal-calibration feedback, and is bounded by
``max_iters``; see DESIGN.md section 14).  Per-iteration progress is
observable through the ``segmented.refine`` /
``segmented.refine.iteration`` spans and the ``seg.refine.iterations``
/ ``seg.refine.delta`` gauges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.netlist import Circuit
from repro.core.inputs import InputModel
from repro.core.states import N_STATES
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer

from repro.core.segments.boundary import (
    FixedMarginalInputs,
    SegmentInputs,
    conditional_rows,
)
from repro.core.segments.partition import (
    SegmentRegistry,
    cone_overlap,
    provider_has_joint,
)

__all__ = [
    "BoundaryRefiner",
    "GlueEdge",
    "augment_boundary_forest",
    "calibrate_joint",
    "plan_glue_cone",
]

#: Input budget of one glue cone: ``4^GLUE_MAX_INPUTS`` support rows.
GLUE_MAX_INPUTS = 7
#: Gate budget of one glue cone (enumeration cost is rows x gates).
GLUE_MAX_GATES = 192
#: Backward-expansion depth limit when growing a glue cone.
GLUE_MAX_DEPTH = 10
#: Cap on glue edges grafted onto one segment's boundary forest.
GLUE_EDGE_LIMIT = 16


def plan_glue_cone(
    circuit: Circuit,
    parent: str,
    child: str,
    max_inputs: int = GLUE_MAX_INPUTS,
    max_gates: int = GLUE_MAX_GATES,
    max_depth: int = GLUE_MAX_DEPTH,
) -> Optional[Tuple[str, ...]]:
    """Gate-output lines of the glue cone for a boundary pair, or None.

    Starting from the two lines' driving gates, whole backward levels
    are folded in while the cone's *input* count stays within
    ``max_inputs`` (enumeration cost is ``4^inputs``) and its gate
    count within ``max_gates``.  The deeper the cone, the more shared
    ancestry -- hence cross-cut correlation -- it recovers exactly.
    """

    def frontier_of(lines: set) -> set:
        sources = set()
        for line in lines:
            for src in circuit.driver(line).inputs:
                if src not in lines:
                    sources.add(src)
        return sources

    lines = {parent, child}
    frontier = frontier_of(lines)
    if len(frontier) > max_inputs:
        return None
    for _ in range(max_depth):
        expandable = {ln for ln in frontier if circuit.driver(ln) is not None}
        if not expandable:
            break
        candidate = lines | expandable
        if len(candidate) > max_gates:
            break
        new_frontier = frontier_of(candidate)
        if len(new_frontier) > max_inputs:
            break
        lines = candidate
        frontier = new_frontier
    return tuple(sorted(lines))


def augment_boundary_forest(
    circuit: Circuit,
    inputs: Sequence[str],
    registry: SegmentRegistry,
    cone_cache: Dict[str, frozenset],
    max_input_states: int = N_STATES ** GLUE_MAX_INPUTS,
) -> Tuple[Dict[str, str], frozenset, Dict[str, Tuple[str, ...]]]:
    """Boundary forest with cross-provider glue edges grafted on.

    The *live* spanning forest -- same-provider pairs whose joint a
    single upstream segment can answer -- is built first, exactly as in
    :func:`~repro.core.segments.partition.boundary_forest`, and every
    live edge is kept: a live joint is strictly better information than
    a glue approximation, and preserving the live forest means the base
    pass (before any refinement iteration) matches the ``refine=0``
    scheme.  Glue edges are then grafted *between* live components
    (Kruskal order: largest cone overlap first), each carrying a
    feasible glue-cone plan; a glue edge therefore connects exactly the
    pairs that previously crossed the cut independently.  Returns
    ``(parent_of, glue_children, glue_plans)``; with no feasible glue
    candidates this degrades to the plain same-provider forest.
    """
    import networkx as nx

    max_inputs = int(np.log(max_input_states) / np.log(N_STATES))
    provided: List[str] = []
    provider_of_line: Dict[str, object] = {}
    for line in inputs:
        provider = registry.provider_of(line)
        if provider is not None:
            provided.append(line)
            provider_of_line[line] = provider

    live = nx.Graph()
    for a, b in itertools.combinations(provided, 2):
        if provider_of_line[a] is not provider_of_line[b]:
            continue
        if not provider_has_joint(provider_of_line[a], a, b):
            continue
        weight = cone_overlap(circuit, a, b, cone_cache)
        if weight > 0:
            live.add_edge(a, b, weight=weight)

    forest = nx.Graph()
    forest.add_nodes_from(provided)
    forest.add_edges_from(nx.maximum_spanning_edges(live, data=False))

    candidates: List[Tuple[int, str, str]] = []
    for a, b in itertools.combinations(provided, 2):
        if live.has_edge(a, b):
            continue
        weight = cone_overlap(circuit, a, b, cone_cache)
        if weight > 0:
            candidates.append((weight, a, b))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))

    component: Dict[str, int] = {}
    for idx, members in enumerate(nx.connected_components(forest)):
        for line in members:
            component[line] = idx
    glue_pairs: Dict[frozenset, Tuple[str, ...]] = {}
    budget = GLUE_EDGE_LIMIT
    for weight, a, b in candidates:
        if budget <= 0:
            break
        if component[a] == component[b]:
            continue
        plan = plan_glue_cone(circuit, a, b, max_inputs=max_inputs)
        if plan is None:
            continue
        forest.add_edge(a, b)
        merged, absorbed = component[a], component[b]
        for line, idx in component.items():
            if idx == absorbed:
                component[line] = merged
        glue_pairs[frozenset((a, b))] = plan
        budget -= 1

    parent_of: Dict[str, str] = {}
    glue_children: set = set()
    glue_plans: Dict[str, Tuple[str, ...]] = {}
    for members in nx.connected_components(forest):
        root = min(members)  # hash-seed independent, as in boundary_forest
        for parent, child in nx.bfs_edges(forest, root):
            parent_of[child] = parent
            plan = glue_pairs.get(frozenset((parent, child)))
            if plan is not None:
                glue_children.add(child)
                glue_plans[child] = plan
    return parent_of, frozenset(glue_children), glue_plans


def calibrate_joint(
    joint: np.ndarray,
    row_marginal: np.ndarray,
    col_marginal: np.ndarray,
    iters: int = 32,
    tol: float = 1e-12,
) -> np.ndarray:
    """IPF-calibrate a 4x4 joint to the published marginals.

    The glue cone's joint carries the *correlation structure* of the
    pair, but its marginals reflect the cone's truncated view of the
    circuit; the published marginals from full segment propagation are
    strictly better.  Iterative proportional fitting keeps the cone's
    odds ratios while matching both marginals.  A tiny independent
    floor ensures states the marginals support are reachable.
    """
    row_marginal = np.asarray(row_marginal, dtype=np.float64)
    col_marginal = np.asarray(col_marginal, dtype=np.float64)
    fitted = np.asarray(joint, dtype=np.float64) + 1e-12 * np.outer(
        np.maximum(row_marginal, 1e-9), np.maximum(col_marginal, 1e-9)
    )
    fitted /= fitted.sum()
    for _ in range(iters):
        rows = fitted.sum(axis=1)
        fitted *= np.where(rows > 0, row_marginal / np.maximum(rows, 1e-300), 1.0)[
            :, None
        ]
        cols = fitted.sum(axis=0)
        fitted *= np.where(cols > 0, col_marginal / np.maximum(cols, 1e-300), 1.0)[
            None, :
        ]
        if np.abs(fitted.sum(axis=1) - row_marginal).max() <= tol:
            break
    return fitted


@dataclass
class GlueEdge:
    """One cross-provider boundary-forest edge and its glue estimator."""

    index: int  # consumer segment whose forest carries the edge
    parent: str
    child: str
    estimator: object  # EnumerationSegment over the glue cone
    primary: Tuple[str, ...]  # cone inputs that are circuit primaries
    internal: Tuple[str, ...]  # cone inputs published by segments


class BoundaryRefiner:
    """Holds every glue edge and evaluates their boundary conditionals.

    Built once at compile time (``refine > 0``); serialized with the
    estimator, so loaded artifacts refine without recompiling.
    """

    def __init__(self, edges: List[GlueEdge]):
        self.edges = edges
        self.by_consumer: Dict[int, List[GlueEdge]] = {}
        for edge in edges:
            self.by_consumer.setdefault(edge.index, []).append(edge)

    def __len__(self) -> int:
        return len(self.edges)

    @staticmethod
    def build(estimator) -> "BoundaryRefiner":
        """Compile the glue cones planned during partitioning."""
        from repro.core.enumeration import EnumerationSegment

        circuit = estimator.circuit
        edges: List[GlueEdge] = []
        for index, node in enumerate(estimator.graph.nodes):
            for child in sorted(node.glue_children):
                parent = node.parent_of[child]
                plan = node.glue_plans[child]
                sources = {
                    src
                    for line in plan
                    for src in circuit.driver(line).inputs
                }
                cone = circuit.subcircuit(
                    sorted(set(plan) | sources, key=estimator._position.__getitem__),
                    name=f"{circuit.name}.glue{index}.{child}",
                )
                primary = tuple(
                    ln for ln in cone.inputs if circuit.driver(ln) is None
                )
                internal = tuple(
                    ln for ln in cone.inputs if circuit.driver(ln) is not None
                )
                uniform = {ln: np.full(N_STATES, 0.25) for ln in internal}
                glue_est = EnumerationSegment(
                    cone,
                    SegmentInputs(
                        estimator.input_model, primary, FixedMarginalInputs(uniform)
                    ),
                    max_input_states=estimator.glue_states,
                    keep_lines={parent, child},
                )
                edges.append(
                    GlueEdge(index, parent, child, glue_est, primary, internal)
                )
        return BoundaryRefiner(edges)

    # ------------------------------------------------------------------

    def conditional_batch(
        self,
        edge: GlueEdge,
        known: Dict[str, np.ndarray],
        models: List[InputModel],
    ) -> np.ndarray:
        """Per-scenario ``(K, 4, 4)`` stack of ``P(child | parent)``
        from the glue cone at the current beliefs."""
        joints = np.empty((len(models), N_STATES, N_STATES))
        for j, model in enumerate(models):
            priors = {ln: known[ln][j] for ln in edge.internal}
            edge.estimator.update_inputs(
                SegmentInputs(model, edge.primary, FixedMarginalInputs(priors))
            )
            edge.estimator.estimate()
            joints[j] = calibrate_joint(
                edge.estimator.pair_joint(edge.parent, edge.child),
                known[edge.parent][j],
                known[edge.child][j],
            )
        return conditional_rows(joints, known[edge.child])


# ----------------------------------------------------------------------
# The refinement loop
# ----------------------------------------------------------------------


def run_refinement(
    estimator,
    known: Dict[str, np.ndarray],
    models: List[InputModel],
    needed: Dict[int, List[Tuple[str, str]]],
    pair_joints: Dict[Tuple[int, str, str], np.ndarray],
    dtype: str = "float64",
) -> Tuple[int, np.ndarray]:
    """Refine ``known`` in place; returns ``(iterations, last_deltas)``.

    ``known`` maps each line to a ``(K, 4)`` stack over the K
    scenarios ``models``; re-propagation threads the provider
    pair-joint cache exactly like the base pass.  ``last_deltas`` is
    each scenario's own boundary-belief change at the last iteration
    (zeros when nothing is refined); the loop stops once every
    scenario's delta is within ``refine_tol``.  With
    ``parallelism >= 2`` glue cones evaluate concurrently and dirty
    segments re-propagate level-by-level over the segment DAG --
    bitwise identical to the serial sweep, since a level's members
    never consume each other's lines.
    """
    refiner: Optional[BoundaryRefiner] = estimator._refiner
    max_iters = estimator.effective_refine_iters()
    if refiner is None or not refiner.edges or max_iters <= 0:
        return 0, np.zeros(len(models))
    tracer = get_tracer()
    metrics = get_metrics()
    tol = estimator.refine_tol
    #: belief changes below this neither cascade nor count as progress
    prune = max(tol * 1e-2, 1e-13)
    pool = None
    if estimator.parallelism > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=estimator.parallelism)
    prev_tables: Dict[Tuple[int, str], np.ndarray] = {}
    iterations = 0
    delta = np.full(len(models), np.inf)
    try:
        with tracer.span(
            "segmented.refine",
            circuit=estimator.circuit.name,
            glue_edges=len(refiner.edges),
            max_iters=max_iters,
            backend="segmented",
        ) as span:
            for iteration in range(max_iters):
                with tracer.span(
                    "segmented.refine.iteration", iteration=iteration
                ) as it_span:
                    glue_tables, delta_glue, dirty = _evaluate_glue(
                        refiner, estimator, known, models, prev_tables,
                        prune, pool,
                    )
                    delta_lines = _repropagate(
                        estimator, known, dirty, glue_tables, prune, pool,
                        models, needed, pair_joints, dtype,
                    )
                    delta = np.maximum(delta_glue, delta_lines)
                    worst = float(delta.max())
                    iterations += 1
                    it_span.annotate(
                        delta=worst, dirty_segments=len(dirty)
                    )
                    if metrics.enabled:
                        metrics.gauge("seg.refine.delta").set(worst)
                    if worst <= tol:
                        break
            span.annotate(iterations=iterations, delta=worst)
        if metrics.enabled:
            metrics.gauge("seg.refine.iterations").set(iterations)
    finally:
        if pool is not None:
            pool.shutdown(wait=False)
    return iterations, delta


def _evaluate_glue(
    refiner: BoundaryRefiner,
    estimator,
    known,
    models,
    prev_tables,
    prune,
    pool,
):
    """Evaluate every glue cone; return (tables by consumer, per-scenario
    max table delta, dirty consumer indices)."""

    def evaluate(edge):
        return refiner.conditional_batch(edge, known, models)

    if pool is not None:
        new_tables = list(pool.map(evaluate, refiner.edges))
    else:
        new_tables = [evaluate(edge) for edge in refiner.edges]

    glue_tables: Dict[int, Dict[str, np.ndarray]] = {}
    delta_glue = np.zeros(len(models))
    dirty: set = set()
    for edge, table in zip(refiner.edges, new_tables):
        key = (edge.index, edge.child)
        prev = prev_tables.get(key)
        if prev is None:
            # The base pass baked the independent placeholder: the
            # child's prior tiled over parent states.
            child_prior = np.asarray(known[edge.child], dtype=np.float64)
            prev = np.repeat(child_prior[:, None, :], N_STATES, axis=1)
        table_delta = _row_deltas(table, prev)
        np.maximum(delta_glue, table_delta, out=delta_glue)
        prev_tables[key] = table
        glue_tables.setdefault(edge.index, {})[edge.child] = table
        if table_delta.max() > prune:
            dirty.add(edge.index)
    return glue_tables, delta_glue, dirty


def _repropagate(
    estimator,
    known,
    dirty,
    glue_tables,
    prune,
    pool,
    models,
    needed,
    pair_joints,
    dtype,
):
    """One topological sweep re-propagating dirty segments; returns the
    per-scenario max published-belief delta.  Dirtiness cascades: a
    segment is dirty when its glue tables changed or any of its
    boundary inputs moved more than the prune threshold."""
    changed: set = set()
    delta_lines = np.zeros(len(models))

    def propagate(index):
        return estimator._propagate_segment_batch(
            index, known, models, needed, pair_joints,
            glue_tables=glue_tables.get(index), dtype=dtype,
        )

    def is_dirty(index):
        if index in dirty:
            return True
        segment = estimator.graph[index].segment
        return any(line in changed for line in segment.inputs)

    def merge(published):
        for line, value in published.items():
            line_delta = _row_deltas(value, known[line])
            known[line] = value
            if line_delta.max() > prune:
                changed.add(line)
            np.maximum(delta_lines, line_delta, out=delta_lines)

    if pool is not None:
        levels = estimator.graph.levels()
        for level in range(max(levels) + 1):
            members = [
                i for i, lv in enumerate(levels)
                if lv == level and is_dirty(i)
            ]
            if not members:
                continue
            for published in pool.map(propagate, members):
                merge(published)
    else:
        for index in range(len(estimator.graph)):
            if is_dirty(index):
                merge(propagate(index))
    return delta_lines


def _row_deltas(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Largest absolute change per scenario row of two ``(K, ...)``
    stacks."""
    return np.abs(new - old).reshape(len(new), -1).max(axis=1)
