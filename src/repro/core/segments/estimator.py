"""Multiple-BN estimation of large circuits (paper Section 6).

Circuits whose single junction tree would blow the clique budget are cut
into *segments* along the topological order.  Each segment becomes its
own LIDAG/junction tree; the 4-state marginals of the lines crossing a
segment boundary are computed in the upstream segment and handed to the
downstream segment as independent input priors.

This is exactly the paper's "preliminary segmentation scheme":
single-segment circuits are exact, while multi-segment circuits lose the
*joint* correlation of boundary lines (only their marginals cross the
cut), which is the error source the paper reports for its larger
benchmarks.  Two recovery mechanisms narrow that gap:

- ``boundary="tree"`` (default) hands a spanning forest of pairwise
  boundary joints across each cut (:mod:`.boundary`);
- ``refine > 0`` additionally iterates the whole segment graph to a
  fixed point, passing glue-cone joints across cuts no single upstream
  segment covers (:mod:`.refine`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bayesian.propagation import PropagationCounters
from repro.circuits.netlist import Circuit
from repro.core.backend.base import Method
from repro.core.backend.errors import CliqueBudgetExceeded
from repro.core.estimator import SwitchingActivityEstimator, SwitchingEstimate
from repro.core.inputs import IndependentInputs, InputModel
from repro.core.states import N_STATES
from repro.errors import SegmentBoundaryError
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer

from repro.core.segments.boundary import (
    FixedMarginalInputs,
    SegmentInputs,
    TreeBoundaryInputs,
    conditional_rows,
)
from repro.core.segments.partition import (
    SegmentGraph,
    SegmentRegistry,
    boundary_forest,
    chunk_levels,
    cone_clustered_order,
    expand_with_lookback,
    partition_by_inputs,
)
from repro.core.segments.refine import (
    BoundaryRefiner,
    augment_boundary_forest,
    run_refinement,
)

__all__ = ["SegmentedEstimator"]


class SegmentedEstimator:
    """Switching-activity estimation with multiple Bayesian networks.

    Parameters
    ----------
    circuit:
        The circuit to analyse.
    input_model:
        Primary-input statistics.  Note: across segment boundaries only
        marginals (or, in ``boundary="tree"`` mode, a spanning forest of
        pairwise joints) propagate, so spatial input correlation is
        preserved exactly only within a single segment.
    max_gates_per_segment:
        Initial segment granularity; segments whose junction tree would
        exceed ``max_clique_states`` are split in half recursively.
    max_clique_states:
        Per-segment clique table budget.
    lookback:
        Levels of upstream logic duplicated into each segment.  The
        duplicated cone re-creates reconvergent correlations close to
        the cut, shrinking the boundary-independence error at the cost
        of larger segments.  0 reproduces the naive scheme.
    boundary:
        ``"independent"`` hands only marginals across cuts (the paper's
        preliminary scheme); ``"tree"`` additionally carries a spanning
        forest of pairwise boundary joints (the paper's future-work
        segmentation, our default).
    enum_input_states:
        When a segment's junction tree would blow the clique budget but
        the segment has few *inputs*, fall back to exact support
        enumeration (:class:`~repro.core.enumeration.EnumerationSegment`)
        instead of splitting it -- deterministic CPTs make the segment's
        joint support only ``4^inputs`` large no matter the treewidth.
        This is the budget on that support size; 0 disables the fallback.
    backend:
        ``"auto"`` (default): junction trees with the enumeration
        fallback.  ``"jt"``: junction trees only (the paper's setup).
        ``"enum"``: every segment is enumerated; the partition greedily
        grows segments along the cone order until the *input-count*
        budget, which typically yields far fewer, larger, exact
        segments on high-treewidth circuits.
    parallelism:
        Worker threads for the segment pipeline.  ``0`` or ``1`` keeps
        the serial path.  ``>= 2`` compiles independent chunks
        concurrently and propagates level-by-level over the segment
        ownership DAG; results are bitwise identical to the serial
        path (each segment sees exactly the same upstream inputs).
    refine:
        Iterative boundary-refinement budget.  ``0`` (default) keeps
        the one-pass scheme bit-for-bit.  ``N >= 1`` augments each
        boundary forest with cross-provider *glue* edges at compile
        time and, at estimate time, re-propagates dirty segments up to
        ``N`` times, re-deriving glue joints from the latest beliefs
        each round (see :mod:`repro.core.segments.refine`).  Requires
        ``boundary="tree"``.
    refine_tol:
        Convergence threshold: refinement stops once the largest
        boundary-belief change of an iteration drops below this.
    max_iters:
        Hard cap on refinement iterations (defaults to ``refine``).
        The effective budget is ``min(refine, max_iters)``.
    glue_states:
        Support budget of one glue cone (``4^inputs`` rows); glue
        edges whose cone cannot fit are dropped from the forest.
    """

    def __init__(
        self,
        circuit: Circuit,
        input_model: Optional[InputModel] = None,
        max_gates_per_segment: int = 60,
        max_clique_states: int = 4 ** 9,
        heuristic: str = "min_fill",
        lookback: int = 3,
        boundary: str = "tree",
        enum_input_states: int = 4 ** 9,
        backend: str = "auto",
        parallelism: int = 0,
        kernel: str = "auto",
        refine: int = 0,
        refine_tol: float = 1e-5,
        max_iters: Optional[int] = None,
        glue_states: int = 4 ** 7,
    ):
        if max_gates_per_segment < 1:
            raise ValueError("max_gates_per_segment must be >= 1")
        if kernel not in ("auto", "dense", "sparse"):
            raise ValueError(f"unknown kernel mode {kernel!r}")
        if lookback < 0:
            raise ValueError("lookback must be >= 0")
        if boundary not in ("independent", "tree"):
            raise SegmentBoundaryError(f"unknown boundary mode {boundary!r}")
        if backend not in ("auto", "jt", "enum"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "enum" and not enum_input_states:
            raise ValueError("backend='enum' requires enum_input_states > 0")
        if parallelism < 0:
            raise ValueError("parallelism must be >= 0")
        if refine < 0:
            raise ValueError("refine must be >= 0")
        if refine and boundary != "tree":
            raise SegmentBoundaryError(
                f"refine requires boundary='tree', not {boundary!r}"
            )
        if refine_tol <= 0:
            raise ValueError("refine_tol must be > 0")
        if max_iters is not None and max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if glue_states < N_STATES ** 2:
            raise ValueError("glue_states must allow at least two inputs")
        self.circuit = circuit
        self.input_model = input_model if input_model is not None else IndependentInputs(0.5)
        self.max_gates_per_segment = max_gates_per_segment
        self.max_clique_states = max_clique_states
        self.heuristic = heuristic
        self.lookback = lookback
        self.boundary = boundary
        self.enum_input_states = enum_input_states
        self.backend = backend
        self.parallelism = parallelism
        self.kernel = kernel
        self.refine = refine
        self.refine_tol = refine_tol
        self.max_iters = max_iters
        self.glue_states = glue_states
        #: the compiled segment DAG (None before :meth:`compile`)
        self.graph: Optional[SegmentGraph] = None
        self._refiner: Optional[BoundaryRefiner] = None
        self.compile_seconds = 0.0
        #: (iterations, largest final delta over the scenarios) of the
        #: most recent refinement run
        self.last_refine: Tuple[int, float] = (0, 0.0)

    def effective_refine_iters(self) -> int:
        """The actual iteration budget: ``min(refine, max_iters)``."""
        if not self.refine:
            return 0
        if self.max_iters is not None:
            return min(self.refine, self.max_iters)
        return self.refine

    # ------------------------------------------------------------------

    def compile(self) -> "SegmentedEstimator":
        """Partition the circuit and compile one junction tree per segment."""
        if self.graph is not None:
            return self
        with get_tracer().span(
            "segmented.compile",
            circuit=self.circuit.name,
            parallelism=self.parallelism,
            backend="segmented",
        ) as span:
            internal = cone_clustered_order(self.circuit)
            self._position = {
                ln: i for i, ln in enumerate(self.circuit.topological_order())
            }
            self._cone_cache: Dict[str, frozenset] = {}
            if self.backend == "enum":
                chunks = partition_by_inputs(
                    self.circuit, internal, self.enum_input_states
                )
                compile_fn = self._compile_enum_chunk
            else:
                chunks = [
                    internal[i : i + self.max_gates_per_segment]
                    for i in range(0, len(internal), self.max_gates_per_segment)
                ]
                compile_fn = lambda chunk, label, registry: self._compile_chunk(  # noqa: E731
                    chunk, label, self.lookback, registry
                )
            registry = SegmentRegistry()
            if self.parallelism > 1 and len(chunks) > 1:
                records = self._compile_chunks_parallel(chunks, compile_fn, registry)
            else:
                for index, chunk in enumerate(chunks):
                    compile_fn(chunk, f"{index}", registry)
                records = registry.records
            self.graph = SegmentGraph(records)
            if self.refine:
                self._refiner = BoundaryRefiner.build(self)
                span.annotate(glue_edges=len(self._refiner))
            span.annotate(segments=len(self.graph))
            metrics = get_metrics()
            if metrics.enabled:
                metrics.gauge("segmented.segments").set(len(self.graph))
        self.compile_seconds = span.duration
        return self

    def _compile_chunks_parallel(self, chunks, compile_fn, registry):
        """Compile chunks level-by-level with a thread pool.

        Each worker stages its chunk's segments (including any budget
        splits) into a private registry chained to the shared one, so
        sub-chunks of the same chunk see each other exactly as in the
        serial pass.  Staged records merge into the shared registry
        after every level; the final record list is rebuilt in chunk
        order, which reproduces the serial registration order exactly.
        """
        from concurrent.futures import ThreadPoolExecutor

        tracer = get_tracer()
        levels = chunk_levels(self.circuit, chunks, self.lookback)
        staged: List[Optional[SegmentRegistry]] = [None] * len(chunks)
        with ThreadPoolExecutor(max_workers=self.parallelism) as pool:
            for level in range(max(levels) + 1):
                members = [i for i, lv in enumerate(levels) if lv == level]
                with tracer.span(
                    "segmented.compile.level", level=level, chunks=len(members)
                ) as level_span:
                    futures = []
                    for index in members:
                        staged[index] = SegmentRegistry(base=registry)
                        futures.append(
                            pool.submit(
                                self._compile_chunk_traced,
                                compile_fn,
                                chunks[index],
                                f"{index}",
                                staged[index],
                                level_span,
                            )
                        )
                    for future in futures:
                        future.result()
                    for index in members:
                        for node in staged[index].records:
                            registry.add_node(node)
        return [node for reg in staged for node in reg.records]

    def _compile_chunk_traced(self, compile_fn, chunk, label, registry, parent):
        """Run one chunk compile on a worker thread, nesting its spans
        under the level span owned by the coordinating thread."""
        with get_tracer().span("segment.compile", parent=parent, chunk=label):
            compile_fn(chunk, label, registry)

    def _compile_enum_chunk(
        self, chunk: List[str], label: str, registry: SegmentRegistry
    ) -> None:
        """Build an enumeration segment for a chunk.

        Like the junction-tree path, upstream logic is duplicated into
        the segment (``lookback`` levels) to regenerate reconvergent
        correlation near the cut; the lookback shrinks until the
        expanded segment's input count fits the enumeration budget (the
        unexpanded chunk always fits by construction).
        """
        from repro.core.enumeration import EnumerationSegment, SegmentTooWide

        owned = set(chunk)
        for lookback in range(self.lookback, -1, -1):
            expanded = expand_with_lookback(self.circuit, chunk, lookback)
            sources = {
                src for line in expanded for src in self.circuit.driver(line).inputs
            }
            lines = sorted(expanded | sources, key=self._position.__getitem__)
            segment = self.circuit.subcircuit(
                lines, name=f"{self.circuit.name}.seg{label}"
            )
            placeholder, parent_of, glue_children, glue_plans = (
                self._placeholder_inputs(segment, registry)
            )
            try:
                estimator = EnumerationSegment(
                    segment,
                    placeholder,
                    max_input_states=self.enum_input_states,
                    keep_lines=owned,
                )
            except SegmentTooWide:
                continue
            registry.add(
                segment, estimator, owned, parent_of, glue_children, glue_plans
            )
            return
        raise AssertionError("unexpanded enum chunk must fit its own budget")

    def _split_segment_inputs(
        self, segment: Circuit
    ) -> Tuple[List[str], List[str]]:
        """A segment's input lines, split into (primary, boundary).

        Primary lines are primary inputs of the full circuit and keep
        the user model's statistics (including correlation CPDs among
        them); boundary lines are driven by upstream segments and carry
        refreshed upstream marginals/conditionals.
        """
        primary = [
            name for name in segment.inputs if self.circuit.driver(name) is None
        ]
        primary_set = set(primary)
        boundary = [name for name in segment.inputs if name not in primary_set]
        return primary, boundary

    def _placeholder_inputs(
        self, segment: Circuit, registry: SegmentRegistry
    ) -> Tuple[InputModel, Dict[str, str], frozenset, Dict[str, Tuple[str, ...]]]:
        """Compile-time input model of a segment.

        The *structure* (which input-to-input CPD edges exist) is baked
        into the segment's LIDAG here; numbers are refreshed at every
        :meth:`_propagate_segment_batch`.  Primary inputs take their
        CPDs from the user model, boundary lines start uniform.  With
        ``refine > 0`` the boundary forest additionally carries glue
        edges (returned as ``glue_children`` plus their cone plans).
        """
        primary, boundary_lines = self._split_segment_inputs(segment)
        uniform = {name: np.full(N_STATES, 0.25) for name in boundary_lines}
        glue_children: frozenset = frozenset()
        glue_plans: Dict[str, Tuple[str, ...]] = {}
        if self.boundary == "tree":
            if self.refine:
                parent_of, glue_children, glue_plans = augment_boundary_forest(
                    self.circuit,
                    segment.inputs,
                    registry,
                    self._cone_cache,
                    max_input_states=self.glue_states,
                )
            else:
                parent_of = boundary_forest(
                    self.circuit, segment.inputs, registry, self._cone_cache
                )
            inner: InputModel = TreeBoundaryInputs(uniform, parent_of)
        else:
            parent_of = {}
            inner = FixedMarginalInputs(uniform)
        return (
            SegmentInputs(self.input_model, primary, inner),
            parent_of,
            glue_children,
            glue_plans,
        )

    def _compile_chunk(
        self, chunk: List[str], label: str, lookback: int, registry: SegmentRegistry
    ) -> None:
        """Compile a chunk of gate-output lines, splitting on budget misses.

        On a budget miss the chunk is halved first (quarter-cost
        retriangulations, lookback accuracy kept); lookback is shed only
        once the chunk is too small to split usefully.  Finalized
        segments register in topological order so downstream chunks can
        see their owners and junction trees.
        """
        owned = set(chunk)
        expanded = expand_with_lookback(self.circuit, chunk, lookback)
        sources = {
            src
            for line in expanded
            for src in self.circuit.driver(line).inputs
        }
        lines = sorted(expanded | sources, key=self._position.__getitem__)
        segment = self.circuit.subcircuit(lines, name=f"{self.circuit.name}.seg{label}")
        placeholder, parent_of, glue_children, glue_plans = (
            self._placeholder_inputs(segment, registry)
        )
        estimator = SwitchingActivityEstimator(
            segment,
            input_model=placeholder,
            heuristic=self.heuristic,
            max_clique_states=self.max_clique_states,
            kernel=self.kernel,
        )
        try:
            estimator.compile()
        except CliqueBudgetExceeded:
            # High treewidth but few inputs: exploit CPT determinism via
            # exact support enumeration rather than lossy splitting.
            if self.enum_input_states:
                from repro.core.enumeration import EnumerationSegment, SegmentTooWide

                try:
                    enum_estimator = EnumerationSegment(
                        segment,
                        placeholder,
                        max_input_states=self.enum_input_states,
                        keep_lines=owned,
                    )
                    registry.add(
                        segment, enum_estimator, owned, parent_of,
                        glue_children, glue_plans,
                    )
                    return
                except SegmentTooWide:
                    pass
            if len(chunk) > 8:
                mid = len(chunk) // 2
                self._compile_chunk(chunk[:mid], label + "a", lookback, registry)
                self._compile_chunk(chunk[mid:], label + "b", lookback, registry)
                return
            if lookback > 0:
                self._compile_chunk(chunk, label, lookback - 1, registry)
                return
            if len(chunk) == 1:
                raise
            mid = len(chunk) // 2
            self._compile_chunk(chunk[:mid], label + "a", 0, registry)
            self._compile_chunk(chunk[mid:], label + "b", 0, registry)
            return
        registry.add(segment, estimator, owned, parent_of, glue_children, glue_plans)

    def __getstate__(self):
        # The cone cache is a compile-time accelerator that can hold
        # megabytes of frozensets; compiled artifacts never need it.
        state = self.__dict__.copy()
        state.pop("_cone_cache", None)
        return state

    # ------------------------------------------------------------------

    def update_inputs(self, input_model: InputModel) -> None:
        """Swap primary-input statistics without recompiling.

        Segment junction trees are reused as-is; the new statistics
        enter through the boundary refresh at the next :meth:`estimate`
        (only marginals -- and, in tree mode, pairwise joints -- cross
        segment cuts, so input correlation models degrade exactly as
        the paper's segmentation scheme describes).
        """
        self.compile()
        self.input_model = input_model

    def estimate(self) -> SwitchingEstimate:
        """Propagate the current input model through the segment graph:
        row 0 of a one-scenario :meth:`estimate_many`."""
        return self.estimate_many([self.input_model])[0]

    def estimate_many(
        self, input_models, dtype: str = "float64"
    ) -> List[SwitchingEstimate]:
        """Estimate K input-statistics scenarios in one batched sweep.

        Segments propagate in topological order; with
        ``parallelism >= 2`` they propagate level-by-level over the
        ownership DAG: all segments of a level run concurrently (their
        inputs are fully published by lower levels), so every segment
        sees exactly the inputs it would see serially and the results
        are identical.  Each junction-tree segment propagates all K
        scenarios in a single vectorized pass
        (:meth:`SwitchingActivityEstimator.estimate_many_stacked`);
        enumeration segments loop their (already vectorized) support
        pass per scenario, caching the pair joints downstream boundary
        trees will need.  The published boundary marginals flow between
        segments as ``(K, 4)`` stacks.  With ``refine > 0`` the forward
        pass is followed by the iterative boundary-refinement loop (see
        :mod:`repro.core.segments.refine`).

        Result ``k`` is bitwise-identical to a one-scenario
        ``estimate_many`` of scenario ``k``'s model (same caveat as the
        engine: identical dirty paths, e.g. fresh compiles or sweeps
        updating every input).  ``self.input_model`` is not modified.
        """
        models = list(input_models)
        if not models:
            return []
        self.compile()
        k = len(models)
        tracer = get_tracer()
        with tracer.span(
            "segmented.propagate",
            circuit=self.circuit.name,
            segments=len(self.graph),
            scenarios=k,
            backend="segmented",
        ) as span:
            known: Dict[str, np.ndarray] = {
                name: np.stack(
                    [m.marginal_distribution(name) for m in models]
                )
                for name in self.circuit.inputs
            }
            #: (provider index, parent, child) -> (K, 4, 4) pair joints,
            #: captured by each provider right after it propagates
            pair_joints: Dict[Tuple[int, str, str], np.ndarray] = {}
            needed = self._needed_pair_joints()
            if self.parallelism > 1 and len(self.graph) > 1:
                from concurrent.futures import ThreadPoolExecutor

                levels = self.graph.levels()
                with ThreadPoolExecutor(max_workers=self.parallelism) as pool:
                    for level in range(max(levels) + 1):
                        members = [
                            i for i, lv in enumerate(levels) if lv == level
                        ]
                        with tracer.span(
                            "segmented.propagate.level",
                            level=level,
                            segments=len(members),
                        ) as level_span:
                            published = pool.map(
                                lambda index: self._propagate_segment_batch(
                                    index,
                                    known,
                                    models,
                                    needed,
                                    pair_joints,
                                    parent_span=level_span,
                                    dtype=dtype,
                                ),
                                members,
                            )
                            for result in published:
                                known.update(result)
            else:
                for index in range(len(self.graph)):
                    known.update(
                        self._propagate_segment_batch(
                            index, known, models, needed, pair_joints, dtype=dtype
                        )
                    )
            iterations, deltas = run_refinement(
                self, known, models=models, needed=needed,
                pair_joints=pair_joints, dtype=dtype,
            )
            self.last_refine = (iterations, float(deltas.max()))
        per_scenario = span.duration / k
        method = (
            Method.SEGMENTED.value
            if len(self.graph) > 1
            else Method.SINGLE_BN.value
        )
        return [
            SwitchingEstimate(
                distributions={line: known[line][j] for line in known},
                compile_seconds=self.compile_seconds,
                propagate_seconds=per_scenario,
                method=method,
                segments=len(self.graph),
                refine_iterations=iterations,
                refine_delta=float(deltas[j]),
            )
            for j in range(k)
        ]

    def _needed_pair_joints(self) -> Dict[int, List[Tuple[str, str]]]:
        """Per provider segment, the (parent, child) boundary pairs
        downstream tree boundaries will request.  Providers capture
        them as they propagate, so consumers -- possibly on other
        worker threads -- never query a provider's engine.  Glue
        children are excluded: their conditionals come from the
        refinement loop's glue estimators, never a live provider."""
        needed: Dict[int, List[Tuple[str, str]]] = {}
        for node in self.graph.nodes:
            for child, parent in node.parent_of.items():
                if child in node.glue_children:
                    continue
                provider_index = self.graph.owner.get(child)
                if provider_index is None:
                    continue
                pairs = needed.setdefault(provider_index, [])
                if (parent, child) not in pairs:
                    pairs.append((parent, child))
        return needed

    def _propagate_segment_batch(
        self,
        index: int,
        known: Dict[str, np.ndarray],
        models: List[InputModel],
        needed: Dict[int, List[Tuple[str, str]]],
        pair_joints: Dict[Tuple[int, str, str], np.ndarray],
        parent_span=None,
        dtype: str = "float64",
        glue_tables: Optional[Dict[str, np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """Refresh one segment's boundary inputs for all K scenarios,
        propagate it, and return the ``(K, 4)`` stacks of the lines it
        owns.

        ``known`` maps each published line to a ``(K, 4)`` stack and is
        only read (the caller merges the return value), so concurrent
        calls for independent segments are safe.  ``parent_span`` nests
        this segment's span under the level span when running on a
        worker thread.  ``pair_joints`` receives this segment's
        ``needed`` pair joints as ``(K, 4, 4)`` stacks; an enumeration
        segment records them inside its scenario loop, because
        :meth:`EnumerationSegment.pair_joint` only reflects the last
        scenario afterwards.  ``glue_tables`` maps glue children to
        ``(K, 4, 4)`` conditional stacks during refinement; in the base
        pass glue children fall back to their independent placeholder.
        """
        from repro.core.enumeration import EnumerationSegment

        node = self.graph[index]
        segment, estimator, owned = node.segment, node.estimator, node.owned
        k = len(models)
        with get_tracer().span(
            "segment.propagate",
            parent=parent_span,
            segment=segment.name,
            scenarios=k,
        ):
            primary, boundary_lines = self._split_segment_inputs(segment)
            parent_of = node.parent_of
            conditionals_b: Dict[str, np.ndarray] = {}
            for child, parent in parent_of.items():
                if child in node.glue_children:
                    if glue_tables is not None and child in glue_tables:
                        conditionals_b[child] = glue_tables[child]
                    continue
                provider = self.graph.owner[child]
                conditionals_b[child] = conditional_rows(
                    pair_joints[(provider, parent, child)], known[child]
                )
            scenario_models: List[InputModel] = []
            for j in range(k):
                priors = {name: known[name][j] for name in boundary_lines}
                if parent_of:
                    boundary: InputModel = TreeBoundaryInputs(
                        priors,
                        parent_of,
                        {
                            child: conditionals_b[child][j]
                            for child in parent_of
                            if child in conditionals_b
                        },
                    )
                else:
                    boundary = FixedMarginalInputs(priors)
                scenario_models.append(
                    SegmentInputs(models[j], primary, boundary)
                )
            published = [
                line for line in segment.internal_lines if line in owned
            ]
            if isinstance(estimator, EnumerationSegment):
                results = []
                pairs = needed.get(index, [])
                for j, scenario in enumerate(scenario_models):
                    estimator.update_inputs(scenario)
                    results.append(estimator.estimate())
                    for parent, child in pairs:
                        key = (index, parent, child)
                        buffer = pair_joints.get(key)
                        if buffer is None:
                            buffer = pair_joints[key] = np.empty(
                                (k, N_STATES, N_STATES)
                            )
                        buffer[j] = estimator.pair_joint(parent, child)
                return {
                    line: np.stack([r.distributions[line] for r in results])
                    for line in published
                }
            # Junction-tree segment: the stacked API returns (K, 4)
            # stacks directly, skipping K per-scenario dicts that would
            # be re-stacked here anyway.  Only the owned chunk publishes
            # estimates (duplicated lookback gates exist solely to
            # rebuild local correlation), so only its marginals are
            # extracted.
            stacks, _ = estimator.estimate_many_stacked(
                scenario_models, published, dtype=dtype
            )
            for parent, child in needed.get(index, []):
                pair_joints[(index, parent, child)] = (
                    estimator.junction_tree.joint_marginal_batch([parent, child])
                )
            return {line: stacks[line] for line in published}

    def reset_propagation(self) -> None:
        """Force every segment's next estimate to be a full pass (see
        :meth:`SwitchingActivityEstimator.reset_propagation`)."""
        for node in self.graph.nodes if self.graph is not None else []:
            node.estimator.reset_propagation()

    # ------------------------------------------------------------------

    @property
    def num_segments(self) -> int:
        self.compile()
        return len(self.graph)

    def propagation_counters(self) -> PropagationCounters:
        """Engine work counters summed over every junction-tree segment.

        Enumeration segments do no message passing and contribute
        nothing; before :meth:`compile` the totals are all zero.
        """
        totals = PropagationCounters()
        for node in self.graph.nodes if self.graph is not None else []:
            if isinstance(node.estimator, SwitchingActivityEstimator):
                totals.add(node.estimator.propagation_counters())
        return totals

    def factor_bytes(self) -> int:
        """Preallocated propagation-buffer bytes summed over segments."""
        if self.graph is None:
            return 0
        return sum(
            node.estimator.factor_bytes()
            for node in self.graph.nodes
            if isinstance(node.estimator, SwitchingActivityEstimator)
        )

    def support_stats(self) -> Dict[str, object]:
        """Support-analysis summary aggregated over junction-tree segments.

        Enumeration segments have no clique tables and contribute
        nothing; density is feasible/total over the aggregate.
        """
        self.compile()
        totals = {"cliques": 0, "sparse_cliques": 0, "total_states": 0,
                  "feasible_states": 0}
        for node in self.graph.nodes:
            if not isinstance(node.estimator, SwitchingActivityEstimator):
                continue
            stats = node.estimator.support_stats()
            for key in totals:
                totals[key] += stats[key]
        total = totals["total_states"]
        return {
            "kernel": self.kernel,
            **totals,
            "support_density": (
                totals["feasible_states"] / total if total else 1.0
            ),
        }

    def segment_stats(self) -> List[Dict[str, float]]:
        """Junction-tree statistics per segment (for reports/ablations)."""
        from repro.core.enumeration import EnumerationSegment

        self.compile()
        stats = []
        for node in self.graph.nodes:
            if isinstance(node.estimator, EnumerationSegment):
                entry = dict(node.estimator.stats())
                entry["backend"] = "enumeration"
            else:
                entry = dict(node.estimator.junction_tree.stats())
                entry["backend"] = "junction-tree"
            entry["gates"] = node.segment.num_gates
            entry["owned_gates"] = len(node.owned)
            entry["name"] = node.segment.name
            entry["glue_edges"] = len(node.glue_children)
            stats.append(entry)
        return stats
