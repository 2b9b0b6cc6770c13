"""Compiled propagation schedules and in-place Hugin kernels.

The paper's headline split is *compile once, re-propagate in
milliseconds*: junction-tree construction (moralization, triangulation,
spanning tree) is paid once per circuit, while every new set of input
statistics only re-runs message passing.  This module makes the second
half of that bargain real:

- :class:`PropagationSchedule` is computed once per junction tree.  It
  fixes the collect/distribute message order, canonicalizes every
  clique's variable order, and precomputes, per directed message, the
  reduction kernels and broadcast shapes that the naive
  :meth:`Factor._expand_to` path re-derives on every single message.

- :class:`PropagationEngine` owns preallocated clique belief buffers
  and separator message buffers and runs the Hugin update with in-place
  numpy kernels: ``np.einsum(..., out=)`` marginalizes into the
  separator buffers, ``np.multiply(..., out=)`` absorbs ratios, and the
  0/0 = 0 division mask is applied with ``np.divide(..., where=)`` on
  separator-sized arrays only (never on clique tables).

- **Batched propagation**: every engine carries a leading batch axis of
  length ``batch_size=K`` (default 1) on every belief/message buffer
  and propagates K independent input-statistics scenarios in one
  vectorized collect/distribute pass; a single query is simply a K=1
  batch.  Clique potentials may be shared across the batch (gate CPDs
  -- a plain ``(*clique_shape)`` array broadcast over the batch axis)
  or per-scenario (:meth:`set_potential_batch` with a
  ``(K, *clique_shape)`` stack).  Dirty tracking stays shared across
  the batch: only input-clique potentials differ per scenario, so a
  sweep repropagates exactly the input-reachable subtree, batched.

- **Dirty-clique repropagation**: callers mark cliques whose potentials
  changed (:meth:`PropagationEngine.set_potential`); the next
  :meth:`~PropagationEngine.propagate` recomputes only the upward
  messages whose source subtree contains a dirty clique and the
  downward messages their changes invalidate.  Subtrees the update
  cannot reach are skipped entirely.  Setting a potential whose values
  are array-equal to the current one is a no-op (the clique stays
  clean).

The message algebra is the classic Hugin scheme written with cached
directed messages: during collect, each clique's *partial* belief
``psi * prod(child messages)`` is built bottom-up and its separator
marginal becomes the upward message; during distribute, the downward
message is ``marg(parent belief) / upward message`` (a separator-sized
division), absorbed into the child belief in place.  After both passes
every belief equals the exact joint marginal of its clique's scope
times the probability of evidence -- identical, up to floating-point
association order, to the Factor-based reference path in
:mod:`repro.bayesian.junction`.

Every kernel is elementwise or a reduction over non-batch axes, so
batch element ``k`` of a K-scenario propagation goes through exactly
the same arithmetic, in the same order, as a K=1 propagation over
scenario ``k``'s potentials -- the results agree *bitwise*, not just to
tolerance, whenever the two runs take the same dirty paths (e.g. both
are first propagations, or every sweep updates the same cliques).

- **Determinism-aware sparse kernels**: gate CPDs are 0/1 indicator
  tables, so most entries of a wide clique potential are *structurally*
  impossible under every input model.  Given per-clique feasibility
  masks (:class:`PropagationSchedule` ``clique_masks``), the schedule
  runs one boolean collect/distribute pass to compute each clique's and
  separator's exact feasible support, then compiles *packed* kernels
  for cliques below a density threshold: beliefs live in ``(nnz,)`` /
  ``(K, nnz)`` buffers, messages absorb through precomputed gather
  indices, and separator marginals use a grouped ``np.add.reduceat``
  over index arrays instead of a dense einsum.  Separator buffers stay
  dense (they are small), so sparse and dense cliques mix freely in one
  tree.  The packed kernels keep the across-K bitwise-parity
  property above -- every gather is elementwise and every ``reduceat``
  segment sums left-to-right per batch row -- but sparse results differ
  from *dense* results in the last few ulps (different association
  order), hence the ``<= 1e-12`` sparse-vs-dense verification bar.
"""

from __future__ import annotations

import functools
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bayesian.factor import Factor
from repro.errors import ConcurrentPropagationError, ZeroBeliefError
from repro.obs.metrics import get_metrics

__all__ = ["PropagationCounters", "PropagationSchedule", "PropagationEngine"]


def _exclusive(method):
    """Reentrancy tripwire for the buffer-mutating engine entry points.

    The engine's belief/message buffers are preallocated and updated in
    place, so two threads inside one engine silently corrupt each
    other's results.  This guard is *detection, not synchronization*: a
    second thread entering while another holds the guard gets an
    immediate typed :class:`ConcurrentPropagationError` instead of
    blocking (blocking would just serialize the corruption-free case
    while hiding the sharing bug).  Callers that want concurrency give
    each thread its own engine -- see ``repro.serve``'s per-model
    engine pool.  One uncontended ``Lock.acquire`` per *call* (not per
    message), so the single-thread cost is noise.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        if not self._guard.acquire(blocking=False):
            raise ConcurrentPropagationError(
                f"concurrent PropagationEngine.{method.__name__}: another "
                "thread is inside this engine and the preallocated "
                "belief/message buffers are mutated in place; use one "
                "engine per thread (e.g. repro.serve's engine pool)"
            )
        try:
            return method(self, *args, **kwargs)
        finally:
            self._guard.release()

    return wrapper


def _reduction_plan(shape: Tuple[int, ...], keep_axes: Sequence[int]):
    """Compile one sum-reduction ``shape -> keep_axes`` into a kernel plan.

    Adjacent axes with the same fate (kept / summed) are merged into
    single axes -- a pure reshape view on the C-contiguous engine
    buffers -- and the merged pattern picks the cheapest kernel:

    - ``("copy",)``                       nothing summed;
    - ``("dot", d, ones)``                one trailing summed run: a
      BLAS row-dot ``view(-1, d) @ ones``;
    - ``("vecmat", d, r, ones)``          one leading summed run:
      ``ones @ view(-1, d, r)``;
    - ``("einsum", mshape, in, out, oshape)``  the general interleaved
      case, einsum over the merged (coarser) axes.

    Every kernel reduces batch slice ``k`` of a ``(K, *shape)`` buffer
    with exactly the same arithmetic whatever ``K`` is (the leading
    batch axis is always kept, so it merges into -- or stacks ahead of
    -- the leading kept run), which is what keeps a row of a K-scenario
    propagation bitwise-identical to a K=1 propagation.  Plans are
    computed once per schedule and shared by engines of every K.
    """
    keep = set(keep_axes)
    runs: List[List[int]] = []  # [is_kept, merged size]
    for axis, size in enumerate(shape):
        flag = 1 if axis in keep else 0
        if runs and runs[-1][0] == flag:
            runs[-1][1] *= size
        else:
            runs.append([flag, size])
    drops = [i for i, (flag, _) in enumerate(runs) if not flag]
    if not drops:
        return ("copy",)
    if len(drops) == 1 and drops[0] == len(runs) - 1:
        d = runs[-1][1]
        return ("dot", d, np.ones(d))
    if len(drops) == 1 and drops[0] == 0:
        d = runs[0][1]
        r = 1
        for _, size in runs[1:]:
            r *= size
        return ("vecmat", d, r, np.ones(d))
    mshape = tuple(size for _, size in runs)
    batch_label = len(mshape)
    in_axes = [batch_label] + list(range(batch_label))
    out_axes = [batch_label] + [i for i, (flag, _) in enumerate(runs) if flag]
    out_shape = tuple(size for flag, size in runs if flag)
    return ("einsum", mshape, in_axes, out_axes, out_shape)


def _reduce_sum(src: np.ndarray, plan, out: np.ndarray) -> None:
    """Run a :func:`_reduction_plan` kernel: sum ``src`` into ``out``.

    Batch-agnostic: the ``-1`` reshape folds the leading batch axis
    into the row dimension, so slice ``k`` goes through the identical
    BLAS or einsum call for every ``K``.  Both arrays must be
    C-contiguous (all engine buffers are).
    """
    kind = plan[0]
    if kind == "dot":
        np.dot(src.reshape(-1, plan[1]), plan[2], out=out.reshape(-1))
    elif kind == "vecmat":
        np.matmul(
            plan[3], src.reshape(-1, plan[1], plan[2]), out=out.reshape(-1, plan[2])
        )
    elif kind == "einsum":
        _, mshape, in_axes, out_axes, out_shape = plan
        np.einsum(
            src.reshape((-1,) + mshape),
            in_axes,
            out_axes,
            out=out.reshape((-1,) + out_shape),
        )
    else:  # "copy": separator spans the whole clique
        np.copyto(out, src)


def _cast_plan(plan, dtype):
    """Re-type the constant vectors of a reduction plan.

    ``np.dot`` / ``np.matmul`` with an ``out=`` whose dtype differs from
    the product's would raise, so a non-float64 engine keeps
    dtype-matched copies of the shared plans' ``ones`` vectors.
    """
    if plan[0] == "dot":
        return ("dot", plan[1], plan[2].astype(dtype))
    if plan[0] == "vecmat":
        return ("vecmat", plan[1], plan[2], plan[3].astype(dtype))
    return plan


def _sep_flat_indices(
    flat_idx: np.ndarray,
    shape: Tuple[int, ...],
    keep_axes: Sequence[int],
    out_shape: Tuple[int, ...],
) -> np.ndarray:
    """Flat index on ``keep_axes`` of each packed clique entry."""
    coords = np.unravel_index(flat_idx, shape)
    return np.ravel_multi_index(tuple(coords[a] for a in keep_axes), out_shape)


def _sparse_reduce_plan(
    flat_idx: np.ndarray,
    shape: Tuple[int, ...],
    keep_axes: Sequence[int],
    out_shape: Tuple[int, ...],
):
    """Compile one packed-entries -> dense-target sum reduction.

    Returns ``(perm, seg_starts, out_index, covers_all)``: gather the
    packed entries with ``perm`` (``None`` when they are already in
    target order), sum each run of equal target indices with
    ``np.add.reduceat`` at ``seg_starts``, and scatter the segment sums
    to ``out_index``; ``covers_all`` means every target entry receives a
    segment, so the zero-fill can be skipped.
    """
    target_idx = _sep_flat_indices(flat_idx, shape, keep_axes, out_shape)
    perm = np.argsort(target_idx, kind="stable")
    if np.array_equal(perm, np.arange(perm.size)):
        perm, sorted_idx = None, target_idx
    else:
        sorted_idx = target_idx[perm]
    out_index, seg_starts = np.unique(sorted_idx, return_index=True)
    covers_all = out_index.size == int(np.prod(out_shape))
    return (perm, seg_starts, out_index, covers_all)


def _sparse_reduce(
    src: np.ndarray, plan, out: np.ndarray, scratch: Optional[np.ndarray] = None
) -> None:
    """Sum a packed ``lead + (nnz,)`` buffer onto a dense target.

    ``plan`` comes from :func:`_sparse_reduce_plan`.  Infeasible target
    entries are zero-filled (they receive no mass by construction).
    Per-segment ``reduceat`` sums are sequential left-to-right per batch
    row, so batch row ``k`` goes through the same arithmetic for every
    ``K`` -- the engine's across-K bitwise parity survives the sparse
    path.  ``scratch`` (a ``lead + (nnz,)`` buffer)
    avoids the gather temporary when a permutation is needed.
    """
    perm, seg_starts, out_index, covers_all = plan
    if perm is not None:
        if scratch is None:
            src = src[..., perm]
        else:
            np.take(src, perm, axis=-1, out=scratch)
            src = scratch
    segments = np.add.reduceat(src, seg_starts, axis=-1)
    flat = out.reshape(src.shape[:-1] + (-1,))
    if covers_all:
        np.copyto(flat, segments)
    else:
        flat.fill(0.0)
        flat[..., out_index] = segments


class _SparseClique:
    """Packed-entry index plans for one sparse clique.

    The packed order is the clique's feasible entries sorted by their
    parent-edge separator index (plain ascending flat order at a root),
    so the hottest reduction -- the upward message -- needs no gather
    permutation.  ``gathers[j]`` maps each packed entry to its flat
    separator index toward neighbor ``j`` (the message-absorb gather);
    ``reduce_plans[j]`` is the outgoing reduce plan toward ``j``.
    """

    __slots__ = ("flat_idx", "nnz", "gathers", "reduce_plans")

    def __init__(self, idx: int, mask: np.ndarray, schedule: "PropagationSchedule"):
        shape = schedule.shapes[idx]
        flat = np.flatnonzero(mask)
        parent = schedule.parent[idx]
        if parent is not None:
            msg = schedule.messages[(idx, parent)]
            sep_idx = _sep_flat_indices(flat, shape, msg.keep_axes, msg.sep_shape)
            flat = flat[np.argsort(sep_idx, kind="stable")]
        self.flat_idx = flat
        self.nnz = int(flat.size)
        self.gathers: Dict[int, np.ndarray] = {}
        self.reduce_plans: Dict[int, tuple] = {}
        neighbors = ([parent] if parent is not None else []) + list(
            schedule.children[idx]
        )
        for j in neighbors:
            msg = schedule.messages[(idx, j)]
            self.gathers[j] = _sep_flat_indices(
                flat, shape, msg.keep_axes, msg.sep_shape
            )
            self.reduce_plans[j] = _sparse_reduce_plan(
                flat, shape, msg.keep_axes, msg.sep_shape
            )


class PropagationCounters:
    """Always-on work counters of one :class:`PropagationEngine`.

    Plain integer adds per message -- negligible next to the einsum they
    count -- so the engine can report its work (and benchmarks can emit
    a breakdown) without the global metrics registry being enabled.
    ``flops`` is the standard table-touch estimate: one unit per entry
    of each clique table marginalized or multiplied, scaled by the
    batch size.  ``scenarios_propagated`` counts ``K`` per
    propagation; ``potentials_unchanged`` counts ``set_potential``
    calls skipped because the new values equalled the installed ones.
    """

    __slots__ = (
        "propagations",
        "messages_collect",
        "messages_distribute",
        "cliques_repropagated",
        "cliques_skipped",
        "zero_resurrections",
        "flops",
        "scenarios_propagated",
        "potentials_unchanged",
    )

    _FIELDS = __slots__

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for field in self._FIELDS:
            setattr(self, field, 0)

    @property
    def messages(self) -> int:
        """Total directed messages computed (collect + distribute)."""
        return self.messages_collect + self.messages_distribute

    def as_dict(self) -> Dict[str, int]:
        out = {field: getattr(self, field) for field in self._FIELDS}
        out["messages"] = self.messages
        return out

    def add(self, other: "PropagationCounters") -> None:
        """Accumulate another engine's counters (segment aggregation)."""
        for field in self._FIELDS:
            setattr(self, field, getattr(self, field) + getattr(other, field))


class _Message:
    """Precompiled metadata for one directed message u -> v.

    Holds no buffers: message storage lives on the engine so one
    immutable schedule can be shared by engines of any batch size over
    the same tree.
    """

    __slots__ = (
        "source",
        "target",
        "sep_vars",
        "sep_shape",
        "source_axes",
        "keep_axes",
        "plan",
        "expand_shape",
    )

    def __init__(
        self,
        source: int,
        target: int,
        sep_vars: Tuple[str, ...],
        source_order: Tuple[str, ...],
        target_order: Tuple[str, ...],
        source_shape: Tuple[int, ...],
        sep_shape: Tuple[int, ...],
    ):
        self.source = source
        self.target = target
        self.sep_vars = sep_vars
        self.sep_shape = sep_shape
        #: full axis list of the source clique (einsum integer form)
        self.source_axes = list(range(len(source_order)))
        #: axes of the source clique kept by the marginalization; both
        #: clique and separator orders are canonical (sorted), so the
        #: kept axes are increasing and the reduction output needs no
        #: transpose.
        self.keep_axes = [source_order.index(v) for v in sep_vars]
        #: compiled reduction kernel (merged axes, BLAS where the
        #: pattern allows); shared by engines of every batch size.
        self.plan = _reduction_plan(source_shape, self.keep_axes)
        #: reshape that broadcasts a separator table against the target
        #: clique without any transpose (again: canonical orders).
        sep_cards = dict(zip(sep_vars, sep_shape))
        self.expand_shape = tuple(sep_cards.get(v, 1) for v in target_order)


class PropagationSchedule:
    """Fixed message order + axis metadata for one junction tree.

    Parameters
    ----------
    cliques:
        Clique scopes (frozensets of variable names).
    edges:
        Undirected tree edges as ``(u, v)`` clique-index pairs.
    cardinalities:
        State counts per variable.
    clique_masks:
        Optional per-clique 0/1 feasibility masks in the clique's
        canonical (sorted) variable order (``None`` entries mean full
        support).  Typically the AND of the deterministic gate CPDs
        assigned to each clique; non-deterministic CPDs must contribute
        all-ones so the analysis stays sound under *every* input model.
    kernel:
        ``"dense"`` (default) ignores the masks for kernel selection;
        ``"auto"`` packs cliques whose propagated support density is at
        most ``density_threshold`` (and whose table has at least
        ``min_sparse_states`` entries -- tiny tables are faster dense);
        ``"sparse"`` packs every clique with any infeasible entry.
    density_threshold / min_sparse_states:
        The ``"auto"`` selection knobs.

    The schedule is immutable once built and is shared by every
    :class:`PropagationEngine` propagation over the same tree,
    whatever its batch size.  Support analysis runs once here,
    so engines of any batch size (and pickled artifacts) reuse it.
    """

    def __init__(
        self,
        cliques: Sequence[frozenset],
        edges: Iterable[Tuple[int, int]],
        cardinalities: Dict[str, int],
        clique_masks: Optional[Sequence[Optional[np.ndarray]]] = None,
        kernel: str = "dense",
        density_threshold: float = 0.25,
        min_sparse_states: int = 256,
    ):
        if kernel not in ("auto", "dense", "sparse"):
            raise ValueError(f"unknown kernel mode {kernel!r}")
        self.n_cliques = len(cliques)
        #: canonical (sorted) variable order per clique
        self.orders: List[Tuple[str, ...]] = [tuple(sorted(c)) for c in cliques]
        self.shapes: List[Tuple[int, ...]] = [
            tuple(cardinalities[v] for v in order) for order in self.orders
        ]
        #: table entries per clique (FLOP estimates, memory accounting)
        self.sizes: List[int] = [int(np.prod(s)) if s else 1 for s in self.shapes]

        neighbors: List[List[int]] = [[] for _ in range(self.n_cliques)]
        for u, v in edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        for adj in neighbors:
            adj.sort()  # deterministic DFS regardless of edge insertion order

        #: DFS pre-order (node, parent) pairs, one sublist per tree
        #: component; collect walks it in reverse, distribute forward.
        self.components: List[List[Tuple[int, Optional[int]]]] = []
        #: children of each node under the rooted orientation
        self.children: List[List[int]] = [[] for _ in range(self.n_cliques)]
        self.parent: List[Optional[int]] = [None] * self.n_cliques
        self.roots: List[int] = []
        visited: Set[int] = set()
        for root in range(self.n_cliques):
            if root in visited:
                continue
            self.roots.append(root)
            order: List[Tuple[int, Optional[int]]] = []
            stack: List[Tuple[int, Optional[int]]] = [(root, None)]
            while stack:
                node, parent = stack.pop()
                if node in visited:
                    continue
                visited.add(node)
                order.append((node, parent))
                if parent is not None:
                    self.parent[node] = parent
                    self.children[parent].append(node)
                for neighbor in reversed(neighbors[node]):
                    if neighbor not in visited:
                        stack.append((neighbor, node))
            self.components.append(order)

        #: directed messages keyed by (source, target)
        self.messages: Dict[Tuple[int, int], _Message] = {}
        for component in self.components:
            for node, parent in component:
                if parent is None:
                    continue
                sep_vars = tuple(sorted(cliques[node] & cliques[parent]))
                sep_shape = tuple(cardinalities[v] for v in sep_vars)
                for src, dst in ((node, parent), (parent, node)):
                    self.messages[(src, dst)] = _Message(
                        src,
                        dst,
                        sep_vars,
                        self.orders[src],
                        self.orders[dst],
                        self.shapes[src],
                        sep_shape,
                    )

        #: variable -> (clique index, axis) for batched marginal sweeps
        self.variable_axis: Dict[str, Tuple[int, int]] = {}
        for idx, order in enumerate(self.orders):
            for axis, var in enumerate(order):
                self.variable_axis.setdefault(var, (idx, axis))

        #: resolved kernel mode this schedule was compiled for
        self.kernel = kernel
        #: per-clique feasible-state masks (``None`` = full support)
        self.supports: List[Optional[np.ndarray]] = [None] * self.n_cliques
        #: feasible entries per clique (== ``sizes`` where support is full)
        self.support_nnz: List[int] = list(self.sizes)
        #: per-clique kernel choice; ``True`` cliques use packed buffers
        self.sparse: List[bool] = [False] * self.n_cliques
        #: compiled index plans for the sparse cliques
        self.sparse_cliques: Dict[int, _SparseClique] = {}
        #: entries each kernel actually touches per clique pass (``nnz``
        #: when sparse) -- the unit of the engine's FLOP estimates
        self.work_sizes: List[int] = list(self.sizes)
        #: feasible separator entries per directed tree edge (diagnostics)
        self.sep_support_nnz: Dict[Tuple[int, int], int] = {}
        if (
            kernel != "dense"
            and clique_masks is not None
            and any(mask is not None for mask in clique_masks)
        ):
            self._analyze_support(
                clique_masks, kernel, density_threshold, min_sparse_states
            )

    def _analyze_support(
        self,
        clique_masks: Sequence[Optional[np.ndarray]],
        kernel: str,
        density_threshold: float,
        min_sparse_states: int,
    ) -> None:
        """Propagate feasibility masks and pick per-clique kernels.

        One boolean collect/distribute pass over the message schedule: a
        clique's *partial* mask is its CPD mask ANDed with every child's
        upward mask (ANY-reduced onto the separator), and its final mask
        additionally ANDs the ANY-reduce of the parent's final mask.
        The result is exact for Hugin propagation: wherever a final mask
        is 0, the calibrated belief entry is structurally 0 under every
        assignment of the unmasked (input) potentials, because an
        upward-message zero forces the matching parent-belief slice to
        zero and vice versa.
        """

        def any_reduce(mask: np.ndarray, keep_axes: Sequence[int]) -> np.ndarray:
            axes = tuple(a for a in range(mask.ndim) if a not in keep_axes)
            return mask.any(axis=axes) if axes else mask

        n = self.n_cliques
        psi = [
            np.ones(self.shapes[i], dtype=bool)
            if clique_masks[i] is None
            else np.asarray(clique_masks[i], dtype=bool)
            for i in range(n)
        ]
        partial: List[Optional[np.ndarray]] = [None] * n
        up: Dict[Tuple[int, int], np.ndarray] = {}
        for component in self.components:
            for node, parent in reversed(component):
                mask = psi[node]
                for child in self.children[node]:
                    msg = self.messages[(child, node)]
                    mask = mask & up[(child, node)].reshape(msg.expand_shape)
                partial[node] = mask
                if parent is not None:
                    msg = self.messages[(node, parent)]
                    up[(node, parent)] = any_reduce(mask, msg.keep_axes)
        final: List[Optional[np.ndarray]] = [None] * n
        for component in self.components:
            for node, parent in component:
                if parent is None:
                    final[node] = partial[node]
                    continue
                msg = self.messages[(parent, node)]
                down = any_reduce(final[parent], msg.keep_axes)
                final[node] = partial[node] & down.reshape(msg.expand_shape)
                sep = down & up[(node, parent)]
                sep_nnz = int(np.count_nonzero(sep))
                self.sep_support_nnz[(parent, node)] = sep_nnz
                self.sep_support_nnz[(node, parent)] = sep_nnz

        for idx in range(n):
            mask = final[idx]
            nnz = int(np.count_nonzero(mask))
            self.support_nnz[idx] = nnz
            size = self.sizes[idx]
            if nnz >= size or nnz == 0:
                # Full support -- or a degenerate, everywhere-infeasible
                # clique (contradictory determinism): stay dense.
                continue
            self.supports[idx] = mask
            if kernel == "sparse":
                pick = True
            else:
                pick = (
                    nnz / size <= density_threshold
                    and size >= min_sparse_states
                )
            if pick:
                self.sparse[idx] = True
                self.work_sizes[idx] = nnz
                self.sparse_cliques[idx] = _SparseClique(idx, mask, self)


class PropagationEngine:
    """Preallocated Hugin propagation with dirty-clique tracking.

    The engine caches, between propagations: the clique potentials
    (``psi``), every directed separator message, and every calibrated
    clique belief.  :meth:`set_potential` replaces one ``psi`` and marks
    its clique dirty; :meth:`propagate` then recomputes only what the
    change can reach.  With no dirty cliques, :meth:`propagate` is a
    no-op.

    Parameters
    ----------
    schedule:
        The shared, immutable :class:`PropagationSchedule`.
    batch_size:
        ``K >= 1`` (default 1): every belief and message buffer carries
        a leading batch axis of length ``K`` and each :meth:`propagate`
        call propagates K scenarios.  Potentials may be shared across
        the batch (:meth:`set_potential`, broadcast) or per-scenario
        (:meth:`set_potential_batch`), and :meth:`marginals` returns
        ``(K, card)`` arrays.  A single query is a K=1 engine.
    dtype:
        Buffer dtype, ``float64`` (default) or ``float32``.  Float32
        halves the ``K x`` buffer footprint and speeds memory-bound
        sweeps at a documented ~``1e-6`` relative tolerance.  Shared
        potentials installed via :meth:`set_potential` remain float64
        (ufunc ``out=`` casting handles the mixed multiply), while
        per-scenario stacks are cast on install.

    Cliques the schedule compiled as sparse keep their beliefs in
    packed ``(K, nnz)`` buffers; separator messages stay dense.
    :meth:`belief` scatters one row back to a dense table on demand
    (diagnostics only).
    """

    def __init__(
        self,
        schedule: PropagationSchedule,
        batch_size: int = 1,
        dtype=np.float64,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"unsupported engine dtype {dtype}")
        self.schedule = schedule
        self.batch_size = int(batch_size)
        self.dtype = dtype
        lead = (self.batch_size,)
        n = schedule.n_cliques
        packed = schedule.sparse_cliques
        self._psi: List[Optional[np.ndarray]] = [None] * n
        self._beta: List[np.ndarray] = [
            np.empty(
                lead + ((packed[i].nnz,) if i in packed else schedule.shapes[i]),
                dtype=dtype,
            )
            for i in range(n)
        ]
        #: message buffers and scratch separator buffers, per directed edge
        self._msg: Dict[Tuple[int, int], np.ndarray] = {
            key: np.empty(lead + msg.sep_shape, dtype=dtype)
            for key, msg in schedule.messages.items()
        }
        self._scratch: Dict[Tuple[int, int], np.ndarray] = {
            key: np.empty(lead + msg.sep_shape, dtype=dtype)
            for key, msg in schedule.messages.items()
        }
        #: packed gather scratch, one per sparse clique
        self._sp_scratch: Dict[int, np.ndarray] = {
            i: np.empty(lead + (sp.nnz,), dtype=dtype) for i, sp in packed.items()
        }
        #: per-edge reduction kernels (shared, batch-agnostic) and
        #: broadcast shapes
        self._plans = {k: m.plan for k, m in schedule.messages.items()}
        if dtype != np.float64:
            self._plans = {k: _cast_plan(p, dtype) for k, p in self._plans.items()}
        self._expand = {
            k: lead + m.expand_shape for k, m in schedule.messages.items()
        }
        #: lazily compiled reduction plans for marginal sweeps, keyed by
        #: (clique index, kept axes)
        self._marginal_plans: Dict[Tuple[int, Tuple[int, ...]], tuple] = {}
        self._dirty: Set[int] = set(range(n))
        self._ever_propagated = False
        #: reentrancy tripwire (see :func:`_exclusive`); never held
        #: across calls, so pickling drops and recreates it.
        self._guard = threading.Lock()
        #: always-on work counters (cheap int adds; see PropagationCounters)
        self.counters = PropagationCounters()
        #: counter totals already mirrored into the global registry
        self._published: Dict[str, int] = {}
        #: bytes held by the preallocated belief/message/scratch buffers
        self.factor_bytes = (
            sum(beta.nbytes for beta in self._beta)
            + sum(buf.nbytes for buf in self._msg.values())
            + sum(buf.nbytes for buf in self._scratch.values())
            + sum(buf.nbytes for buf in self._sp_scratch.values())
        )

    def __getstate__(self):
        # Locks do not pickle; the guard is never held across calls, so
        # dropping it here and recreating it on load is exact.
        state = dict(self.__dict__)
        del state["_guard"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._guard = threading.Lock()

    # ------------------------------------------------------------------
    # Potential updates
    # ------------------------------------------------------------------

    @_exclusive
    def set_potential(self, idx: int, potential: Factor) -> None:
        """Install clique ``idx``'s potential and mark it dirty.

        ``potential`` must span exactly the clique's scope; any axis
        order is accepted and canonicalized here (a transpose view, no
        copy).  The table is shared by every batch element (it
        broadcasts over the batch axis) -- use
        :meth:`set_potential_batch` for per-scenario tables.

        Setting values array-equal to the currently installed potential
        is a no-op: the clique is left clean so sweeps with repeated
        scenarios skip the unreached subtree.  Callers must therefore
        never mutate an installed table in place.
        """
        order = self.schedule.orders[idx]
        if potential.variables != order:
            potential = potential.permute(order)
        if potential.values.shape != self.schedule.shapes[idx]:
            raise ValueError(
                f"potential for clique {idx} has shape {potential.values.shape}, "
                f"expected {self.schedule.shapes[idx]}"
            )
        values = potential.values
        sp = self.schedule.sparse_cliques.get(idx)
        if sp is not None:
            # Packing keeps only the *final* (calibrated) support.  An
            # initial potential may carry mass outside it -- entries the
            # message products annihilate -- and dropping that mass here
            # is exact: such entries only ever feed separator indices
            # whose support is empty, which in turn only touch other
            # out-of-support entries.  Soundness against *changed*
            # deterministic CPDs is enforced upstream
            # (JunctionTree.update_cpds re-checks recorded supports).
            values = values.reshape(-1)[sp.flat_idx]
        self._install_psi(idx, values)

    @_exclusive
    def set_potential_batch(self, idx: int, values: np.ndarray) -> None:
        """Install per-scenario potentials for clique ``idx``.

        ``values`` is a ``(K, *clique_shape)`` stack in the clique's
        canonical (sorted) variable order; scenario ``k``'s table is
        ``values[k]``.  On a clique the schedule packs, ``values`` may
        instead be the packed ``(K, nnz)`` stack (the entries at
        ``sparse_cliques[idx].flat_idx``, in packed order), which is
        installed as-is; a dense stack is packed here.  The same
        skip-if-unchanged rule as :meth:`set_potential` applies.
        """
        values = np.asarray(values, dtype=self.dtype)
        expected = (self.batch_size,) + self.schedule.shapes[idx]
        sp = self.schedule.sparse_cliques.get(idx)
        packed = None if sp is None else (self.batch_size, sp.nnz)
        if values.shape == expected:
            if sp is not None:
                # Same silent out-of-support drop as set_potential
                # (exact; see the comment there).
                values = values.reshape(self.batch_size, -1)[:, sp.flat_idx]
        elif values.shape != packed:
            also = "" if packed is None else f" or packed {packed}"
            raise ValueError(
                f"batched potential for clique {idx} has shape {values.shape}, "
                f"expected {expected}{also}"
            )
        self._install_psi(idx, values)

    def _install_psi(self, idx: int, values: np.ndarray) -> None:
        old = self._psi[idx]
        if old is not None and old.shape == values.shape and np.array_equal(old, values):
            self.counters.potentials_unchanged += 1
            return
        self._psi[idx] = values
        self._dirty.add(idx)

    @property
    def dirty(self) -> Set[int]:
        return set(self._dirty)

    def mark_all_dirty(self) -> None:
        self._dirty = set(range(self.schedule.n_cliques))

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _seed_belief(self, node: int) -> None:
        """Rebuild ``node``'s partial belief: psi times child messages.

        Dense cliques use the fused first multiply (psi * first child
        message lands in beta directly -- same elementwise arithmetic as
        copy-then-multiply, one full pass cheaper).  Packed cliques
        gather each child message at the packed entries' separator
        indices and multiply elementwise, never materializing the dense
        table.
        """
        schedule = self.schedule
        beta = self._beta[node]
        psi = self._psi[node]
        children = schedule.children[node]
        sp = schedule.sparse_cliques.get(node)
        if sp is None:
            if children:
                key = (children[0], node)
                np.multiply(
                    psi, self._msg[key].reshape(self._expand[key]), out=beta
                )
                for child in children[1:]:
                    key = (child, node)
                    np.multiply(
                        beta, self._msg[key].reshape(self._expand[key]), out=beta
                    )
            else:
                np.copyto(beta, psi)
            return
        if not children:
            np.copyto(beta, psi)
            return
        scratch = self._sp_scratch[node]
        lead = beta.shape[:-1]
        child = children[0]
        msg = self._msg[(child, node)].reshape(lead + (-1,))
        np.take(msg, sp.gathers[child], axis=-1, out=scratch)
        np.multiply(psi, scratch, out=beta)
        for child in children[1:]:
            msg = self._msg[(child, node)].reshape(lead + (-1,))
            np.take(msg, sp.gathers[child], axis=-1, out=scratch)
            np.multiply(beta, scratch, out=beta)

    @_exclusive
    def propagate(self) -> None:
        """Collect + distribute, touching only dirty-reachable messages."""
        if not self._dirty and self._ever_propagated:
            return
        schedule = self.schedule
        if any(psi is None for psi in self._psi):
            missing = [i for i, psi in enumerate(self._psi) if psi is None]
            raise RuntimeError(f"cliques {missing} have no potential set")
        dirty = (
            self._dirty
            if self._ever_propagated
            else set(range(schedule.n_cliques))
        )
        counters = self.counters
        scale = self.batch_size

        # Which cliques rebuild during collect: a clique is up-dirty if
        # it is dirty itself or any child's upward message changed.
        up = [False] * schedule.n_cliques
        for component in schedule.components:
            for node, parent in reversed(component):
                if node in dirty:
                    up[node] = True
                if up[node] and parent is not None:
                    up[parent] = True
        repropagated = sum(up)
        counters.cliques_repropagated += repropagated
        counters.cliques_skipped += schedule.n_cliques - repropagated

        # Collect: rebuild partial beliefs bottom-up, refresh upward
        # messages.  Clean subtrees are skipped -- their cached messages
        # feed the rebuild of their up-dirty ancestors.
        for component in schedule.components:
            for node, parent in reversed(component):
                if not up[node]:
                    continue
                self._seed_belief(node)
                children = schedule.children[node]
                if children:
                    counters.flops += (
                        len(children) * schedule.work_sizes[node] * scale
                    )
                if parent is not None:
                    key = (node, parent)
                    sp = schedule.sparse_cliques.get(node)
                    if sp is None:
                        _reduce_sum(self._beta[node], self._plans[key], self._msg[key])
                    else:
                        _sparse_reduce(
                            self._beta[node],
                            sp.reduce_plans[parent],
                            self._msg[key],
                            self._sp_scratch[node],
                        )
                    counters.messages_collect += 1
                    counters.flops += schedule.work_sizes[node] * scale

        # Distribute: parent beliefs are complete when visited in
        # pre-order.  A changed parent belief refreshes the downward
        # message (separator-sized division by the upward message, with
        # the 0/0 = 0 mask) and absorbs it into the child.  A clean
        # parent means the whole subtree below is untouched (up-dirt
        # always propagates to the root, so up[node] implies
        # changed[parent]) and is skipped.
        changed = [False] * schedule.n_cliques
        for component in schedule.components:
            for node, parent in component:
                if parent is None:
                    changed[node] = up[node]
                elif changed[parent]:
                    changed[node] = True
                    self._absorb_from_parent(node, parent, up[node])

        self._dirty.clear()
        self._ever_propagated = True
        counters.propagations += 1
        counters.scenarios_propagated += scale
        self._publish_metrics()

    def _publish_metrics(self) -> None:
        """Mirror cumulative counters into the global registry, if on.

        Counters are always maintained locally; this just re-exports the
        totals after each propagation so reports see live numbers.  One
        guarded call per propagation -- nothing on the per-message path.
        """
        registry = get_metrics()
        if not registry.enabled:
            return
        counters = self.counters
        registry.counter("engine.propagations").inc(1)
        for name, field in (
            ("engine.messages", "messages"),
            ("engine.messages_collect", "messages_collect"),
            ("engine.messages_distribute", "messages_distribute"),
            ("engine.cliques_repropagated", "cliques_repropagated"),
            ("engine.cliques_skipped", "cliques_skipped"),
            ("engine.zero_resurrections", "zero_resurrections"),
            ("engine.flops", "flops"),
            ("engine.scenarios_propagated", "scenarios_propagated"),
            ("engine.potentials_unchanged", "potentials_unchanged"),
        ):
            total = getattr(counters, field)
            published = self._published.get(name, 0)
            registry.counter(name).inc(total - published)
            self._published[name] = total
        registry.gauge("engine.factor_bytes.peak").set_max(self.factor_bytes)
        registry.gauge("engine.batch_size.peak").set_max(self.batch_size)

    def _absorb_from_parent(self, node: int, parent: int, rebuilt: bool) -> None:
        """Refresh the downward message parent -> node and absorb it."""
        schedule = self.schedule
        down_key = (parent, node)
        up_key = (node, parent)
        counters = self.counters
        counters.messages_distribute += 1
        counters.flops += (
            schedule.work_sizes[parent] + schedule.work_sizes[node]
        ) * self.batch_size

        # marg(parent belief) onto the separator, then divide by the
        # upward message.  Wherever the upward message is zero the
        # parent belief's slice is zero too (it contains that message
        # as a factor), so the masked division's zero-fill is exact.
        new_sep = self._scratch[down_key]
        sp_parent = schedule.sparse_cliques.get(parent)
        if sp_parent is None:
            _reduce_sum(self._beta[parent], self._plans[down_key], new_sep)
        else:
            _sparse_reduce(
                self._beta[parent],
                sp_parent.reduce_plans[node],
                new_sep,
                self._sp_scratch[parent],
            )
        up_values = self._msg[up_key]
        ratio = self._scratch[up_key]
        ratio.fill(0.0)
        np.divide(new_sep, up_values, out=ratio, where=up_values != 0)

        sp = schedule.sparse_cliques.get(node)
        if sp is not None:
            self._absorb_sparse(node, parent, rebuilt, ratio, new_sep, sp)
            return

        beta = self._beta[node]
        down_values = self._msg[down_key]
        expand = self._expand[down_key]
        if rebuilt:
            # Partial belief from collect lacks the parent message.
            np.multiply(beta, ratio.reshape(expand), out=beta)
            down_values[...] = ratio
            return
        old = down_values
        if ((old == 0) & (ratio != 0)).any():
            # A zero separator entry came back to life (e.g. an input
            # probability moved off 0): the belief's zero slice cannot
            # be rescaled, so rebuild it from psi and cached messages.
            # One resurrected batch element rebuilds the whole clique
            # stack -- the rebuild is correct for every element.
            counters.zero_resurrections += 1
            down_values[...] = ratio
            self._seed_belief(node)
            np.multiply(beta, ratio.reshape(expand), out=beta)
            return
        # Standard Hugin absorption: multiply by new/old on the
        # separator (0/0 = 0; zero slices of the belief stay zero).
        quotient = new_sep  # reuse the scratch buffer; new_sep is consumed
        quotient.fill(0.0)
        np.divide(ratio, old, out=quotient, where=old != 0)
        np.multiply(beta, quotient.reshape(expand), out=beta)
        down_values[...] = ratio

    def _absorb_sparse(
        self,
        node: int,
        parent: int,
        rebuilt: bool,
        ratio: np.ndarray,
        quotient_buf: np.ndarray,
        sp: _SparseClique,
    ) -> None:
        """Absorb a refreshed downward message into a packed belief.

        Same three cases as the dense path; the separator-sized factor
        (ratio or new/old quotient) is gathered at the packed entries'
        separator indices and multiplied elementwise.
        """
        beta = self._beta[node]
        down_values = self._msg[(parent, node)]
        scratch = self._sp_scratch[node]
        lead = beta.shape[:-1]
        gather = sp.gathers[parent]
        if rebuilt:
            # Partial belief from collect lacks the parent message.
            np.take(ratio.reshape(lead + (-1,)), gather, axis=-1, out=scratch)
            np.multiply(beta, scratch, out=beta)
            down_values[...] = ratio
            return
        old = down_values
        if ((old == 0) & (ratio != 0)).any():
            # Zero-resurrection rebuild, packed flavor: reseed from psi
            # and cached child messages, then apply the new ratio.
            self.counters.zero_resurrections += 1
            self._seed_belief(node)
            np.take(ratio.reshape(lead + (-1,)), gather, axis=-1, out=scratch)
            np.multiply(beta, scratch, out=beta)
            down_values[...] = ratio
            return
        quotient = quotient_buf  # reuse; the caller's new_sep is consumed
        quotient.fill(0.0)
        np.divide(ratio, old, out=quotient, where=old != 0)
        np.take(quotient.reshape(lead + (-1,)), gather, axis=-1, out=scratch)
        np.multiply(beta, scratch, out=beta)
        down_values[...] = ratio

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def belief(self, idx: int) -> np.ndarray:
        """Batch row 0 of clique ``idx``'s belief as a dense table.

        A fresh array in the clique's canonical variable order; a packed
        belief is scattered onto zeros (its out-of-support entries are
        structurally zero).  Diagnostics only -- the propagation path
        never materializes dense packed tables.
        """
        beta = self._beta[idx][0]
        sp = self.schedule.sparse_cliques.get(idx)
        if sp is None:
            return beta.copy()
        dense = np.zeros(self.schedule.sizes[idx], dtype=self.dtype)
        dense[sp.flat_idx] = beta
        return dense.reshape(self.schedule.shapes[idx])

    @_exclusive
    def marginals(
        self, variables: Sequence[str], skip_zero: bool = False
    ) -> Dict[str, np.ndarray]:
        """Batched single-variable marginals.

        Variables are grouped by home clique; each clique's belief is
        reduced onto the requested axes with **one** einsum per clique
        and the (tiny) reduced table is then swept per variable, instead
        of one full-table einsum per variable.

        The returned arrays have shape ``(K, card)``, row ``k`` being
        scenario ``k``'s marginal.  Zero-mass beliefs raise
        :class:`ZeroBeliefError` carrying a ``batch_indices`` tuple that
        names the offending scenarios; ``skip_zero=True`` instead fills
        their rows with NaN so the remaining scenarios are unaffected.
        """
        schedule = self.schedule
        by_clique: Dict[int, List[str]] = {}
        for var in variables:
            location = schedule.variable_axis.get(var)
            if location is None:
                raise KeyError(f"unknown variable {var!r}")
            by_clique.setdefault(location[0], []).append(var)
        k = self.batch_size
        out: Dict[str, np.ndarray] = {}
        for idx, group in by_clique.items():
            beta = self._beta[idx]
            ndim = len(schedule.shapes[idx])
            bad = None
            totals = beta.reshape(k, -1).sum(axis=1)
            zero = totals <= 0
            if zero.any():
                if not skip_zero:
                    indices = tuple(int(i) for i in np.nonzero(zero)[0])
                    err = ZeroBeliefError(
                        "cannot normalize a zero belief for batch "
                        f"elements {list(indices)}"
                    )
                    err.batch_indices = indices
                    raise err
                bad = zero
                totals = np.where(zero, 1.0, totals)

            sp = schedule.sparse_cliques.get(idx)
            keep = sorted({schedule.variable_axis[v][1] for v in group})
            joint_shape = tuple(schedule.shapes[idx][a] for a in keep)
            if sp is None and len(keep) == ndim:
                joint = beta
            else:
                # A packed belief always reduces through the sparse
                # kernel, even onto the full clique scope.
                plan_key = (idx, tuple(keep))
                plan = self._marginal_plans.get(plan_key)
                if plan is None:
                    if sp is None:
                        plan = _reduction_plan(schedule.shapes[idx], keep)
                        if self.dtype != np.float64:
                            plan = _cast_plan(plan, self.dtype)
                    else:
                        plan = _sparse_reduce_plan(
                            sp.flat_idx, schedule.shapes[idx], keep, joint_shape
                        )
                    self._marginal_plans[plan_key] = plan
                joint = np.empty((k,) + joint_shape, dtype=self.dtype)
                if sp is None:
                    _reduce_sum(beta, plan, joint)
                else:
                    _sparse_reduce(beta, plan, joint, self._sp_scratch[idx])
            for var in group:
                pos = keep.index(schedule.variable_axis[var][1])
                plan_key = (idx, tuple(keep), pos)
                plan = self._marginal_plans.get(plan_key)
                if plan is None:
                    plan = _reduction_plan(joint_shape, [pos])
                    if self.dtype != np.float64:
                        plan = _cast_plan(plan, self.dtype)
                    self._marginal_plans[plan_key] = plan
                result = np.empty((k, joint_shape[pos]), dtype=self.dtype)
                _reduce_sum(joint, plan, result)
                result /= totals[:, None]
                if bad is not None:
                    result[bad] = np.nan
                out[var] = result
        return out

    @_exclusive
    def joint_marginal(self, idx: int, variables: Sequence[str]) -> np.ndarray:
        """Normalized joint over ``variables`` from clique ``idx``, batched.

        Returns a ``(K, card_1, ..., card_m)`` array whose slice ``k``
        mirrors what the Factor path
        (``Factor.marginal_onto(...).normalize().permute(variables)``)
        computes for scenario ``k``: the reduction uses ``ndarray.sum``
        over the dropped axes and a broadcast division by per-scenario
        totals, both elementwise-identical per batch element.
        """
        order = self.schedule.orders[idx]
        wanted = set(variables)
        missing = wanted - set(order)
        if missing:
            raise KeyError(f"clique {idx} does not contain {sorted(missing)}")
        beta = self._beta[idx]
        sp = self.schedule.sparse_cliques.get(idx)
        if sp is not None:
            # Scatter the packed belief to a dense stack, then reduce
            # with the same ``ndarray.sum`` the dense path uses -- this
            # is the slow Factor-compatible surface (segment boundary
            # extraction), so matching the dense reduction outranks
            # avoiding one dense temporary.
            dense = np.zeros(
                (self.batch_size,) + self.schedule.shapes[idx], dtype=self.dtype
            )
            dense.reshape(self.batch_size, -1)[:, sp.flat_idx] = beta
            beta = dense
        drop = tuple(1 + i for i, v in enumerate(order) if v not in wanted)
        reduced = beta.sum(axis=drop) if drop else beta
        kept = [v for v in order if v in wanted]
        k = self.batch_size
        totals = reduced.reshape(k, -1).sum(axis=1)
        if (totals <= 0).any():
            indices = tuple(int(i) for i in np.nonzero(totals <= 0)[0])
            err = ZeroBeliefError(
                f"cannot normalize a zero belief for batch elements {list(indices)}"
            )
            err.batch_indices = indices
            raise err
        normalized = reduced / totals.reshape((k,) + (1,) * len(kept))
        perm = tuple(1 + kept.index(v) for v in variables)
        return normalized.transpose((0,) + perm)
