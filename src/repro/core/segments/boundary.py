"""Boundary input models: what crosses a segment cut.

A segment's input lines split into primary inputs of the full circuit
(which keep the user model's statistics) and *boundary* lines driven by
upstream segments.  The models here describe the boundary side:

- :class:`FixedMarginalInputs` pins each line to a bare 4-state
  marginal (the paper's preliminary scheme -- all cross-cut correlation
  is dropped);
- :class:`TreeBoundaryInputs` additionally carries a spanning forest of
  pairwise joints, each edge stored as ``P(child | parent)``;
- :class:`SegmentInputs` composes a user model over the primaries with
  a boundary model over the rest.

All three implement the :class:`BoundaryModel` protocol, which is what
the segment graph and the iterative refinement loop program against: a
boundary model exposes its forest structure (``parent_of``) and can be
re-instantiated with refreshed statistics (``with_statistics``) without
touching the compiled LIDAG, whose CPD *structure* was baked from the
same forest at compile time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.bayesian.cpd import TabularCPD
from repro.core.inputs import InputModel
from repro.core.states import N_STATES, current_values, previous_values
from repro.errors import SegmentBoundaryError

__all__ = [
    "BoundaryModel",
    "FixedMarginalInputs",
    "SegmentInputs",
    "TreeBoundaryInputs",
    "conditional_rows",
]


def conditional_rows(joint: np.ndarray, child_prior: np.ndarray) -> np.ndarray:
    """``P(child | parent)`` from ``(K, 4, 4)`` parent-major pair joints.

    Each row is normalized by its parent-state mass; rows with
    (near-)zero mass fall back to the child's ``(K, 4)`` marginal.
    """
    mass = joint.sum(axis=2)
    ok = mass > 1e-15
    rows = joint / np.where(ok, mass, 1.0)[:, :, None]
    return np.where(ok[:, :, None], rows, child_prior[:, None, :])


class BoundaryModel(InputModel):
    """Protocol for input models that carry cross-cut statistics.

    Beyond the :class:`~repro.core.inputs.InputModel` surface, a
    boundary model exposes the *structure* of the joint factors it
    carries -- a spanning forest over boundary lines -- and supports
    cheap re-instantiation with refreshed numbers.  The structure is
    baked into each segment's LIDAG at compile time; the numbers are
    refreshed from upstream segments at every propagation (and at every
    refinement iteration).
    """

    @property
    def parent_of(self) -> Mapping[str, str]:
        """Forest edges as ``child -> parent``; empty for marginals-only."""
        return {}

    def with_statistics(
        self,
        priors: Mapping[str, np.ndarray],
        conditionals: Optional[Mapping[str, np.ndarray]] = None,
    ) -> "BoundaryModel":
        """A new model with the same structure and fresh numbers."""
        raise NotImplementedError


class FixedMarginalInputs(BoundaryModel):
    """Input model pinning each input line to a given 4-state marginal.

    Used internally to feed upstream-segment marginals into downstream
    segments; also handy for tests.
    """

    def __init__(self, distributions: Mapping[str, np.ndarray]):
        self._distributions = {
            name: np.asarray(dist, dtype=np.float64)
            for name, dist in distributions.items()
        }
        for name, dist in self._distributions.items():
            if dist.shape != (N_STATES,):
                raise SegmentBoundaryError(
                    f"distribution for {name!r} must have length {N_STATES}"
                )
            if not np.isclose(dist.sum(), 1.0, atol=1e-8):
                raise SegmentBoundaryError(
                    f"distribution for {name!r} does not sum to 1"
                )

    def with_statistics(self, priors, conditionals=None) -> "FixedMarginalInputs":
        return FixedMarginalInputs(priors)

    def marginal_distribution(self, name: str) -> np.ndarray:
        if name not in self._distributions:
            raise KeyError(f"no distribution for input {name!r}")
        return self._distributions[name]

    def input_cpds(self, input_names: Sequence[str]) -> List[TabularCPD]:
        return [
            TabularCPD.prior(name, self.marginal_distribution(name))
            for name in input_names
        ]

    def input_cpds_trusted(self, input_names: Sequence[str]) -> List[TabularCPD]:
        # Distributions were validated once in __init__; sweeps may
        # skip the per-call CPD re-checks.
        return self._trusted_priors(input_names)

    def sample_pairs(self, input_names, n_pairs, rng):
        states = np.empty((n_pairs, len(input_names)), dtype=np.int64)
        for j, name in enumerate(input_names):
            states[:, j] = rng.choice(
                N_STATES, size=n_pairs, p=self.marginal_distribution(name)
            )
        return (
            previous_values(states).astype(np.uint8),
            current_values(states).astype(np.uint8),
        )


class TreeBoundaryInputs(BoundaryModel):
    """Segment input model with tree-structured boundary correlation.

    Boundary lines form a forest: roots carry their upstream marginal,
    every other line carries a conditional table given its tree parent
    (both refreshed from the upstream junction trees at estimate time).
    This implements the paper's stated future work -- "an efficient
    segmentation technique that will reduce the standard deviation and
    the mean error" -- by letting pairwise boundary joints cross the cut
    instead of bare marginals.
    """

    def __init__(
        self,
        priors: Mapping[str, np.ndarray],
        parent_of: Mapping[str, str],
        conditionals: Optional[Mapping[str, np.ndarray]] = None,
    ):
        self._priors = {k: np.asarray(v, dtype=np.float64) for k, v in priors.items()}
        self._parent_of = dict(parent_of)
        self._conditionals = {
            k: np.asarray(v, dtype=np.float64) for k, v in (conditionals or {}).items()
        }
        for child, parent in self._parent_of.items():
            if child not in self._priors or parent not in self._priors:
                raise KeyError(f"tree edge {parent!r}->{child!r} references unknown line")

    @property
    def parent_of(self) -> Mapping[str, str]:
        return self._parent_of

    def with_statistics(self, priors, conditionals=None) -> "TreeBoundaryInputs":
        return TreeBoundaryInputs(priors, self._parent_of, conditionals)

    def marginal_distribution(self, name: str) -> np.ndarray:
        return self._priors[name]

    def input_cpds(self, input_names: Sequence[str]) -> List[TabularCPD]:
        return self._build_cpds(input_names, trusted=False)

    def input_cpds_trusted(self, input_names: Sequence[str]) -> List[TabularCPD]:
        # Priors and conditionals are extracted from calibrated upstream
        # junction trees (normalized by construction), so sweeps skip
        # the per-call row-sum re-checks.
        return self._build_cpds(input_names, trusted=True)

    def _build_cpds(
        self, input_names: Sequence[str], trusted: bool
    ) -> List[TabularCPD]:
        available = set(input_names)
        cpds: List[TabularCPD] = []
        for name in input_names:
            parent = self._parent_of.get(name)
            if parent is None or parent not in available:
                if trusted:
                    cpds.append(TabularCPD._trusted(name, self._priors[name]))
                else:
                    cpds.append(TabularCPD.prior(name, self._priors[name]))
            else:
                table = self._conditionals.get(name)
                if table is None:
                    # Placeholder structure before numbers are known.
                    table = np.tile(self._priors[name], (N_STATES, 1))
                if trusted:
                    cpds.append(TabularCPD._trusted(name, table, [parent]))
                else:
                    cpds.append(TabularCPD(name, N_STATES, table, [parent]))
        return cpds

    def sample_pairs(self, input_names, n_pairs, rng):
        index = {name: j for j, name in enumerate(input_names)}
        ordered = [n for n in input_names if self._parent_of.get(n) not in index]
        pending = [n for n in input_names if n not in ordered]
        while pending:
            progressed = [n for n in pending if self._parent_of[n] in set(ordered)]
            if not progressed:
                raise SegmentBoundaryError("boundary tree contains a cycle")
            ordered.extend(progressed)
            pending = [n for n in pending if n not in set(progressed)]
        states = np.empty((n_pairs, len(input_names)), dtype=np.int64)
        for name in ordered:
            j = index[name]
            parent = self._parent_of.get(name)
            if parent is None or parent not in index or name not in self._conditionals:
                states[:, j] = rng.choice(N_STATES, size=n_pairs, p=self._priors[name])
            else:
                table = self._conditionals[name]
                parent_states = states[:, index[parent]]
                u = rng.random(n_pairs)[:, None]
                cdfs = np.cumsum(table[parent_states], axis=1)
                states[:, j] = (u > cdfs[:, :-1]).sum(axis=1)
        return (
            previous_values(states).astype(np.uint8),
            current_values(states).astype(np.uint8),
        )


class SegmentInputs(InputModel):
    """Composite per-segment input model.

    A segment's input lines split into two kinds: *primary* inputs of
    the full circuit, and *boundary* lines driven by upstream segments.
    Primary inputs delegate to the user's input model -- preserving any
    input-to-input correlation CPDs (e.g.
    :class:`~repro.core.inputs.CorrelatedGroupInputs` chains) among the
    primaries present in the segment -- while boundary lines use the
    marginals (plus tree conditionals) refreshed from upstream segments.

    Before this model existed, the segmentation replaced *every* input
    line's statistics with bare marginals, silently dropping spatial
    input correlation even for circuits small enough to fit a single
    segment (found by the differential fuzz harness).
    """

    def __init__(
        self, user_model: InputModel, primary: Iterable[str], boundary: InputModel
    ):
        self.user_model = user_model
        self.primary = frozenset(primary)
        self.boundary = boundary

    def _split(self, input_names: Sequence[str]):
        primary = [n for n in input_names if n in self.primary]
        rest = [n for n in input_names if n not in self.primary]
        return primary, rest

    def marginal_distribution(self, name: str) -> np.ndarray:
        if name in self.primary:
            return self.user_model.marginal_distribution(name)
        return self.boundary.marginal_distribution(name)

    def input_cpds(self, input_names: Sequence[str]) -> List[TabularCPD]:
        primary, rest = self._split(input_names)
        return self.user_model.input_cpds(primary) + self.boundary.input_cpds(rest)

    def input_cpds_trusted(self, input_names: Sequence[str]) -> List[TabularCPD]:
        primary, rest = self._split(input_names)
        return self.user_model.input_cpds_trusted(
            primary
        ) + self.boundary.input_cpds_trusted(rest)

    def sample_pairs(self, input_names, n_pairs, rng):
        primary, rest = self._split(input_names)
        index = {name: j for j, name in enumerate(input_names)}
        prev = np.empty((n_pairs, len(input_names)), dtype=np.uint8)
        cur = np.empty_like(prev)
        for names, model in ((primary, self.user_model), (rest, self.boundary)):
            if not names:
                continue
            part_prev, part_cur = model.sample_pairs(names, n_pairs, rng)
            for j, name in enumerate(names):
                prev[:, index[name]] = part_prev[:, j]
                cur[:, index[name]] = part_cur[:, j]
        return prev, cur
