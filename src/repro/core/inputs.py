"""Primary-input statistics models.

An :class:`InputModel` supplies two views of the same stochastic process
on the primary inputs:

1. **CPDs** over the 4-state transition variables of the input lines,
   merged into the LIDAG (:meth:`InputModel.input_cpds`).  Models may
   add input-to-input edges (spatial correlation) as long as they stay
   acyclic.
2. **Vector-pair samples** for the logic-simulation ground truth
   (:meth:`InputModel.sample_pairs`), drawn from the *same* process so
   estimator and simulator are comparable.

Three models cover the paper's experiments and its "input modeling"
future-work extension:

- :class:`IndependentInputs` -- i.i.d. Bernoulli streams (the paper's
  pseudo-random inputs).
- :class:`TemporalInputs` -- per-input lag-1 Markov streams with a
  target switching activity.
- :class:`CorrelatedGroupInputs` -- spatially correlated groups layered
  on either temporal model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bayesian.cpd import TabularCPD
from repro.core.states import (
    N_STATES,
    current_values,
    independent_transition_distribution,
    markov_transition_distribution,
    previous_values,
)

ProbabilitySpec = Union[float, Mapping[str, float]]


def _per_input(spec: ProbabilitySpec, name: str, default: float) -> float:
    if isinstance(spec, Mapping):
        return float(spec.get(name, default))
    return float(spec)


def _prob_spec(value) -> ProbabilitySpec:
    """Normalize a JSON probability field: scalar or per-input mapping."""
    if isinstance(value, Mapping):
        return {str(k): float(v) for k, v in value.items()}
    return float(value)


def input_model_from_spec(spec: Mapping) -> "InputModel":
    """Build an :class:`InputModel` from a plain-dict (JSON-friendly) spec.

    The spec vocabulary is shared by the fuzz-reproducer files and the
    ``repro sweep`` scenario lists; the ``kind`` field selects the
    model class and the remaining fields are its parameters::

        {"kind": "independent", "p_one": 0.3}
        {"kind": "independent", "p_one": {"a": 0.9, "b": 0.1}}
        {"kind": "temporal", "p_one": 0.5, "activity": 0.2}
        {"kind": "trace", "trace": [[0,1],[1,1]], "input_names": ["a","b"]}
        {"kind": "correlated", "groups": [["a","b"]], "rho": 0.8,
         "base_p_one": 0.5}

    Probability fields accept a scalar (applied to every input) or a
    per-input mapping (missing names default to 0.5).  Raises
    :class:`~repro.errors.InputModelError` on an unknown ``kind``.
    """
    from repro.errors import InputModelError

    kind = spec.get("kind")
    if kind == "independent":
        return IndependentInputs(_prob_spec(spec.get("p_one", 0.5)))
    if kind == "temporal":
        return TemporalInputs(
            p_one=_prob_spec(spec.get("p_one", 0.5)),
            activity=_prob_spec(spec.get("activity", 0.5)),
        )
    if kind == "trace":
        return TraceInputs(
            np.asarray(spec["trace"], dtype=np.uint8),
            list(spec["input_names"]),
            smoothing=float(spec.get("smoothing", 1.0)),
        )
    if kind == "correlated":
        base = IndependentInputs(_prob_spec(spec.get("base_p_one", 0.5)))
        groups = [tuple(g) for g in spec.get("groups", [])]
        if not groups:
            return base
        return CorrelatedGroupInputs(groups, rho=float(spec["rho"]), base=base)
    raise InputModelError(f"unknown input-model kind {kind!r}")


class InputModel(ABC):
    """Joint stochastic model of the primary-input transition variables."""

    @abstractmethod
    def input_cpds(self, input_names: Sequence[str]) -> List[TabularCPD]:
        """CPDs for the input-line nodes (roots and, for correlated
        models, input-to-input conditionals)."""

    @abstractmethod
    def sample_pairs(
        self, input_names: Sequence[str], n_pairs: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``n_pairs`` consecutive-cycle vector pairs.

        Returns ``(previous, current)`` matrices of shape
        ``(n_pairs, len(input_names))`` with 0/1 entries.
        """

    @abstractmethod
    def marginal_distribution(self, name: str) -> np.ndarray:
        """The 4-state marginal distribution of one input line."""

    def sample_states(
        self, input_names: Sequence[str], n_pairs: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Transition-state samples, shape ``(n_pairs, n_inputs)``."""
        prev, curr = self.sample_pairs(input_names, n_pairs, rng)
        return (prev.astype(np.int64) << 1) | curr.astype(np.int64)

    def input_cpds_trusted(self, input_names: Sequence[str]) -> List[TabularCPD]:
        """Like :meth:`input_cpds`, but may skip CPD re-validation.

        Batched scenario sweeps call this K times per ``estimate_many``;
        the in-repo models override it to build their (normalized by
        construction) tables through :meth:`TabularCPD._trusted`, which
        skips the row-sum check that dominates large sweeps.  The
        default simply delegates, so third-party models stay correct
        without opting in.
        """
        return self.input_cpds(input_names)

    def _trusted_priors(self, input_names: Sequence[str]) -> List[TabularCPD]:
        """Root-node CPDs from :meth:`marginal_distribution`, unvalidated."""
        return [
            TabularCPD._trusted(
                name,
                np.asarray(self.marginal_distribution(name), dtype=np.float64),
            )
            for name in input_names
        ]


class IndependentInputs(InputModel):
    """Spatially independent, temporally independent input streams.

    Parameters
    ----------
    p_one:
        Probability of each input being 1, either a scalar applied to
        all inputs or a per-input mapping (missing names default to 0.5).
    """

    def __init__(self, p_one: ProbabilitySpec = 0.5):
        self.p_one = p_one

    def _p(self, name: str) -> float:
        p = _per_input(self.p_one, name, 0.5)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p_one for {name!r} out of [0, 1]: {p}")
        return p

    def marginal_distribution(self, name: str) -> np.ndarray:
        return independent_transition_distribution(self._p(name))

    def input_cpds(self, input_names: Sequence[str]) -> List[TabularCPD]:
        return [
            TabularCPD.prior(name, self.marginal_distribution(name))
            for name in input_names
        ]

    def input_cpds_trusted(self, input_names: Sequence[str]) -> List[TabularCPD]:
        return self._trusted_priors(input_names)

    def sample_pairs(self, input_names, n_pairs, rng):
        probs = np.array([self._p(n) for n in input_names])
        prev = (rng.random((n_pairs, len(input_names))) < probs).astype(np.uint8)
        curr = (rng.random((n_pairs, len(input_names))) < probs).astype(np.uint8)
        return prev, curr


class TemporalInputs(InputModel):
    """Per-input stationary lag-1 Markov streams.

    Parameters
    ----------
    p_one:
        Stationary P(1) per input (scalar or mapping).
    activity:
        Target switching activity per input (scalar or mapping).  Must
        satisfy ``activity / 2 <= min(p, 1 - p)`` per input.
    """

    def __init__(self, p_one: ProbabilitySpec = 0.5, activity: ProbabilitySpec = 0.5):
        self.p_one = p_one
        self.activity = activity

    def _params(self, name: str) -> Tuple[float, float]:
        return (
            _per_input(self.p_one, name, 0.5),
            _per_input(self.activity, name, 0.5),
        )

    def marginal_distribution(self, name: str) -> np.ndarray:
        p, a = self._params(name)
        return markov_transition_distribution(p, a)

    def input_cpds(self, input_names: Sequence[str]) -> List[TabularCPD]:
        return [
            TabularCPD.prior(name, self.marginal_distribution(name))
            for name in input_names
        ]

    def input_cpds_trusted(self, input_names: Sequence[str]) -> List[TabularCPD]:
        return self._trusted_priors(input_names)

    def sample_pairs(self, input_names, n_pairs, rng):
        n = len(input_names)
        prev = np.empty((n_pairs, n), dtype=np.uint8)
        curr = np.empty((n_pairs, n), dtype=np.uint8)
        for j, name in enumerate(input_names):
            dist = self.marginal_distribution(name)
            states = rng.choice(N_STATES, size=n_pairs, p=dist)
            prev[:, j] = previous_values(states)
            curr[:, j] = current_values(states)
        return prev, curr


class TraceInputs(InputModel):
    """Input statistics estimated from a recorded vector trace.

    Real workloads rarely come as closed-form statistics; this model
    takes a recorded stream of input vectors (consecutive rows =
    consecutive cycles), estimates each input's 4-state transition
    distribution from the observed consecutive pairs (with add-one
    smoothing so no state gets exactly zero mass), and resamples the
    recorded pairs for simulation.

    Spatial correlation within the trace is preserved by the sampler
    (whole rows are resampled) but, as with all marginal-based models,
    only the per-line marginals enter the LIDAG priors -- wire a
    :class:`CorrelatedGroupInputs` on top when cross-input correlation
    must reach the estimator.

    Parameters
    ----------
    trace:
        Array of shape ``(n_cycles, n_inputs)`` with 0/1 entries.
    input_names:
        Column names, one per trace column.
    smoothing:
        Add-``smoothing`` pseudo-counts per transition state.
    """

    def __init__(
        self,
        trace: np.ndarray,
        input_names: Sequence[str],
        smoothing: float = 1.0,
    ):
        trace = np.asarray(trace)
        if trace.ndim != 2 or trace.shape[0] < 2:
            raise ValueError("trace must be (n_cycles >= 2, n_inputs)")
        if trace.shape[1] != len(input_names):
            raise ValueError(
                f"trace has {trace.shape[1]} columns for {len(input_names)} names"
            )
        if not np.isin(trace, (0, 1)).all():
            raise ValueError("trace entries must be 0/1")
        if smoothing < 0:
            raise ValueError("smoothing must be >= 0")
        self._names = list(input_names)
        self._trace = trace.astype(np.uint8)
        states = (self._trace[:-1].astype(np.int64) << 1) | self._trace[1:]
        self._distributions: Dict[str, np.ndarray] = {}
        for j, name in enumerate(self._names):
            counts = np.bincount(states[:, j], minlength=N_STATES).astype(np.float64)
            counts += smoothing
            self._distributions[name] = counts / counts.sum()

    def marginal_distribution(self, name: str) -> np.ndarray:
        if name not in self._distributions:
            raise KeyError(f"input {name!r} not in the trace")
        return self._distributions[name]

    def input_cpds(self, input_names: Sequence[str]) -> List[TabularCPD]:
        return [
            TabularCPD.prior(name, self.marginal_distribution(name))
            for name in input_names
        ]

    def input_cpds_trusted(self, input_names: Sequence[str]) -> List[TabularCPD]:
        return self._trusted_priors(input_names)

    def sample_pairs(self, input_names, n_pairs, rng):
        columns = [self._names.index(name) for name in input_names]
        picks = rng.integers(0, self._trace.shape[0] - 1, size=n_pairs)
        prev = self._trace[picks][:, columns]
        curr = self._trace[picks + 1][:, columns]
        return prev, curr


class CorrelatedGroupInputs(InputModel):
    """Spatially correlated input groups over a base temporal model.

    Within each group the inputs form a chain: the first is drawn from
    the base model's marginal; each subsequent input *copies* its
    predecessor's transition state with probability ``rho`` and draws a
    fresh state from its own base marginal otherwise.  The chain maps
    directly onto extra input-to-input LIDAG edges, demonstrating the
    paper's claim that input correlations fit the same BN machinery.

    The copy process shifts marginals: a chained member's marginal is
    ``rho * marginal(predecessor) + (1 - rho) * base(member)``, which
    equals its base marginal only when the whole group shares one base
    distribution.  :meth:`marginal_distribution` reports this *implied*
    marginal so that it, the CPDs, and :meth:`sample_pairs` all describe
    the same joint (the differential fuzz harness caught the earlier
    inconsistency, which made the segmented backend report base
    marginals for correlated inputs while exact propagation produced
    the chain-implied ones).

    Parameters
    ----------
    base:
        Underlying per-input model (defaults to fair independent inputs).
    groups:
        Iterable of input-name tuples to correlate (disjoint).
    rho:
        Copy probability in [0, 1]; 0 reduces to the base model.
    """

    def __init__(
        self,
        groups: Iterable[Sequence[str]],
        rho: float,
        base: Optional[InputModel] = None,
    ):
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {rho}")
        self.base = base if base is not None else IndependentInputs(0.5)
        self.groups = [tuple(g) for g in groups]
        self.rho = rho
        seen: set = set()
        for group in self.groups:
            if len(group) < 2:
                raise ValueError("correlation groups need at least 2 inputs")
            for name in group:
                if name in seen:
                    raise ValueError(f"input {name!r} appears in two groups")
                seen.add(name)
        #: map from input name to its in-group predecessor
        self._predecessor: Dict[str, str] = {}
        for group in self.groups:
            for prev_name, name in zip(group, group[1:]):
                self._predecessor[name] = prev_name

    def marginal_distribution(self, name: str) -> np.ndarray:
        """Chain-implied marginal (equals the base marginal for roots)."""
        parent = self._predecessor.get(name)
        if parent is None:
            return self.base.marginal_distribution(name)
        return (
            self.rho * self.marginal_distribution(parent)
            + (1.0 - self.rho) * self.base.marginal_distribution(name)
        )

    def input_cpds(self, input_names: Sequence[str]) -> List[TabularCPD]:
        return self._build_cpds(input_names, trusted=False)

    def input_cpds_trusted(self, input_names: Sequence[str]) -> List[TabularCPD]:
        return self._build_cpds(input_names, trusted=True)

    def _build_cpds(
        self, input_names: Sequence[str], trusted: bool
    ) -> List[TabularCPD]:
        available = set(input_names)
        cpds: List[TabularCPD] = []
        for name in input_names:
            parent = self._predecessor.get(name)
            if parent is None or parent not in available:
                # Parent absent: marginalizing the chain over it leaves
                # exactly the implied marginal as this input's prior.
                dist = self.marginal_distribution(name)
                if trusted:
                    cpds.append(
                        TabularCPD._trusted(
                            name, np.asarray(dist, dtype=np.float64)
                        )
                    )
                else:
                    cpds.append(TabularCPD.prior(name, dist))
            else:
                fresh = self.base.marginal_distribution(name)
                table = np.empty((N_STATES, N_STATES))
                for parent_state in range(N_STATES):
                    row = (1.0 - self.rho) * fresh
                    row[parent_state] += self.rho
                    table[parent_state] = row
                if trusted:
                    cpds.append(TabularCPD._trusted(name, table, [parent]))
                else:
                    cpds.append(TabularCPD(name, N_STATES, table, [parent]))
        return cpds

    def sample_pairs(self, input_names, n_pairs, rng):
        index = {name: j for j, name in enumerate(input_names)}
        # Fill roots first, then chain successors in group order, so a
        # predecessor's states exist before its dependents copy them.
        ordered = [n for n in input_names if n not in self._predecessor]
        for group in self.groups:
            ordered.extend(n for n in group[1:] if n in index)
        states = np.empty((n_pairs, len(input_names)), dtype=np.int64)
        for name in ordered:
            j = index[name]
            parent = self._predecessor.get(name)
            if parent is None or parent not in index:
                # Roots (and orphans whose parent is not sampled) draw
                # from the implied marginal so subsets stay consistent.
                dist = self.marginal_distribution(name)
                states[:, j] = rng.choice(N_STATES, size=n_pairs, p=dist)
            else:
                # The fresh part of the copy process uses the *base*
                # marginal; copying the parent supplies the rest.
                fresh = rng.choice(
                    N_STATES, size=n_pairs, p=self.base.marginal_distribution(name)
                )
                copy_mask = rng.random(n_pairs) < self.rho
                states[:, j] = np.where(copy_mask, states[:, index[parent]], fresh)
        return (
            previous_values(states).astype(np.uint8),
            current_values(states).astype(np.uint8),
        )
