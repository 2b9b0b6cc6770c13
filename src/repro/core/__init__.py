"""The paper's contribution: LIDAG-structured switching-activity modeling.

- :mod:`repro.core.states` -- the four-state transition algebra
  (``x00, x01, x10, x11``) that bakes lag-1 temporal correlation into
  each random variable.
- :mod:`repro.core.cpt` -- deterministic gate CPTs over transition
  states (Section 4 of the paper).
- :mod:`repro.core.inputs` -- primary-input statistics models
  (independent, lag-1 Markov temporal, spatially correlated groups).
- :mod:`repro.core.lidag` -- LIDAG construction (Definition 8) and the
  Theorem-3 I-map machinery (Markov-boundary ordering).
- :mod:`repro.core.estimator` -- the user-facing
  :class:`SwitchingActivityEstimator` with the compile-once /
  propagate-per-statistics split, plus the exact enumeration oracle.
- :mod:`repro.core.segments` -- multiple-BN estimation of circuits
  too large for a single junction tree (Section 6).
"""

from repro.core.estimator import (
    SwitchingActivityEstimator,
    SwitchingEstimate,
    exact_switching_by_enumeration,
)
from repro.core.inputs import (
    CorrelatedGroupInputs,
    IndependentInputs,
    InputModel,
    TemporalInputs,
    TraceInputs,
)
from repro.core.lidag import build_lidag, lidag_node_ordering
from repro.core.rcache import ResultCache, scenario_digest
from repro.core.segments import SegmentedEstimator
from repro.core.sequential import SequentialEstimate, SequentialSwitchingEstimator
from repro.core.states import (
    N_STATES,
    STATE_NAMES,
    TransitionState,
    switching_probability,
)

__all__ = [
    "CorrelatedGroupInputs",
    "IndependentInputs",
    "InputModel",
    "N_STATES",
    "STATE_NAMES",
    "ResultCache",
    "SegmentedEstimator",
    "SequentialEstimate",
    "SequentialSwitchingEstimator",
    "SwitchingActivityEstimator",
    "SwitchingEstimate",
    "TemporalInputs",
    "TraceInputs",
    "TransitionState",
    "build_lidag",
    "exact_switching_by_enumeration",
    "lidag_node_ordering",
    "scenario_digest",
    "switching_probability",
]
