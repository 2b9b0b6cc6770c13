"""Tabular conditional probability distributions.

A :class:`TabularCPD` quantifies one Bayesian-network link bundle:
``P(variable | parents)``.  Internally it is a :class:`Factor` whose axis
order is ``parents + (variable,)`` and whose table sums to one along the
variable axis for every parent configuration.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

import numpy as np

from repro.bayesian.factor import Factor


class TabularCPD:
    """``P(variable | parents)`` as an explicit table.

    Parameters
    ----------
    variable:
        Name of the child variable.
    cardinality:
        Number of states of the child.
    table:
        Array of shape ``parent_cards + (cardinality,)``.  Each slice
        along the last axis must be a probability distribution.
    parents:
        Parent variable names, one per leading table axis.
    """

    __slots__ = ("variable", "parents", "factor")

    def __init__(
        self,
        variable: str,
        cardinality: int,
        table: np.ndarray,
        parents: Sequence[str] = (),
    ):
        self.variable = variable
        self.parents: Tuple[str, ...] = tuple(parents)
        values = np.asarray(table, dtype=np.float64)
        expected_ndim = len(self.parents) + 1
        if values.ndim != expected_ndim:
            raise ValueError(
                f"CPD for {variable!r}: table has {values.ndim} axes, "
                f"expected {expected_ndim} (parents + child)"
            )
        if values.shape[-1] != cardinality:
            raise ValueError(
                f"CPD for {variable!r}: last axis is {values.shape[-1]}, "
                f"expected child cardinality {cardinality}"
            )
        sums = values.sum(axis=-1)
        # np.allclose(sums, 1.0, atol=1e-8) spelled out: the same test
        # (NaN and +-inf fail) without allclose's per-call overhead.
        if not (np.abs(sums - 1.0) <= 1e-8 + 1e-5 * 1.0).all():
            raise ValueError(
                f"CPD for {variable!r}: rows must sum to 1 "
                f"(worst deviation {np.abs(sums - 1).max():.3g})"
            )
        self.factor = Factor(self.parents + (variable,), values)

    # ------------------------------------------------------------------

    @classmethod
    def prior(cls, variable: str, probabilities: Sequence[float]) -> "TabularCPD":
        """A root-node CPD (no parents)."""
        return cls(variable, len(list(probabilities)), np.asarray(probabilities))

    @classmethod
    def _trusted(
        cls,
        variable: str,
        values: np.ndarray,
        parents: Sequence[str] = (),
    ) -> "TabularCPD":
        """Construction fast path for hot sweep loops.

        ``values`` must already be a float64 array of shape
        ``parent_cards + (cardinality,)`` with normalized rows -- the
        caller guarantees everything ``__init__`` would check.  Batched
        scenario sweeps build tens of thousands of CPDs per call; the
        row-sum ``allclose`` alone dominates their runtime.
        """
        cpd = object.__new__(cls)
        cpd.variable = variable
        cpd.parents = tuple(parents)
        cpd.factor = Factor._unsafe(cpd.parents + (variable,), values)
        return cpd

    @classmethod
    def deterministic(
        cls,
        variable: str,
        cardinality: int,
        parents: Sequence[str],
        parent_cardinalities: Sequence[int],
        function,
    ) -> "TabularCPD":
        """Build a 0/1 CPD from ``function(parent_states...) -> child state``.

        This is how gate CPTs are constructed: the child state is a
        deterministic function of the parent states, so each row is an
        indicator vector.
        """
        parent_cards = tuple(parent_cardinalities)
        table = np.zeros(parent_cards + (cardinality,))
        for flat in range(int(np.prod(parent_cards)) if parent_cards else 1):
            idx = np.unravel_index(flat, parent_cards) if parent_cards else ()
            state = function(*idx)
            if not 0 <= state < cardinality:
                raise ValueError(
                    f"deterministic CPD for {variable!r}: function returned "
                    f"{state}, outside 0..{cardinality - 1}"
                )
            table[idx + (state,)] = 1.0
        return cls(variable, cardinality, table, parents)

    # ------------------------------------------------------------------

    @property
    def cardinality(self) -> int:
        return self.factor.values.shape[-1]

    def to_factor(self) -> Factor:
        """The CPD viewed as a plain factor (axes: parents + child)."""
        return self.factor

    def probability(self, child_state: int, parent_states: Mapping[str, int]) -> float:
        """``P(variable = child_state | parents = parent_states)``."""
        assignment = dict(parent_states)
        assignment[self.variable] = child_state
        return self.factor.probability(assignment)

    def is_deterministic(self) -> bool:
        """True if every row of the table is an indicator vector."""
        return bool(np.all((self.factor.values == 0) | (self.factor.values == 1)))

    def __repr__(self) -> str:
        return f"TabularCPD({self.variable!r} | {list(self.parents)})"
