"""Tests for the support-enumeration segment backend."""

import numpy as np
import pytest

from repro.circuits import examples, generate
from repro.core import (
    IndependentInputs,
    TemporalInputs,
    exact_switching_by_enumeration,
)
from repro.core.enumeration import EnumerationSegment, SegmentTooWide
from repro.core.segments import TreeBoundaryInputs
from repro.core.states import N_STATES


class TestExactness:
    def test_matches_oracle_independent(self):
        circuit = generate.random_layered_circuit(6, 25, seed=2)
        model = IndependentInputs(0.3)
        segment = EnumerationSegment(circuit, model)
        result = segment.estimate()
        exact = exact_switching_by_enumeration(circuit, model)
        for line in circuit.lines:
            assert np.allclose(result.distributions[line], exact[line], atol=1e-12)

    def test_matches_oracle_temporal(self):
        circuit = examples.c17()
        model = TemporalInputs(p_one=0.4, activity=0.2)
        result = EnumerationSegment(circuit, model).estimate()
        exact = exact_switching_by_enumeration(circuit, model)
        for line in circuit.lines:
            assert np.allclose(result.distributions[line], exact[line], atol=1e-12)

    def test_matches_oracle_tree_boundary(self):
        circuit = examples.c17()
        priors = {n: np.array([0.4, 0.1, 0.2, 0.3]) for n in circuit.inputs}
        parent_of = {"2": "1", "3": "2"}
        conditional = np.full((N_STATES, N_STATES), 0.1)
        np.fill_diagonal(conditional, 0.7)
        conditionals = {child: conditional for child in parent_of}
        model = TreeBoundaryInputs(priors, parent_of, conditionals)
        result = EnumerationSegment(circuit, model).estimate()
        exact = exact_switching_by_enumeration(circuit, model)
        for line in circuit.lines:
            assert np.allclose(result.distributions[line], exact[line], atol=1e-12)

    def test_method_label(self):
        result = EnumerationSegment(examples.c17(), IndependentInputs(0.5)).estimate()
        assert result.method == "enumeration"


class TestPairJoint:
    def test_pair_joint_exact(self):
        circuit = examples.paper_circuit()
        model = IndependentInputs(0.5)
        segment = EnumerationSegment(circuit, model)
        segment.estimate()
        joint = segment.pair_joint("5", "6")
        # Lines 5 and 6 have disjoint fanin -> independent joint.
        outer = np.outer(
            segment.estimate().distributions["5"],
            segment.estimate().distributions["6"],
        )
        assert np.allclose(joint, outer, atol=1e-12)

    def test_dependent_pair(self):
        circuit = examples.paper_circuit()
        segment = EnumerationSegment(circuit, IndependentInputs(0.5))
        result = segment.estimate()
        joint = segment.pair_joint("6", "8")  # both depend on line 4
        outer = np.outer(result.distributions["6"], result.distributions["8"])
        assert not np.allclose(joint, outer, atol=1e-6)
        assert joint.sum() == pytest.approx(1.0)

    def test_keep_lines_restriction(self):
        circuit = examples.c17()
        segment = EnumerationSegment(
            circuit, IndependentInputs(0.5), keep_lines={"22"}
        )
        segment.estimate()
        with pytest.raises(KeyError):
            segment.pair_joint("22", "23")

    def test_pair_joint_autoestimates(self):
        circuit = examples.c17()
        segment = EnumerationSegment(circuit, IndependentInputs(0.5))
        joint = segment.pair_joint("22", "23")
        assert joint.sum() == pytest.approx(1.0)


class TestBudget:
    def test_too_wide_rejected(self):
        circuit = generate.random_layered_circuit(12, 20, seed=0)
        with pytest.raises(SegmentTooWide):
            EnumerationSegment(circuit, IndependentInputs(0.5), max_input_states=4 ** 8)

    def test_update_inputs_invalidates_cache(self):
        circuit = examples.c17()
        segment = EnumerationSegment(circuit, IndependentInputs(0.5))
        first = segment.estimate()
        segment.update_inputs(IndependentInputs(0.9))
        second = segment.estimate()
        assert not np.allclose(
            first.distributions["22"], second.distributions["22"]
        )
        exact = exact_switching_by_enumeration(circuit, IndependentInputs(0.9))
        assert np.allclose(second.distributions["22"], exact["22"], atol=1e-12)

    def test_stats(self):
        circuit = examples.c17()
        segment = EnumerationSegment(circuit, IndependentInputs(0.5))
        stats = segment.stats()
        assert stats["max_clique_states"] == N_STATES ** 5
