"""The strict validation pass: circuits, mutated circuits, input models."""

import numpy as np
import pytest

from repro.circuits.examples import c17
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit, Gate
from repro.core.backend import compile_model
from repro.bayesian.cpd import TabularCPD
from repro.core.inputs import IndependentInputs, InputModel
from repro.core.segments import FixedMarginalInputs
from repro.core.validate import validate, validate_circuit, validate_input_model
from repro.errors import (
    CombinationalCycleError,
    DuplicateDefinitionError,
    InputModelError,
    UndefinedLineError,
    ValidationError,
)


class TestConstructionRejects:
    """Circuit.__init__ runs the declaration-level checks."""

    def test_duplicate_inputs(self):
        with pytest.raises(DuplicateDefinitionError, match="declared twice"):
            Circuit("bad", ["a", "a"], [Gate("y", GateType.NOT, ["a"])])

    def test_line_driven_twice(self):
        with pytest.raises(DuplicateDefinitionError, match="driven twice"):
            Circuit(
                "bad",
                ["a"],
                [Gate("y", GateType.NOT, ["a"]), Gate("y", GateType.BUF, ["a"])],
            )

    def test_input_driven_by_gate(self):
        with pytest.raises(DuplicateDefinitionError, match="driven by a gate"):
            Circuit("bad", ["a", "b"], [Gate("b", GateType.NOT, ["a"])])

    def test_undefined_operand(self):
        with pytest.raises(UndefinedLineError, match="undefined line"):
            Circuit("bad", ["a"], [Gate("y", GateType.AND, ["a", "ghost"])])

    def test_cycle(self):
        with pytest.raises(CombinationalCycleError, match="combinational cycle"):
            Circuit(
                "bad",
                ["a"],
                [Gate("y", GateType.AND, ["a", "z"]), Gate("z", GateType.NOT, ["y"])],
            )


class TestValidateCircuit:
    def test_well_formed_passes(self):
        validate_circuit(c17())

    def test_mutated_circuit_caught(self):
        """Post-construction mutation is caught by the facade re-check."""
        circuit = c17()
        circuit.gates["10"] = Gate("10", GateType.NAND, ["1", "ghost"])
        with pytest.raises(UndefinedLineError, match="ghost"):
            validate_circuit(circuit)

    def test_mutated_cycle_caught(self):
        # Rewire two gates to read each other -- a cycle the cached
        # topological order predates.
        circuit = c17()
        first, second = list(circuit.gates)[:2]
        circuit.gates[first] = Gate(first, GateType.NAND, ["1", second])
        circuit.gates[second] = Gate(second, GateType.NAND, ["1", first])
        with pytest.raises(CombinationalCycleError):
            validate_circuit(circuit)

    def test_facade_runs_validation(self):
        circuit = c17()
        circuit.gates["10"] = Gate("10", GateType.NAND, ["1", "ghost"])
        with pytest.raises(ValidationError):
            compile_model(circuit, backend="junction-tree")


class TestValidateInputModel:
    def test_independent_passes(self):
        validate(c17(), IndependentInputs(0.3))

    def test_non_model_rejected(self):
        with pytest.raises(InputModelError, match="must be an InputModel"):
            validate_input_model(c17(), {"1": 0.5})

    def test_missing_input_rejected(self):
        circuit = c17()
        partial = FixedMarginalInputs(
            {name: np.full(4, 0.25) for name in circuit.inputs[:-1]}
        )
        with pytest.raises(InputModelError, match="no statistics"):
            validate_input_model(circuit, partial)

    def test_unnormalized_marginal_rejected(self):
        circuit = c17()

        class Bad(InputModel):
            def marginal_distribution(self, name):
                return np.array([0.5, 0.5, 0.5, 0.5])

            def input_cpds(self, input_names):
                return []

            def sample_pairs(self, input_names, n_pairs, rng):
                raise NotImplementedError

        with pytest.raises(InputModelError, match="sums to"):
            validate_input_model(circuit, Bad())

    def test_non_finite_marginal_rejected(self):
        circuit = c17()

        class Bad(InputModel):
            def marginal_distribution(self, name):
                return np.array([np.nan, 0.5, 0.25, 0.25])

            def input_cpds(self, input_names):
                return []

            def sample_pairs(self, input_names, n_pairs, rng):
                raise NotImplementedError

        with pytest.raises(InputModelError, match="non-finite"):
            validate_input_model(circuit, Bad())

    def test_missing_cpd_rejected(self):
        circuit = c17()
        quarter = np.full(4, 0.25)

        class Bad(FixedMarginalInputs):
            def input_cpds(self, input_names):
                return super().input_cpds(list(input_names)[:-1])

        model = Bad({name: quarter for name in circuit.inputs})
        with pytest.raises(InputModelError, match="no CPD"):
            validate_input_model(circuit, model)

    def test_facade_rejects_bad_model(self):
        with pytest.raises(InputModelError):
            compile_model(c17(), {"not": "a model"}, backend="junction-tree")


QUARTER = [0.25, 0.25, 0.25, 0.25]


class _Scripted(InputModel):
    """Per-input marginals from a dict (an absent name raises
    KeyError); CPDs are priors over them unless ``cpds`` builds them."""

    def __init__(self, marginals, cpds=None):
        self.marginals = marginals
        self.cpds = cpds

    def marginal_distribution(self, name):
        return np.asarray(self.marginals[name], dtype=float)

    def input_cpds(self, input_names):
        if self.cpds is not None:
            return self.cpds(input_names)
        return [TabularCPD.prior(n, self.marginal_distribution(n)) for n in input_names]

    def sample_pairs(self, input_names, n_pairs, rng):
        raise NotImplementedError


def _with(**overrides):
    """c17's inputs ('1', '2', '3', '6', '7') at QUARTER, overridden by
    ``i<name>=marginal`` keywords; ``None`` drops the input."""
    marginals = {name: QUARTER for name in c17().inputs}
    for key, value in overrides.items():
        if value is None:
            del marginals[key[1:]]
        else:
            marginals[key[1:]] = value
    return marginals


def _bad_conditional(input_names):
    # '2' conditions on '1'; its row for parent state 2 sums to 0.9.
    table = np.full((4, 4), 0.25)
    table[2] = [0.3, 0.2, 0.2, 0.2]
    return [
        TabularCPD("2", 4, table, ["1"]) if n == "2" else TabularCPD.prior(n, QUARTER)
        for n in input_names
    ]


class TestInputModelErrorsAreExact:
    """The vectorized marginal pass raises exactly what the per-input
    checks raise: same type, same message, first failing input in
    circuit order even when a later input fails another check."""

    @pytest.mark.parametrize(
        "model,error,message",
        [
            pytest.param(
                _Scripted(_with(i3=[np.inf, 0.0, 0.0, 0.0], i6=[1.0, 1.0, 1.0, 1.0])),
                InputModelError, "marginal of '3' has non-finite entries",
                id="non-finite",
            ),
            pytest.param(
                _Scripted(_with(i2=[np.nan] * 4)),
                InputModelError, "marginal of '2' has non-finite entries",
                id="nan",
            ),
            pytest.param(
                _Scripted(_with(i6=[0.75, 0.5, -0.25, 0.0], i7=[np.nan] * 4)),
                InputModelError, "marginal of '6' has negative entries",
                id="negative",
            ),
            pytest.param(
                _Scripted(_with(i1=[0.3, 0.3, 0.3, 0.3], i2=[-1.0, 1.0, 0.5, 0.5])),
                InputModelError, "marginal of '1' sums to 1.2, expected 1",
                id="bad-sum",
            ),
            pytest.param(
                _Scripted(_with(i7=[0.25 + 2e-9, 0.25, 0.25, 0.25])),
                InputModelError, "marginal of '7' sums to 1, expected 1",
                id="sum-just-past-tolerance",
            ),
            pytest.param(
                _Scripted(_with(i2=[0.5, 0.5], i3=[np.nan] * 4)),
                InputModelError, "marginal of '2' has shape (2,), expected (4,)",
                id="wrong-shape",
            ),
            pytest.param(
                _Scripted(_with(i1=[[0.25, 0.25], [0.25, 0.25]])),
                InputModelError, "marginal of '1' has shape (2, 2), expected (4,)",
                id="wrong-rank",
            ),
            pytest.param(
                _Scripted(_with(i3=None, i6=[2.0, 0.0, 0.0, 0.0])),
                InputModelError,
                "input model provides no statistics for primary input '3'",
                id="missing-input",
            ),
            pytest.param(
                _Scripted(_with(i1=[0.5, 0.5, 0.5, 0.5], i3=None)),
                InputModelError, "marginal of '1' sums to 2, expected 1",
                id="bad-sum-before-missing",
            ),
            pytest.param(
                _Scripted(_with(), cpds=_bad_conditional),
                ValueError,
                "CPD for '2': rows must sum to 1 (worst deviation 0.1)",
                id="non-normalized-conditional-row",
            ),
        ],
    )
    def test_error(self, model, error, message):
        with pytest.raises(error) as excinfo:
            validate_input_model(c17(), model)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message

    def test_tolerance_edges_pass(self):
        validate_input_model(c17(), _Scripted(_with(i7=[0.25 + 5e-10, 0.25, 0.25, 0.25])))
        # allclose(atol=1e-8, rtol=1e-5) admits a 1.001e-5 deviation.
        ok = TabularCPD.prior("a", [0.25 + 1e-5, 0.25, 0.25, 0.25])
        assert ok.variable == "a"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.25 + 1.1e-5])
    def test_cpd_row_sum_rejects(self, bad):
        with pytest.raises(ValueError, match="rows must sum to 1"):
            TabularCPD.prior("a", [bad, 0.25, 0.25, 0.25])
