"""Backend protocol, registry, and facade behavior."""

import pytest

from repro import estimate
from repro.circuits import suite
from repro.circuits.examples import c17
from repro.core.backend import (
    Backend,
    CliqueBudgetExceeded,
    Method,
    UnknownBackendError,
    available_backends,
    compile_model,
    get_backend,
    register_backend,
)
from repro.core.backend.backends import EstimatorCompiledModel
from repro.core.estimator import SwitchingActivityEstimator
from repro.core.inputs import IndependentInputs
from repro.core.segments import SegmentedEstimator

BUILTIN_BACKENDS = [
    "auto",
    "enumeration",
    "independence",
    "junction-tree",
    "local-cone",
    "monte-carlo",
    "pairwise",
    "segmented",
    "simulation",
]


def test_available_backends_lists_builtins():
    assert available_backends() == BUILTIN_BACKENDS


def test_unknown_backend_raises():
    with pytest.raises(UnknownBackendError):
        get_backend("does-not-exist")


def test_junction_tree_matches_direct_estimator():
    circuit = c17()
    direct = SwitchingActivityEstimator(circuit).estimate()
    via_backend = estimate(circuit, backend="junction-tree")
    assert via_backend.method == Method.SINGLE_BN.value
    for line in circuit.lines:
        assert via_backend.switching(line) == direct.switching(line)


def test_segmented_matches_direct_estimator():
    circuit = suite.load_circuit("c432s")
    direct = SegmentedEstimator(circuit).estimate()
    via_backend = estimate(circuit, backend="segmented")
    assert via_backend.method == Method.SEGMENTED.value
    assert via_backend.segments == direct.segments
    for line in circuit.lines:
        assert via_backend.switching(line) == direct.switching(line)


def test_enumeration_matches_junction_tree_exactly():
    circuit = c17()
    jt = estimate(circuit, backend="junction-tree")
    enum = estimate(circuit, backend="enumeration")
    assert enum.method == Method.ENUMERATION.value
    for line in circuit.lines:
        assert enum.switching(line) == pytest.approx(jt.switching(line), abs=1e-12)


def test_auto_picks_single_bn_for_small_circuits():
    model = compile_model(c17(), backend="auto")
    assert isinstance(model.estimator, SwitchingActivityEstimator)


def test_auto_falls_back_to_segmented_on_budget():
    circuit = suite.load_circuit("c432s")
    model = compile_model(circuit, backend="auto")
    assert isinstance(model.estimator, SegmentedEstimator)


def test_auto_fallback_triggered_by_clique_budget():
    # A tiny budget forces even c17 through the segmentation fallback.
    model = compile_model(c17(), backend="auto", max_clique_states=4)
    assert isinstance(model.estimator, SegmentedEstimator)
    with pytest.raises(CliqueBudgetExceeded):
        compile_model(c17(), backend="junction-tree", max_clique_states=4)


@pytest.mark.parametrize("name", ["pairwise", "local-cone", "independence"])
def test_baseline_backends_share_the_estimate_surface(name):
    result = estimate(c17(), IndependentInputs(0.5), backend=name)
    assert result.method == Method.canonical(result.method)
    for line, dist in result.distributions.items():
        assert dist.shape == (4,)
        assert 0.0 <= result.switching(line) <= 1.0


def test_pairwise_backend_activities_match_baseline():
    from repro.baselines.pairwise import pairwise_switching

    circuit = c17()
    model = IndependentInputs(0.5)
    direct = pairwise_switching(circuit, model)
    via_backend = estimate(circuit, model, backend="pairwise")
    for line, activity in direct.activities.items():
        assert via_backend.switching(line) == activity


def test_query_updates_inputs():
    model = compile_model(c17(), backend="junction-tree")
    at_half = model.query(IndependentInputs(0.5))
    at_low = model.query(IndependentInputs(0.1))
    assert at_half.mean_activity() != at_low.mean_activity()
    direct = SwitchingActivityEstimator(c17(), IndependentInputs(0.1)).estimate()
    for line in at_low.distributions:
        assert at_low.switching(line) == pytest.approx(direct.switching(line), abs=1e-12)


def test_method_vocabulary_is_closed():
    values = {m.value for m in Method}
    assert Method.canonical("single-bn") == Method.SINGLE_BN.value
    with pytest.raises(ValueError):
        Method.canonical("not-a-method")
    # Every backend reports one of the enumerated method strings.
    for name in ("junction-tree", "segmented", "enumeration", "independence"):
        result = estimate(c17(), backend=name)
        assert result.method in values


def test_register_backend_rejects_duplicates_and_accepts_custom():
    class ConstantModel(EstimatorCompiledModel):
        pass

    class ConstantBackend(Backend):
        name = "constant-test"

        def compile(self, circuit, inputs=None, **options):
            estimator = SwitchingActivityEstimator(circuit, inputs)
            return ConstantModel(self.name, circuit, estimator.compile())

    with pytest.raises(ValueError):
        register_backend(get_backend("junction-tree"))
    register_backend(ConstantBackend(), replace=True)
    try:
        assert "constant-test" in available_backends()
        result = estimate(c17(), backend="constant-test")
        assert isinstance(result.mean_activity(), float)
    finally:
        from repro.core.backend import registry

        registry._REGISTRY.pop("constant-test", None)


def test_backend_name_threaded_into_spans():
    from repro import obs

    obs.enable()
    try:
        tracer = obs.get_tracer()
        with tracer.span("test.root"):
            estimate(c17(), backend="junction-tree")
        report = obs.build_report(meta={})
        spans = []

        def walk(node):
            spans.append(node)
            for child in node.get("children", []):
                walk(child)

        for root in report["spans"]:
            walk(root)
        compile_spans = [s for s in spans if s["name"] == "backend.compile"]
        query_spans = [s for s in spans if s["name"] == "backend.query"]
        assert compile_spans and query_spans
        assert compile_spans[0]["attributes"]["backend"] == "junction-tree"
        assert query_spans[0]["attributes"]["backend"] == "junction-tree"
    finally:
        obs.disable()
        obs.reset()


class TestQueryManyChunkErrors:
    """``query_many`` chunking must rebase ``ZeroBeliefError`` indices.

    The estimator only ever sees one chunk, so its ``batch_indices``
    are chunk-local; a failure in any chunk but the first used to be
    reported with the *wrong* scenario numbers.
    """

    def _model_with_failing_chunk(self, failing_global_index, chunk):
        from repro.errors import ZeroBeliefError

        model = compile_model(c17(), backend="junction-tree")
        real = model.estimator.estimate_many
        calls = {"start": 0}

        def flaky(models, **kwargs):
            start = calls["start"]
            calls["start"] += len(models)
            local = failing_global_index - start
            if 0 <= local < len(models):
                err = ZeroBeliefError(
                    f"cannot normalize a zero belief for batch "
                    f"elements [{local}]"
                )
                err.batch_indices = (local,)
                raise err
            return real(models, **kwargs)

        model.estimator.estimate_many = flaky
        return model

    def test_second_chunk_failure_reports_original_index(self):
        from repro.errors import ZeroBeliefError

        model = self._model_with_failing_chunk(failing_global_index=5, chunk=3)
        scenarios = [IndependentInputs(0.1 * (i + 1)) for i in range(7)]
        with pytest.raises(ZeroBeliefError) as excinfo:
            model.query_many(scenarios, batch_size=3)
        # Scenario 5 lives at local index 2 of chunk 2; the caller must
        # see 5, not 2.
        assert excinfo.value.batch_indices == (5,)
        assert "5" in str(excinfo.value)

    def test_first_chunk_failure_indices_unchanged(self):
        from repro.errors import ZeroBeliefError

        model = self._model_with_failing_chunk(failing_global_index=1, chunk=4)
        scenarios = [IndependentInputs(0.1 * (i + 1)) for i in range(8)]
        with pytest.raises(ZeroBeliefError) as excinfo:
            model.query_many(scenarios, batch_size=4)
        assert excinfo.value.batch_indices == (1,)
