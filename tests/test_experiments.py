"""Integration tests for the experiment harness and CLI."""

from repro.experiments.ablations import (
    ablate_compile_vs_propagate,
    ablate_input_models,
    ablate_segmentation,
    ablate_triangulation,
)
from repro.experiments.figures import figure_walkthrough
from repro.experiments.table1 import make_estimator, run_table1
from repro.experiments.table2 import run_table2


class TestTable1:
    def test_small_rows(self):
        rows = run_table1(["c17", "comp"], n_pairs=20_000, seed=1)
        assert [r["circuit"] for r in rows] == ["c17", "comp"]
        for row in rows:
            assert row["mu_abs_err"] < 0.02
            assert row["sigma_err"] < 0.05
            assert row["update_s"] > 0
            assert row["total_s"] > row["update_s"] / 10

    def test_c17_is_single_segment_and_near_exact(self):
        row = run_table1(["c17"], n_pairs=50_000, seed=0)[0]
        assert row["segments"] == 1
        # Single-BN estimation is exact; residual is simulation noise.
        assert row["mu_abs_err"] < 0.01
        assert row["pct_err"] < 2.0

    def test_make_estimator_picks_segmented_for_large(self):
        from repro.circuits import suite
        from repro.core.segments import SegmentedEstimator

        circuit = suite.load_circuit("c432s")
        estimator = make_estimator(circuit)
        assert isinstance(estimator, SegmentedEstimator)

    def test_make_estimator_picks_single_for_small(self):
        from repro.circuits import suite
        from repro.core.estimator import SwitchingActivityEstimator

        circuit = suite.load_circuit("c17")
        estimator = make_estimator(circuit)
        assert isinstance(estimator, SwitchingActivityEstimator)


class TestTable2:
    def test_methods_and_ordering(self):
        rows = run_table2(["c17"], n_pairs=30_000, seed=2)
        methods = {r["method"] for r in rows}
        assert methods == {
            "bayesian-network",
            "pairwise",
            "local-cone",
            "independence",
        }
        by_method = {r["method"]: r for r in rows}
        # The headline shape: the exact BN beats the approximations
        # (up to simulation noise, which the tolerance absorbs).
        assert (
            by_method["bayesian-network"]["mu_abs_err"]
            <= by_method["independence"]["mu_abs_err"] + 1e-3
        )

    def test_bn_is_most_accurate_on_reconvergent_circuit(self):
        rows = run_table2(["c432s"], n_pairs=30_000, seed=0)
        by_method = {r["method"]: r for r in rows}
        assert (
            by_method["bayesian-network"]["mu_abs_err"]
            < by_method["independence"]["mu_abs_err"]
        )


class TestFigures:
    def test_walkthrough_matches_paper(self):
        data = figure_walkthrough()
        assert ("1", "5") in data["lidag_edges"]
        assert ("7", "9") in data["lidag_edges"]
        # The moral graph marries exactly the four parent pairs.
        assert data["marriages"] == [("1", "2"), ("3", "4"), ("5", "6"), ("7", "8")]
        # One fill-in breaks the 4-6-7-8 square (either chord is valid).
        assert len(data["fill_ins"]) == 1
        assert set(data["fill_ins"][0]) in ({"4", "7"}, {"6", "8"})
        # Six 3-variable cliques, as in the paper's Figure 4.
        assert all(len(c) == 3 for c in data["cliques"])
        assert data["junction_tree"].check_running_intersection()

    def test_factorization_string(self):
        data = figure_walkthrough()
        assert "P(x9|x7,x8)" in data["factorization"]
        assert "P(x5|x1,x2)" in data["factorization"]


class TestAblations:
    def test_triangulation(self):
        rows = ablate_triangulation(["c17", "pcler8"])
        assert len(rows) == 4
        heuristics = {r["heuristic"] for r in rows}
        assert heuristics == {"min_fill", "min_degree"}

    def test_segmentation(self):
        rows = ablate_segmentation("alu", n_pairs=10_000)
        assert len(rows) == 8
        assert {r["boundary"] for r in rows} == {"independent", "tree"}

    def test_compile_vs_propagate(self):
        rows = ablate_compile_vs_propagate(["c17", "alu"], n_statistics=3)
        for row in rows:
            assert row["mean_propagate_s"] > 0
            assert row["compile_s"] > 0

    def test_input_models(self):
        rows = ablate_input_models("alu", n_pairs=20_000)
        assert len(rows) == 4
        for row in rows:
            assert row["mu_abs_err"] < 0.02
        # Lower input activity must lower circuit activity.
        by_label = {r["input_model"]: r for r in rows}
        assert (
            by_label["temporal a=0.1"]["mean_activity"]
            < by_label["temporal a=0.4"]["mean_activity"]
        )


class TestCli:
    def test_estimate_command(self, capsys):
        from repro.cli import main

        assert main(["estimate", "--circuit", "c17"]) == 0
        out = capsys.readouterr().out
        assert "mean switching activity" in out

    def test_figures_command(self, capsys):
        from repro.cli import main

        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out

    def test_table1_command_subset(self, capsys):
        from repro.cli import main

        assert main(["table1", "--circuits", "c17", "--pairs", "5000"]) == 0
        out = capsys.readouterr().out
        assert "c17" in out and "sigma_err" in out
