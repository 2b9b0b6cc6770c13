"""End-to-end CLI coverage: estimate (with cache), stats, cache."""

import json
import re

import pytest

from repro.cli import main
from repro.core.backend.cache import CACHE_DIR_ENV


@pytest.fixture
def cache_dir(monkeypatch, tmp_path):
    """Point the default cache at a throwaway directory."""
    directory = tmp_path / "cache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(directory))
    return directory


def _activities(output: str) -> dict:
    """Parse the output-switching table printed by ``estimate``."""
    acts = {}
    for line, value in re.findall(r"^\s*(\S+)\s+([0-9.]+)\s*$", output, re.M):
        acts[line] = value
    return acts


def test_estimate_second_run_hits_cache(capsys, cache_dir):
    assert main(["estimate", "--circuit", "c432s"]) == 0
    first = capsys.readouterr().out
    assert "cache miss" in first

    assert main(["estimate", "--circuit", "c432s"]) == 0
    second = capsys.readouterr().out
    assert "cache hit" in second

    # The artifact landed in the overridden default directory and the
    # cached run reproduces the exact same reported activities.
    assert list(cache_dir.glob("*.repro.pkl"))
    assert _activities(first)
    assert _activities(first) == _activities(second)


def test_estimate_no_cache_flag(capsys, cache_dir):
    assert main(["estimate", "--circuit", "c17", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "cache off" in out
    assert not cache_dir.exists()


def test_estimate_cache_dir_flag(capsys, tmp_path):
    explicit = tmp_path / "explicit"
    assert main(
        ["estimate", "--circuit", "c17", "--cache-dir", str(explicit)]
    ) == 0
    assert "cache miss" in capsys.readouterr().out
    assert list(explicit.glob("*.repro.pkl"))


def test_estimate_backend_flag(capsys, cache_dir):
    assert main(
        ["estimate", "--circuit", "c17", "--backend", "enumeration"]
    ) == 0
    assert "method enumeration" in capsys.readouterr().out


def test_cache_ls_and_clear(capsys, cache_dir):
    main(["estimate", "--circuit", "c17"])
    capsys.readouterr()

    assert main(["cache", "ls"]) == 0
    listing = capsys.readouterr().out
    assert "1 artifact(s)" in listing
    assert "c17" in listing

    assert main(["cache", "clear"]) == 0
    assert "removed 1 artifact(s)" in capsys.readouterr().out

    assert main(["cache", "ls"]) == 0
    assert "empty" in capsys.readouterr().out


def test_cache_dir_option_overrides_env(capsys, cache_dir, tmp_path):
    other = tmp_path / "other"
    main(["estimate", "--circuit", "c17", "--cache-dir", str(other)])
    capsys.readouterr()
    assert main(["cache", "ls", "--dir", str(other)]) == 0
    assert "1 artifact(s)" in capsys.readouterr().out
    assert main(["cache", "ls"]) == 0
    assert "empty" in capsys.readouterr().out


@pytest.fixture
def disable_obs_after():
    yield
    from repro import obs

    obs.disable()
    obs.reset()


def test_stats_subcommand_reports_span_tree(
    capsys, cache_dir, tmp_path, disable_obs_after
):
    report_path = tmp_path / "stats.json"
    assert main(
        ["stats", "--circuit", "c17", "--json", str(report_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "stats.run" in out
    assert "backend.compile" in out
    assert "re-propagate" in out

    report = json.loads(report_path.read_text())
    assert report["schema"] == "repro.obs/v2"
    names = set()

    def walk(span):
        names.add(span["name"])
        for child in span["children"]:
            walk(child)

    for span in report["spans"]:
        walk(span)
    assert "backend.compile" in names
    assert "backend.query" in names
    assert "estimator.compile" in names or "segmented.compile" in names


class TestErrorHandling:
    """Anticipated failures: exit 1 with a one-line message, no traceback."""

    def test_unknown_circuit_name(self, capsys):
        assert main(["estimate", "--circuit", "nonesuch", "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: unknown circuit")
        assert "Traceback" not in captured.err

    def test_unparseable_bench_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.bench"
        bad.write_text("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n")
        assert main(["estimate", "--circuit", str(bad), "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "ghost" in err and "line 3" in err

    def test_missing_bench_file(self, capsys, tmp_path):
        assert main(
            ["estimate", "--circuit", str(tmp_path / "no.bench"), "--no-cache"]
        ) == 1
        assert "no such .bench file" in capsys.readouterr().err

    def test_unknown_backend(self, capsys):
        assert main(
            ["estimate", "--circuit", "c17", "--backend", "warp", "--no-cache"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown backend")
        assert "Traceback" not in err

    def test_stats_unknown_circuit(self, capsys, disable_obs_after):
        assert main(["stats", "--circuit", "nonesuch"]) == 1
        assert "repro: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--result-cache-entries", "-1"],
        ["--no-result-cache"],
    ])
    def test_serve_rejects_bad_result_cache_flags(self, capsys, flags):
        # argparse exits before a server is built or a port is bound.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", *flags])
        assert excinfo.value.code == 2
        assert "result-cache" in capsys.readouterr().err


def test_estimate_accepts_bench_path(capsys, tmp_path):
    bench = tmp_path / "mini.bench"
    bench.write_text("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")
    assert main(["estimate", "--circuit", str(bench), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "mini: 1 gates" in out


def test_estimate_fallback_flag_reports_degradation(capsys, cache_dir):
    assert main(
        [
            "estimate", "--circuit", "c17", "--no-cache",
            "--backend", "junction-tree", "--fallback",
        ]
    ) == 0
    # c17 compiles fine: no degradation lines, but the flag parses.
    assert "fallback:" not in capsys.readouterr().out


def test_fuzz_smoke_clean(capsys, tmp_path):
    assert main(
        [
            "fuzz", "--seeds", "3", "--max-gates", "10", "--max-inputs", "4",
            "--out", str(tmp_path / "failures"),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "3 ok, 0 failing" in out
    assert not (tmp_path / "failures").exists() or not list(
        (tmp_path / "failures").iterdir()
    )


def test_fuzz_unknown_backend(capsys):
    assert main(["fuzz", "--seeds", "1", "--backends", "warp"]) == 1
    assert "unknown backend" in capsys.readouterr().err


class TestSweep:
    """`repro sweep`: batch-propagate a scenario file over one compile."""

    def _write_scenarios(self, tmp_path, payload):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_sweep_reports_per_scenario_activity(self, capsys, tmp_path):
        scenarios = self._write_scenarios(
            tmp_path,
            [
                {"kind": "independent", "p_one": 0.5},
                {"kind": "independent", "p_one": 0.2},
                {"kind": "temporal", "p_one": 0.6, "activity": 0.3},
            ],
        )
        assert main(
            ["sweep", "--circuit", "c17", "--scenarios", scenarios, "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "3 scenario(s)" in out
        assert "scenarios/sec" in out
        # One activity row per scenario, and the fair-coin scenario
        # reproduces the known c17 mean activity.
        assert "0.470170" in out

    def test_sweep_batch_flag_chunks_without_changing_results(
        self, capsys, tmp_path
    ):
        scenarios = self._write_scenarios(
            tmp_path,
            {"scenarios": [
                {"kind": "independent", "p_one": p} for p in (0.1, 0.4, 0.7)
            ]},
        )
        assert main(
            [
                "sweep", "--circuit", "c17", "--scenarios", scenarios,
                "--batch", "2", "--no-cache",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "batch 2" in out
        assert "3 scenario(s)" in out

    def test_sweep_uses_compile_cache(self, capsys, cache_dir, tmp_path):
        scenarios = self._write_scenarios(
            tmp_path, [{"kind": "independent", "p_one": 0.5}]
        )
        assert main(["sweep", "--circuit", "c17", "--scenarios", scenarios]) == 0
        assert "cache miss" in capsys.readouterr().out
        assert main(["sweep", "--circuit", "c17", "--scenarios", scenarios]) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_sweep_missing_file_exits_one(self, capsys, tmp_path):
        assert main(
            [
                "sweep", "--circuit", "c17", "--no-cache",
                "--scenarios", str(tmp_path / "nope.json"),
            ]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error: cannot read scenario file")
        assert "Traceback" not in err

    def test_sweep_malformed_scenarios_exit_one(self, capsys, tmp_path):
        for payload in ([], {"scenarios": "nope"}, [{"kind": "warp"}], [42]):
            scenarios = self._write_scenarios(tmp_path, payload)
            assert main(
                [
                    "sweep", "--circuit", "c17", "--scenarios", scenarios,
                    "--no-cache",
                ]
            ) == 1
            err = capsys.readouterr().err
            assert err.startswith("repro: error:")
            assert "Traceback" not in err

    def test_sweep_invalid_json_exits_one(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(
            ["sweep", "--circuit", "c17", "--scenarios", str(path), "--no-cache"]
        ) == 1
        assert "malformed JSON" in capsys.readouterr().err
