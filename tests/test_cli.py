"""Command-line interface: outputs, exit codes, reproducibility."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import treesched.cli as cli
from treesched.cli import main
from treesched.model import LinearSystem, SensorTree, save_model


@pytest.fixture
def scalar_model(tmp_path):
    path = tmp_path / "scalar.json"
    save_model(
        path,
        LinearSystem(A=[[1.0]], Q=[[1.0]], C=[[1.0]], r=[1.0], Sigma0=[[1.0]]),
        SensorTree(parent=[0], cost=[1.0]),
    )
    return path


@pytest.fixture
def chain_model(tmp_path):
    path = tmp_path / "chain.json"
    save_model(
        path,
        LinearSystem(
            A=np.eye(3), Q=np.eye(3), C=np.eye(3), r=[1.0, 1.0, 1.0], Sigma0=np.eye(3)
        ),
        SensorTree(parent=[0, 1, 2], cost=[1.0, 1.0, 1.0]),
    )
    return path


class TestOptimize:
    def test_scalar_demo_output(self, scalar_model, tmp_path, capsys):
        out = tmp_path / "greedy.csv"
        code = main(["optimize", str(scalar_model), "--budget", "1.0", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "p_star 1.0" in captured
        assert "trace_L_inf 0.61803398" in captured
        assert out.exists()

    def test_zero_budget_exit_2(self, scalar_model, capsys):
        assert main(["optimize", str(scalar_model), "--budget", "0.0"]) == 2

    @pytest.mark.parametrize(
        "command, model, options, error",
        [
            pytest.param("optimize", {}, ["--budget", "-1"], "InvalidBudget", id="-1-optimize"),
            pytest.param("baseline", {}, ["--budget", "-1"], "InvalidBudget", id="-1-baseline"),
            pytest.param("optimize", {}, ["--budget", "nan"], "InvalidBudget", id="nan-optimize"),
            pytest.param("baseline", {}, ["--budget", "nan"], "InvalidBudget", id="nan-baseline"),
            pytest.param("decompose", {}, ["--p", "abc"], "InvalidInput", id="decompose-p-abc"),
            pytest.param("decompose", {}, ["--p", "2"], "InvalidInput", id="decompose-p-2"),
            pytest.param("decompose", {}, ["--p", "inf"], "InvalidInput", id="decompose-p-inf"),
            pytest.param("decompose", {}, ["--p", "nan"], "InvalidInput", id="decompose-p-nan"),
            pytest.param("simulate", {}, ["--p", "nan"], "InvalidInput", id="simulate-p-nan"),
            pytest.param(
                "simulate", {}, ["--p", "0.5", "--rounds", "-3"], "InvalidInput", id="simulate-rounds-neg"
            ),
            pytest.param(
                "optimize", {"A": [[math.nan]]}, ["--budget", "1"], "InvalidInput", id="optimize-A-nan"
            ),
            pytest.param(
                "baseline", {"A": [[math.nan]]}, ["--budget", "1"], "InvalidInput", id="baseline-A-nan"
            ),
            pytest.param(
                "baseline", {"C": [[math.inf]]}, ["--budget", "1"], "InvalidInput", id="baseline-C-inf"
            ),
        ],
    )
    def test_invalid_budget_exit_2(self, scalar_model, capsys, command, model, options, error):
        """Malformed, non-finite or out-of-range input of any kind (a budget,
        marginals, a round count, model arrays) exits 2 with one named line."""
        doc = json.loads(scalar_model.read_text())
        scalar_model.write_text(json.dumps({**doc, **model}))
        assert main([command, str(scalar_model), *options]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_infinite_budget_accepted(self, scalar_model, capsys):
        assert main(["optimize", str(scalar_model), "--budget", "inf"]) == 0
        assert "p_star 1.0" in capsys.readouterr().out

    def test_missing_file_exit_3(self, capsys):
        assert main(["optimize", "no-such-file.json", "--budget", "1.0"]) == 3

    def test_rerun_byte_identical(self, scalar_model, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["optimize", str(scalar_model), "--budget", "0.5", "--out", str(a)]) == 0
        assert main(["optimize", str(scalar_model), "--budget", "0.5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestDecomposeSimulate:
    def test_decompose_chain(self, chain_model, tmp_path, capsys):
        out = tmp_path / "dist.csv"
        code = main(["decompose", str(chain_model), "--p", "0.8,0.5,0.5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4

    def test_decompose_infeasible_exit_2(self, chain_model, capsys):
        assert main(["decompose", str(chain_model), "--p", "0.2,0.5,0.5"]) == 2

    def test_simulate_log(self, chain_model, tmp_path, capsys):
        out = tmp_path / "rounds.csv"
        code = main(
            [
                "simulate",
                str(chain_model),
                "--p",
                "0.8,0.5,0.25",
                "--rounds",
                "400",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "control_messages 0" in captured
        assert len(out.read_text().strip().splitlines()) == 401


class TestBaselineDiffusion:
    def test_baseline_scalar(self, scalar_model, capsys):
        assert main(["baseline", str(scalar_model), "--budget", "1.0"]) == 0
        captured = capsys.readouterr().out
        assert "members 1" in captured

    def test_diffusion_generates_model(self, tmp_path, capsys):
        model = tmp_path / "diff.json"
        pos = tmp_path / "pos.csv"
        code = main(
            ["diffusion", "--seed", "5", "--out", str(model), "--positions", str(pos)]
        )
        assert code == 0
        doc = json.loads(model.read_text())
        assert doc["n"] == 16 and doc["m"] == 16
        assert len(pos.read_text().strip().splitlines()) == 17


class TestExperiment:
    def make_config(self, tmp_path, trials=1, **overrides):
        cfg = {
            "trials": trials,
            "seed": 33,
            "mc_trials": 200,
            "burn_in": 40,
            "horizon": 80,
            "rounds": 500,
            "path_steps": 60,
            "path_mc_trials": 100,
            "diffusion": {
                "side_length": 3.0,
                "diffusion_rate": 0.1,
                "grid_spacing": 1.0,
                "time_step": 1.0,
                "sensor_count": 16,
                "process_noise": 1.0,
                "measurement_noise": 1.0,
                "initial_variance": 4.0,
                "budget": 6.0,
                "cost_offset": 1.0,
            },
        }
        cfg.update(overrides)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_single_trial_outputs(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "trials_ok 1" in captured
        ratios = (out_dir / "ratios.csv").read_text().strip().splitlines()
        assert ratios[0].startswith("trial,ratio,")
        assert len(ratios) == 2
        # the reported mean is the arithmetic mean of the ratio column
        csv_mean = np.mean([float(r.split(",")[1]) for r in ratios[1:]])
        reported = float(
            next(l for l in captured.splitlines() if l.startswith("mean_ratio")).split()[1]
        )
        assert reported == pytest.approx(csv_mean, abs=1e-15)
        paths = (out_dir / "trace_path.csv").read_text().strip().splitlines()
        assert paths[0] == "step,trace_deterministic,trace_sample_path,trace_mc_mean"
        assert len(paths) == 61

    def test_figure_stage_reuses_trial_results(self, tmp_path, capsys, monkeypatch):
        calls = {"greedy_optimize": 0, "best_deterministic": 0}
        for name in calls:

            def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        cfg = self.make_config(
            tmp_path, mc_trials=4, burn_in=2, horizon=5, rounds=20, path_steps=5, path_mc_trials=2
        )
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        assert calls == {"greedy_optimize": 1, "best_deterministic": 1}

    def test_reproducible_and_jobs_invariant(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        d1.mkdir()
        d2.mkdir()
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(d1)]) == 0
        assert main(
            ["experiment", "--config", str(cfg), "--out-dir", str(d2), "--jobs", "2"]
        ) == 0
        assert (d1 / "ratios.csv").read_bytes() == (d2 / "ratios.csv").read_bytes()
        assert (d1 / "trace_path.csv").read_bytes() == (d2 / "trace_path.csv").read_bytes()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    captured = capsys.readouterr().out
    assert "all" in captured and "checks passed" in captured


def test_module_entry_point(scalar_model):
    proc = subprocess.run(
        [sys.executable, "-m", "treesched", "optimize", str(scalar_model), "--budget", "1.0"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert "trace_L_inf 0.61803398" in proc.stdout
