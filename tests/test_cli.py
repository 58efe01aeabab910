"""Command-line interface: outputs, exit codes, reproducibility."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import criterion2_instance, per_candidate_rows
import treesched.cli as cli
from treesched.cli import main
from treesched.model import LinearSystem, SensorTree, save_model

DROP = object()  # a model override that removes the key
SRC = Path(__file__).resolve().parents[1] / "src"


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
            pytest.param(
                "optimize", {"cost": [0.0]}, ["--budget", "1"], "InvalidInput", id="optimize-cost-0"
            ),
            pytest.param(
                "baseline", {"parent": [1]}, ["--budget", "1"], "InvalidInput", id="baseline-parent-cycle"
            ),
            pytest.param(
                "baseline", {"r": [-1.0]}, ["--budget", "1"], "NonPositiveNoise", id="baseline-r-neg"
            ),
            pytest.param(
                "baseline", {"Q": [[-1.0]]}, ["--budget", "1"], "NonPositiveNoise", id="baseline-Q-neg"
            ),
            pytest.param("baseline", {"r": DROP}, ["--budget", "1"], "InvalidInput", id="baseline-no-r"),
            pytest.param("baseline", [], ["--budget", "1"], "InvalidInput", id="baseline-model-list"),
            pytest.param(
                "baseline", {"parent": [0.5]}, ["--budget", "1"], "InvalidInput", id="baseline-parent-half"
            ),
            pytest.param(
                "baseline", {"parent": ["a"]}, ["--budget", "1"], "InvalidInput", id="baseline-parent-str"
            ),
            pytest.param(
                "baseline", {"A": "abc"}, ["--budget", "1"], "InvalidInput", id="baseline-A-str"
            ),
            pytest.param(
                "baseline", {"cost": ["x"]}, ["--budget", "1"], "InvalidInput", id="baseline-cost-str"
            ),
            pytest.param(
                "baseline",
                {"A": [[1.0], [2.0, 3.0]]},
                ["--budget", "1"],
                "InvalidInput",
                id="baseline-A-ragged",
            ),
            pytest.param(
                "baseline", {"r": {"a": 1}}, ["--budget", "1"], "InvalidInput", id="baseline-r-dict"
            ),
            pytest.param(
                "baseline", {"cost": [math.nan]}, ["--budget", "1"], "InvalidInput", id="baseline-cost-nan"
            ),
            pytest.param(
                "optimize", {"cost": [math.nan]}, ["--budget", "1"], "InvalidInput", id="optimize-cost-nan"
            ),
            pytest.param(
                "optimize", {"cost": [math.inf]}, ["--budget", "1"], "InvalidInput", id="optimize-cost-inf"
            ),
            pytest.param(
                "simulate", {}, ["--p", "2", "--out", "log.csv"], "InvalidInput", id="simulate-p-2-out"
            ),
            pytest.param(
                "simulate",
                {},
                ["--p", "0.5", "--rounds", "-3", "--out", "log.csv"],
                "InvalidInput",
                id="simulate-rounds-neg-out",
            ),
            pytest.param(
                "simulate", {}, ["--p", "0.5", "--seed", "-1"], "InvalidInput", id="simulate-seed-neg"
            ),
            pytest.param(
                "simulate",
                {},
                ["--p", "0.5", "--seed", str(2**64), "--out", "log.csv"],
                "InvalidInput",
                id="simulate-seed-2**64-out",
            ),
            pytest.param(
                "baseline", {"A": [[True]]}, ["--budget", "1"], "InvalidInput", id="baseline-A-bool"
            ),
            pytest.param(
                "baseline", {"parent": [False]}, ["--budget", "1"], "InvalidInput", id="baseline-parent-bool"
            ),
            pytest.param(
                "baseline", {"cost": [True]}, ["--budget", "1"], "InvalidInput", id="baseline-cost-bool"
            ),
        ],
    )
    def test_invalid_budget_exit_2(
        self, scalar_model, tmp_path, monkeypatch, capsys, command, model, options, error
    ):
        """Malformed, non-finite or out-of-range input of any kind (a budget,
        marginals, a round count, model arrays, a model that is not a complete
        JSON object) exits 2 with one named line and leaves no output file.
        ``model`` overrides keys of the scalar model (DROP removes one) or,
        when not a dict, replaces it; ``--out`` paths are relative to tmp_path."""
        monkeypatch.chdir(tmp_path)
        doc = json.loads(scalar_model.read_text())
        if isinstance(model, dict):
            doc = {k: v for k, v in {**doc, **model}.items() if v is not DROP}
        else:
            doc = model
        scalar_model.write_text(json.dumps(doc))
        assert main([command, str(scalar_model), *options]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}:")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == [scalar_model.name]

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

    def test_greedy_csv(self, scalar_model, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["optimize", str(scalar_model), "--budget", "1.0", "--out", str(a)]) == 0
        assert main(["optimize", str(scalar_model), "--budget", "1.0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "outer_iter,trace_L,p_1"


class TestDecomposeSimulate:
    def test_decompose_chain(self, chain_model, tmp_path, capsys):
        out = tmp_path / "dist.csv"
        code = main(["decompose", str(chain_model), "--p", "0.8,0.5,0.5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4

    def test_distribution_csv(self, chain_model, tmp_path, capsys):
        out = tmp_path / "dist.csv"
        assert main(["decompose", str(chain_model), "--p", "0.8,0.5,0.5", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tree_id,member_list,probability"
        assert len(lines) == 4
        assert "1;2;3" in lines[-1]

    def test_decompose_infeasible_exit_2(self, chain_model, capsys):
        assert main(["decompose", str(chain_model), "--p", "0.2,0.5,0.5"]) == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_simulate_unrealizable_exit_2(self, tmp_path, capsys, seed):
        """A child above its parent is rejected before any round, whatever the seed."""
        path = tmp_path / "chain2.json"
        system = LinearSystem(A=np.eye(2), Q=np.eye(2), C=np.eye(2), r=[1.0, 1.0], Sigma0=np.eye(2))
        save_model(path, system, SensorTree(parent=[0, 1], cost=[1.0, 1.0]))
        options = ["--p", "0.5,0.6", "--rounds", "3", "--seed", str(seed)]
        assert main(["simulate", str(path), *options]) == 2
        assert capsys.readouterr().err.startswith("error: OrderingViolated:")

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

    def test_round_log_csv(self, chain_model, tmp_path, capsys):
        out = tmp_path / "log.csv"
        options = ["--p", "0.8,0.5,0.25", "--rounds", "50", "--seed", "5", "--out", str(out)]
        assert main(["simulate", str(chain_model), *options]) == 0
        assert "rounds 50\n" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "round,alpha,selected_members,energy,packet_count"
        assert len(lines) == 51


class TestBaselineDiffusion:
    def test_baseline_scalar(self, scalar_model, capsys):
        assert main(["baseline", str(scalar_model), "--budget", "1.0"]) == 0
        captured = capsys.readouterr().out
        assert "members 1" in captured

    def test_candidates_csv(self, scalar_model, tmp_path, capsys):
        out = tmp_path / "candidates.csv"
        assert main(["baseline", str(scalar_model), "--budget", "1.0", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tree_members,energy,trace_P_inf"
        assert len(lines) == 3  # empty tree (divergent) + the single sensor

    def test_candidates_csv_bytes_match_per_candidate_rows(self, tmp_path, capsys):
        # criterion-2 instance 12: 14 candidates, the empty tree undetectable
        sys_, tree, budget = criterion2_instance(12)
        model, out = tmp_path / "model.json", tmp_path / "candidates.csv"
        save_model(model, sys_, tree)
        assert main(["baseline", str(model), "--budget", repr(budget), "--out", str(out)]) == 0
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["tree_members", "energy", "trace_P_inf"])
        rows = per_candidate_rows(sys_, tree, budget)
        writer.writerows(
            [";".join(map(str, members)), cli._fmt(energy), "" if tr is None else cli._fmt(tr)]
            for members, energy, tr in rows
        )
        assert any(tr is None for _, _, tr in rows)
        assert out.read_bytes() == expected.getvalue().encode("utf-8")

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


# A one-trial experiment small enough to finish in a second or two.
TINY_EXPERIMENT = {
    "trials": 1,
    "mc_trials": 4,
    "burn_in": 2,
    "horizon": 5,
    "rounds": 20,
    "path_steps": 5,
    "path_mc_trials": 2,
}


@pytest.mark.parametrize(
    "command, config, error",
    [
        pytest.param("diffusion", {"sensor_count": 0}, "InvalidInput", id="diffusion-no-sensors"),
        pytest.param("experiment", {"trials": "abc"}, "InvalidInput", id="experiment-trials-abc"),
        pytest.param(
            "experiment", {"burn_in": 5, "horizon": 3}, "InvalidInput", id="experiment-burn-in-past-horizon"
        ),
        pytest.param("experiment", {"path_mc_trials": 1}, "InvalidInput", id="experiment-path-mc-trials-1"),
        pytest.param(
            "experiment", {"diffusion": {"sensor_count": 0}}, "InvalidInput", id="experiment-no-sensors"
        ),
        pytest.param("diffusion", [1], "InvalidInput", id="diffusion-config-list"),
        pytest.param("diffusion", {"sensor_count": "abc"}, "InvalidInput", id="diffusion-sensor-count-abc"),
        pytest.param("diffusion", {"side_length": "abc"}, "InvalidInput", id="diffusion-side-length-abc"),
        pytest.param("diffusion", {"seed": -1}, "InvalidInput", id="diffusion-seed-neg"),
        pytest.param("experiment", {"trials": 1.7}, "InvalidInput", id="experiment-trials-1.7"),
        pytest.param("experiment", {"seed": 2**64}, "InvalidInput", id="experiment-seed-2**64"),
        pytest.param(
            "experiment", {"seed": 2**64 - 1, "trials": 2}, "InvalidInput", id="experiment-last-seed-2**64"
        ),
        pytest.param("experiment", {"diffusion": [1]}, "InvalidInput", id="experiment-diffusion-list"),
        pytest.param("diffusion", {"grid_spacing": 0}, "InvalidInput", id="diffusion-grid-spacing-0"),
        pytest.param(
            "diffusion", {"grid_spacing": -1, "side_length": -3}, "InvalidInput", id="diffusion-grid-spacing-neg"
        ),
        pytest.param(
            "diffusion", {"diffusion_rate": -0.1}, "UnstableDiscretization", id="diffusion-rate-neg"
        ),
        pytest.param("experiment", {"trials": True}, "InvalidInput", id="experiment-trials-bool"),
        pytest.param("diffusion", {"budget": True}, "InvalidInput", id="diffusion-budget-bool"),
        pytest.param(
            "experiment", {"diffusion": {"budget": -1}}, "InvalidBudget", id="experiment-budget-neg"
        ),
        pytest.param(
            "experiment",
            {"diffusion": {"process_noise": -1}},
            "NonPositiveNoise",
            id="experiment-process-noise-neg",
        ),
        pytest.param(
            "experiment",
            {"diffusion": {"measurement_noise": 0}},
            "NonPositiveNoise",
            id="experiment-measurement-noise-0",
        ),
        pytest.param(
            "experiment",
            {"diffusion": {"initial_variance": -4}},
            "NonPositiveNoise",
            id="experiment-initial-variance-neg",
        ),
        pytest.param(
            "experiment",
            {"diffusion": {"cost_offset": -50}},
            "InvalidInput",
            id="experiment-cost-offset-neg",
        ),
    ],
)
def test_malformed_config_exit_2(tmp_path, capsys, command, config, error):
    """A malformed diffusion or experiment config file exits 2 with one named
    line, and an experiment writes nothing before it has read its config: no
    trial runs, so no ``trial k skipped`` line is printed."""
    path = tmp_path / "config.json"
    if command == "experiment":
        path.write_text(json.dumps({**TINY_EXPERIMENT, **config}))
        outputs = ["--out-dir", str(tmp_path)]
    else:
        path.write_text(json.dumps(config))
        outputs = ["--out", str(tmp_path / "model.json")]
    assert main([command, "--config", str(path), *outputs]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}:")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_2(tmp_path, capsys, jobs):
    """--jobs below 1 is rejected before the config is read (this one does not
    exist, which would exit 3), with one named line and no output."""
    config = tmp_path / "missing.json"
    assert main(["experiment", "--config", str(config), "--out-dir", str(tmp_path), "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidInput:")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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

    def test_every_trial_skipped_exit_2(self, tmp_path, capsys):
        diffusion = {**json.loads(self.make_config(tmp_path).read_text())["diffusion"], "budget": 0.0}
        cfg = self.make_config(tmp_path, **TINY_EXPERIMENT, diffusion=diffusion)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "trial 0 skipped: InitialDiverged:" in err
        assert err.rstrip().endswith("too many skipped trials")
        assert (out_dir / "ratios.csv").read_text().splitlines() == [
            "trial,ratio,trace_deterministic,trace_stochastic,mean_energy"
        ]
        assert sorted(p.name for p in out_dir.iterdir()) == ["ratios.csv"]

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


def test_selftest_failure_exit_4(capsys, monkeypatch):
    def broken():
        raise AssertionError("injected")

    monkeypatch.setattr(cli.properties, "CHECKS", (("injected-failure", broken),))
    assert main(["selftest"]) == 4
    captured = capsys.readouterr()
    assert "FAIL injected-failure: injected" in captured.out
    assert "1 checks failed" in captured.err


def test_module_entry_point(scalar_model):
    # The subprocess does not inherit pytest's pythonpath, so point it at src.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "treesched", "optimize", str(scalar_model), "--budget", "1.0"],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "trace_L_inf 0.61803398" in proc.stdout
