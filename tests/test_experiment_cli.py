"""End-to-end command-line checks: configs, CSV schema, exit codes, plots."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fhc_ac import (
    build_gridworld,
    calibrate_threshold,
    constrained_reference,
    evaluate_deterministic,
    load_checkpoint,
    load_gridworld_config,
    make_cmdp,
    moving_average,
    random_gridworld,
    save_gridworld_config,
    save_model,
    save_policy,
    stationarity_diagnostics,
    tabular_policy,
)
from fhc_ac.experiment_cli import csv_header, main, worker_count

from helpers import random_cmdp

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# sha256 of the seed-0 CSV of `train --config configs/experiment_4x4.json
# --episodes 3000 --seeds 0`, taken before the policy became a dense table.
GOLDEN_4X4_SEED0_SHA256 = "910e63b8d4c88b2d685cc2d28a589688309a02b60dd4751455419a94852cf5c2"
# sha256 of the JSON of that run's final (H, S, A) policy table, taken before
# the critics became padded tables.
GOLDEN_4X4_SEED0_THETA_SHA256 = "a6a3354e7d140c8bd63149e5c8e5456e7c4ec9de59d1ae1eeefa4105c6573cd5"
# sha256 of the seed-0 CSV of the two-constraint run in
# test_train_matches_the_golden_two_constraint_run, taken before the critics
# became padded tables.
GOLDEN_M2_SEED0_SHA256 = "f517f9144888295549e7bacb87b0c960618db376b13cceaab98404b714dff9f3"
# sha256 of the JSON of that run's final (H, S, A) policy table, taken likewise.
GOLDEN_M2_SEED0_THETA_SHA256 = "ef1f4fc3b4c6a46c01054caf699543d56b440e234c93fb0401d2d14d537f65eb"
# sha256 of the aggregate CSV and the charts of `train --config
# configs/experiment_4x4.json --episodes 2000 --seeds 0,1`, taken while the
# charts were still rendered from arrays the seeds returned, not read back
# from their CSVs. returns.svg was re-taken when its J* line became the exact
# optimum 37.722164 (the multiplier grid's 37.722159 before): J* tops the
# chart's y-range, so two points of the return curves moved by 0.1 px.
GOLDEN_4X4_TWO_SEED_SHA256 = {
    "aggregate.csv": "43db9db778904a64180829d35b6206af21e7ec97c319fb4c708e3519a20ef4f9",
    "returns.svg": "c92ef8fd2d22d1979f322ede858117778f8e4e93cacdd82cae7a390292ce0473",
    "costs_1.svg": "f58dc1beef4da4c7276927cc54f883160a9a78713a3dee40002b47ba427db733",
    "multipliers_1.svg": "db8421728a9d3cf6a1391c58054eae7f340fc0ae151c6109579ec1aa548aeb14",
}


def tiny_gridworld_config(tmp_path):
    grid = calibrate_threshold(random_gridworld(2, 2, 2, seed=5, slip=0.1), 0.7)
    model_path = tmp_path / "model.json"
    save_gridworld_config(grid, model_path)
    return model_path


def write_experiment(tmp_path, **overrides):
    tiny_gridworld_config(tmp_path)
    doc = {
        "name": "tiny",
        "model": {"kind": "file", "path": "model.json"},
        "episodes": 300,
        "seeds": [0, 1],
        "window": 50,
        "plots": False,
    }
    doc.update(overrides)
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(doc))
    return config_path


def read_csv(path):
    with open(path) as f:
        header = f.readline().strip()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def test_train_writes_the_pinned_csv_schema(tmp_path):
    config = write_experiment(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 0

    csvs = sorted(out.glob("*-seed*.csv"))
    assert len(csvs) == 2
    header, data = read_csv(csvs[0])
    assert header == "episode,return,cost_1,lambda_1,ma_return,ma_cost_1"
    assert header == csv_header(1)
    assert data.shape == (300, 6)
    assert np.array_equal(data[:, 0], np.arange(1, 301))
    # the moving-average columns must be recomputable from the raw ones
    assert np.allclose(data[:, 4], moving_average(data[:, 1], 50), atol=1e-12)
    assert np.allclose(data[:, 5], moving_average(data[:, 2], 50), atol=1e-12)
    # multipliers stay inside the clamp interval
    assert data[:, 3].max() <= 0.0 and data[:, 3].min() >= -100.0

    agg_header, agg = read_csv(out / "aggregate.csv")
    assert agg_header == (
        "episode,ma_return_mean,ma_return_min,ma_return_max,"
        "ma_cost_1_mean,ma_cost_1_min,ma_cost_1_max"
    )
    _, seed_a = read_csv(csvs[0])
    _, seed_b = read_csv(csvs[1])
    assert np.allclose(agg[:, 1], (seed_a[:, 4] + seed_b[:, 4]) / 2, atol=1e-12)
    assert np.allclose(agg[:, 2], np.minimum(seed_a[:, 4], seed_b[:, 4]), atol=1e-12)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["name"] == "tiny"
    assert len(summary["seeds"]) == 2
    assert summary["reference"] is not None
    assert {s["seed"] for s in summary["seeds"]} == {0, 1}
    for entry in summary["seeds"]:
        assert "stationarity" in entry
        assert (out / f"{entry['run_id']}.checkpoint.json").exists()


def test_train_reruns_bit_identically(tmp_path):
    config = write_experiment(tmp_path, seeds=[0])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(config), "--out-dir", str(out_a)]) == 0
    assert main(["train", "--config", str(config), "--out-dir", str(out_b)]) == 0
    csv_a = next(out_a.glob("*-seed0.csv"))
    csv_b = next(out_b.glob("*-seed0.csv"))
    assert csv_a.name == csv_b.name  # same settings hash
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert (out_a / "aggregate.csv").read_bytes() == (out_b / "aggregate.csv").read_bytes()


def test_train_honors_episode_and_seed_overrides(tmp_path):
    config = write_experiment(tmp_path)
    out = tmp_path / "out"
    code = main(
        [
            "train", "--config", str(config), "--out-dir", str(out),
            "--episodes", "40", "--seeds", "7",
        ]
    )
    assert code == 0
    csvs = list(out.glob("*-seed*.csv"))
    assert len(csvs) == 1 and csvs[0].name.endswith("-seed7.csv")
    _, data = read_csv(csvs[0])
    assert data.shape[0] == 40


def test_train_rejects_malformed_configs(tmp_path):
    out = str(tmp_path / "out")
    bad = tmp_path / "bad.json"

    bad.write_text("{not json")
    assert main(["train", "--config", str(bad), "--out-dir", out]) == 2

    bad.write_text(json.dumps({"model": {"kind": "gridworld"}, "episodes": 5}))
    assert main(["train", "--config", str(bad), "--out-dir", out]) == 2  # no seeds

    config = write_experiment(tmp_path, typo_key=1)
    assert main(["train", "--config", str(config), "--out-dir", out]) == 2

    config = write_experiment(tmp_path, seeds=[1, 1])
    assert main(["train", "--config", str(config), "--out-dir", out]) == 2

    config = write_experiment(tmp_path, window=0)
    assert main(["train", "--config", str(config), "--out-dir", out]) == 2

    config = write_experiment(tmp_path, schedules={"critic_rate": 0.6})
    assert main(["train", "--config", str(config), "--out-dir", out]) == 2

    # JSON booleans are not integers, and out-of-range or mistyped numbers
    # exit 2 before any training starts
    for bad_values in (
        {"seeds": [True]}, {"episodes": True}, {"window": True},
        {"penalty_floor": 0}, {"penalty_floor": float("nan")}, {"temperature": 0},
        {"temperature": False}, {"temperature": 10**400}, {"param_bound": -1},
        {"param_bound": "12"},
        {"schedules": {"critic_scale": "x"}}, {"schedules": {"actor_scale": True}},
        # keys that are gone, and values that are not a JSON boolean or string
        {"sequential_critic": False}, {"multiplier_sign": "negative"},
        {"plots": "no"}, {"plots": 0}, {"name": 5},
    ):
        config = write_experiment(tmp_path, **bad_values)
        assert main(["train", "--config", str(config), "--out-dir", out]) == 2, bad_values
    assert not (tmp_path / "out").exists()

    assert main(["train", "--config", str(tmp_path / "missing.json"), "--out-dir", out]) == 2

    # model files that cannot be built exit 2 instead of raising
    save_model(random_cmdp(np.random.default_rng(0), 3, 2, 2, 1), tmp_path / "tables.json")
    tables = json.loads((tmp_path / "tables.json").read_text())
    del tables["horizon"]
    (tmp_path / "tables.json").write_text(json.dumps(tables))
    config = write_experiment(tmp_path, model={"kind": "file", "path": "tables.json"})
    assert main(["train", "--config", str(config), "--out-dir", out]) == 2
    (tmp_path / "rows.json").write_text(json.dumps({"rows": 2}))
    config = write_experiment(tmp_path, model={"kind": "file", "path": "rows.json"})
    assert main(["train", "--config", str(config), "--out-dir", out]) == 2
    assert not (tmp_path / "out").exists()


def test_train_overrides_face_the_config_checks(tmp_path):
    config = write_experiment(tmp_path)
    out = str(tmp_path / "out")
    for override in (["--episodes", "0"], ["--episodes", "-5"], ["--seeds", "-1"],
                     ["--seeds", "0,0"], ["--seeds", "0,x"], ["--progress-every", "-1"]):
        assert main(["train", "--config", str(config), "--out-dir", out] + override) == 2
    config = write_experiment(tmp_path, seeds=[-1])
    assert main(["train", "--config", str(config), "--out-dir", out]) == 2
    assert not (tmp_path / "out").exists()


def test_train_rejects_models_that_fail_validation(tmp_path):
    model = random_cmdp(np.random.default_rng(0), 3, 2, 2, 1)
    broken = make_cmdp(
        kernels=np.full_like(model.kernels, 0.3),
        rewards=model.rewards,
        terminal_reward=model.terminal_reward,
        initial_distribution=model.initial_distribution,
        constraint_costs=model.constraint_costs,
        terminal_constraint_costs=model.terminal_constraint_costs,
        thresholds=model.thresholds,
    )
    save_model(broken, tmp_path / "broken.json")
    config = write_experiment(tmp_path, model={"kind": "file", "path": "broken.json"})
    assert main(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def test_train_and_oracle_reject_non_finite_tables_with_validation_exit(tmp_path):
    model = random_cmdp(np.random.default_rng(0), 3, 2, 2, 1)
    kernels = model.kernels.copy()
    kernels[1, 0, 1, 0] = np.nan
    beta = model.initial_distribution.copy()
    beta[2] = np.nan
    for name, broken in [("kernels.json", dataclasses.replace(model, kernels=kernels)),
                         ("beta.json", dataclasses.replace(model, initial_distribution=beta))]:
        save_model(broken, tmp_path / name)
        config = write_experiment(tmp_path, model={"kind": "file", "path": name})
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 3, name
        assert not out.exists()
        assert main(["oracle", "solve", "--model", str(tmp_path / name)]) == 3, name


def test_train_rejects_invalid_schedules_with_validation_exit(tmp_path):
    config = write_experiment(tmp_path, schedules={"critic_exponent": 0.4})
    assert main(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def test_train_exits_2_when_the_output_directory_cannot_be_made(tmp_path):
    config = write_experiment(tmp_path)
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    for out in (a_file, a_file / "below"):
        assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 2, out


def test_worker_count_reads_the_thread_variable(monkeypatch):
    monkeypatch.delenv("FHC_AC_THREADS", raising=False)
    assert worker_count(5) == 1
    monkeypatch.setenv("FHC_AC_THREADS", "4")
    assert worker_count(5) == 4
    assert worker_count(2) == 2
    monkeypatch.setenv("FHC_AC_THREADS", "abc")
    with pytest.raises(Exception):
        worker_count(2)
    monkeypatch.setenv("FHC_AC_THREADS", "0")
    with pytest.raises(Exception):
        worker_count(2)


def test_parallel_seed_workers_match_sequential_output(tmp_path, monkeypatch):
    config = write_experiment(tmp_path, episodes=100)
    out_seq, out_par = tmp_path / "seq", tmp_path / "par"
    monkeypatch.delenv("FHC_AC_THREADS", raising=False)
    assert main(["train", "--config", str(config), "--out-dir", str(out_seq)]) == 0
    monkeypatch.setenv("FHC_AC_THREADS", "2")
    assert main(["train", "--config", str(config), "--out-dir", str(out_par)]) == 0
    for csv_seq in out_seq.glob("*-seed*.csv"):
        assert csv_seq.read_bytes() == (out_par / csv_seq.name).read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_summary_stationarity_equals_the_diagnostics_of_the_checkpoint(
    tmp_path, monkeypatch, threads
):
    # The block is computed on the trained state in memory; reloading the
    # checkpoint it was saved to must give the same numbers bit for bit.
    monkeypatch.setenv("FHC_AC_THREADS", threads)
    config = write_experiment(tmp_path, episodes=100)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    model = build_gridworld(load_gridworld_config(tmp_path / "model.json"))
    for record in summary["seeds"]:
        assert list(record)[-2:] == ["seconds", "stationarity"]
        state = load_checkpoint(record["checkpoint"])
        diag = stationarity_diagnostics(model, state.policy, state.multipliers)
        assert record["stationarity"] == {
            "max_projected_gradient_norm": diag.max_projected_gradient_norm,
            "max_multiplier_drift": diag.max_multiplier_drift,
            "theta_bound_active": diag.theta_bound_active,
            "expected_return": diag.expected_return,
            "constraint_totals": diag.constraint_totals.tolist(),
        }


def test_saved_files_are_the_bytes_of_json_dumps(tmp_path):
    # Checkpoints, policies, models and grid-world configs go through one
    # writer; its output must be what json.dump writes for the same document.
    def assert_json_dumps_bytes(path):
        assert path.read_bytes() == json.dumps(json.loads(path.read_text())).encode(), path

    grid_path = tiny_gridworld_config(tmp_path)
    assert_json_dumps_bytes(grid_path)
    for m in (0, 2):
        model = dataclasses.replace(
            random_cmdp(np.random.default_rng(2), 4, 3, 4, m),
            thresholds=np.array([3.5, 3.0][:m]),
        )
        model_path = tmp_path / f"m{m}.json"
        save_model(model, model_path)
        assert_json_dumps_bytes(model_path)
        config = write_experiment(
            tmp_path, model={"kind": "file", "path": model_path.name}, episodes=50, seeds=[0]
        )
        out = tmp_path / f"out{m}"
        assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 0
        checkpoint = next(out.glob("*-seed0.checkpoint.json"))
        assert_json_dumps_bytes(checkpoint)
        assert len(json.loads(checkpoint.read_text())["multipliers"]) == m
        policy_path = tmp_path / f"policy{m}.json"
        save_policy(load_checkpoint(checkpoint).policy, policy_path)
        assert_json_dumps_bytes(policy_path)


def test_parallel_seed_workers_report_progress(tmp_path, monkeypatch, capfd):
    config = write_experiment(tmp_path, episodes=100)
    monkeypatch.setenv("FHC_AC_THREADS", "2")
    argv = ["train", "--config", str(config), "--out-dir", str(tmp_path / "out"),
            "--progress-every", "50"]
    assert main(argv) == 0
    err = capfd.readouterr().err
    for seed in (0, 1):
        for done in (50, 100):
            assert f"seed {seed}: episode {done}/100" in err


def test_env_generate_writes_a_loadable_calibrated_world(tmp_path, capsys):
    out = tmp_path / "grid.json"
    code = main(
        [
            "env", "generate", "--rows", "3", "--cols", "3", "--horizon", "4",
            "--seed", "2", "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["rows"] == 3 and doc["horizon"] == 4
    assert doc["thresholds"][0] > 0.0
    assert "unconstrained" in capsys.readouterr().out

    assert main(["env", "generate", "--rows", "2", "--cols", "2", "--horizon", "2",
                 "--start", "9,9", "--out", str(out)]) == 2


def test_env_generate_validates_before_it_writes(tmp_path):
    out = tmp_path / "grid.json"
    small = ["env", "generate", "--rows", "2", "--cols", "2", "--horizon", "2"]
    assert main(small + ["--out", str(tmp_path / "missing" / "grid.json")]) == 2
    # a NaN threshold fails validation, and nothing is written
    assert main(small + ["--threshold-fraction", "nan", "--out", str(out)]) == 3
    assert not out.exists()
    # a cell value range that is not finite cannot be drawn from
    for bad in (["--reward-high", "nan"], ["--reward-low=-inf"], ["--cost-high", "inf"],
                ["--cost-low", "nan"]):
        assert main(small + bad + ["--out", str(out)]) == 2, bad
    assert not out.exists()


def test_env_benchmark_writes_the_fixed_world_deterministically(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["env", "benchmark", "--horizon", "6", "--out", str(out_a)]) == 0
    assert main(["env", "benchmark", "--horizon", "6", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    assert doc["rows"] == 4 and doc["horizon"] == 6
    assert doc["thresholds"][0] > 0.0
    assert "reference J*" in capsys.readouterr().out

    assert main(["env", "benchmark", "--rows", "3", "--out", str(out_a)]) == 2


def test_oracle_gradcheck_passes_on_a_valid_model(tmp_path, capsys):
    model = random_cmdp(np.random.default_rng(1), 3, 2, 2, 1)
    path = tmp_path / "model.json"
    save_model(model, path)
    code = main(
        ["oracle", "gradcheck", "--model", str(path), "--instances", "3", "--seed", "4"]
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_gradcheck_rejects_arguments_that_check_nothing(tmp_path, capsys):
    path = tmp_path / "model.json"
    save_model(random_cmdp(np.random.default_rng(1), 3, 2, 2, 1), path)
    for bad in (["--instances", "0"], ["--instances", "-3"], ["--tolerance", "nan"],
                ["--tolerance", "inf"], ["--tolerance", "0"], ["--tolerance=-1e-5"],
                ["--seed", "-1"]):
        assert main(["oracle", "gradcheck", "--model", str(path)] + bad) == 2, bad
    assert "PASS" not in capsys.readouterr().out


def test_oracle_commands_reject_invalid_models(tmp_path):
    model = random_cmdp(np.random.default_rng(2), 3, 2, 2, 1)
    broken = make_cmdp(
        kernels=np.full_like(model.kernels, 0.2),
        rewards=model.rewards,
        terminal_reward=model.terminal_reward,
        initial_distribution=model.initial_distribution,
        constraint_costs=model.constraint_costs,
        terminal_constraint_costs=model.terminal_constraint_costs,
        thresholds=model.thresholds,
    )
    path = tmp_path / "broken.json"
    save_model(broken, path)
    assert main(["oracle", "gradcheck", "--model", str(path)]) == 3
    assert main(["oracle", "solve", "--model", str(tmp_path / "nope.json")]) == 2
    rows_only = tmp_path / "rows.json"
    rows_only.write_text(json.dumps({"rows": 2}))
    assert main(["oracle", "solve", "--model", str(rows_only)]) == 2


def test_oracle_solve_reports_the_reference_point(tmp_path, capsys):
    model_path = tiny_gridworld_config(tmp_path)
    assert main(["oracle", "solve", "--model", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "unconstrained" in out
    assert "best feasible" in out
    assert "weights" in out


def test_oracle_solve_prints_the_best_points_own_costs_and_rejects_bad_grids(
    tmp_path, capsys
):
    model = dataclasses.replace(
        random_cmdp(np.random.default_rng(2), 4, 3, 4, 2), thresholds=np.array([3.6, 3.42])
    )
    path = tmp_path / "m2.json"
    save_model(model, path)
    assert main(["oracle", "solve", "--model", str(path)]) == 0
    ref = constrained_reference(model)
    assert ref.feasible
    # the printed costs are the mixture's own: its policies, weighted
    totals = sum(w * evaluate_deterministic(model, actions)[1]
                 for w, actions in zip(ref.weights, ref.policies))
    assert totals == pytest.approx(ref.best_costs, abs=1e-12)
    lines = capsys.readouterr().out.splitlines()
    line = next(ln for ln in lines if ln.startswith("best feasible greedy policy:"))
    assert line.endswith(f"costs={np.array2string(ref.best_costs, precision=4)}")
    weights = lines[lines.index(line) + 1]
    assert weights.endswith(f"weights {np.array2string(ref.weights, precision=6)}")

    for bad in (["--floor", "1"], ["--floor", "0"], ["--floor", "nan"]):
        assert main(["oracle", "solve", "--model", str(path)] + bad) == 2, bad
    # the multiplier grid is gone, and argparse rejects its option
    for bad in (["--points", "21"], ["--points", "0"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["oracle", "solve", "--model", str(path)] + bad)
        assert exit_info.value.code == 2, bad


def test_oracle_solve_and_train_leave_scipy_unimported(tmp_path):
    # Importing scipy.optimize costs a fresh process most of a second and about
    # 40 MB, more than a whole solve; the package runs on numpy alone.
    config = write_experiment(tmp_path, episodes=20, seeds=[0])
    script = (
        "import sys\n"
        "from fhc_ac.experiment_cli import main\n"
        "code = main(sys.argv[1:])\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        "sys.exit(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src")}
    for argv in (["oracle", "solve", "--model", str(CONFIGS / "gridworld_4x4.json")],
                 ["train", "--config", str(config), "--out-dir", str(tmp_path / "out")]):
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, (argv, done.stderr)


def test_one_worker_train_leaves_multiprocessing_unimported(tmp_path):
    # The process pool's modules cost a fresh process about 20 ms; a run
    # with one worker trains its seeds in turn and never needs them.
    config = write_experiment(tmp_path, episodes=20)
    script = (
        "import sys\n"
        "from fhc_ac.experiment_cli import main\n"
        "code = main(sys.argv[1:])\n"
        "for name in ('multiprocessing', 'concurrent.futures'):\n"
        "    assert name not in sys.modules, name + ' was imported'\n"
        "sys.exit(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src"), "FHC_AC_THREADS": "1"}
    argv = ["train", "--config", str(config), "--out-dir", str(tmp_path / "out")]
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_oracle_evaluate_and_fixedpoint_run_on_saved_policies(tmp_path, capsys):
    model_path = tiny_gridworld_config(tmp_path)
    model = build_gridworld(
        calibrate_threshold(random_gridworld(2, 2, 2, seed=5, slip=0.1), 0.7)
    )
    policy = tabular_policy(model)
    policy_path = tmp_path / "policy.json"
    save_policy(policy, policy_path)

    code = main(["oracle", "evaluate", "--model", str(model_path),
                 "--policy", str(policy_path), "--multipliers=-1.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "expected return" in out and "penalized value" in out

    code = main(["oracle", "fixedpoint", "--model", str(model_path),
                 "--policy", str(policy_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "max |projected - exact|" in out

    for bad in ("-1,-2", "nan", "inf", "-inf"):
        for command in ("evaluate", "fixedpoint"):
            assert main(["oracle", command, "--model", str(model_path),
                         "--policy", str(policy_path), f"--multipliers={bad}"]) == 2, bad
    assert "penalized value" not in capsys.readouterr().out

    # a policy file in the old ragged per-stage layout is refused with exit 2
    old_layout = tmp_path / "old.json"
    old_layout.write_text(json.dumps({
        "feature_spec": "tabular", "temperature": 1.0, "param_bound": 10.0,
        "reachable_sets": [[0], [0, 1]], "stage_params": [[0.0, 0.0], [0.0] * 4],
    }))
    assert main(["oracle", "evaluate", "--model", str(model_path),
                 "--policy", str(old_layout)]) == 2

    # a non-finite temperature, bound or table entry is refused with exit 2
    good = json.loads(policy_path.read_text())
    nan_entry = json.loads(policy_path.read_text())
    nan_entry["stage_params"][0][1][0] = float("nan")
    for doc in (nan_entry, {**good, "temperature": float("nan")},
                {**good, "param_bound": float("nan")}, {**good, "param_bound": float("inf")}):
        bad_path = tmp_path / "non_finite.json"
        bad_path.write_text(json.dumps(doc))
        for command in ("evaluate", "fixedpoint"):
            assert main(["oracle", command, "--model", str(model_path),
                         "--policy", str(bad_path)]) == 2, (command, doc)
    assert "expected return" not in capsys.readouterr().out


def test_oracle_evaluate_and_fixedpoint_accept_train_checkpoints(tmp_path, capsys):
    config = write_experiment(tmp_path, seeds=[3], episodes=60)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    seed = summary["seeds"][0]
    capsys.readouterr()

    model_path = str(tmp_path / "model.json")
    assert main(["oracle", "evaluate", "--model", model_path,
                 "--policy", seed["checkpoint"]]) == 0
    want = seed["stationarity"]["expected_return"]
    assert f"expected return: {want:.6f}" in capsys.readouterr().out

    assert main(["oracle", "fixedpoint", "--model", model_path,
                 "--policy", seed["checkpoint"]]) == 0
    assert "max |projected - exact|" in capsys.readouterr().out


def final_theta_sha256(out):
    """Hash of the seed-0 run's final policy table. A last-bit change in the
    critics or the actor rarely changes a sampled action, so the CSV alone
    would miss it; the table does not."""
    doc = json.loads(next(out.glob("*-seed0.checkpoint.json")).read_text())
    return hashlib.sha256(json.dumps(doc["policy"]["stage_params"]).encode()).hexdigest()


def test_train_matches_the_golden_4x4_csv(tmp_path):
    out = tmp_path / "out"
    argv = ["train", "--config", str(CONFIGS / "experiment_4x4.json"), "--out-dir", str(out),
            "--episodes", "3000", "--seeds", "0", "--no-plots"]
    assert main(argv) == 0
    csv = next(out.glob("*-seed0.csv"))
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == GOLDEN_4X4_SEED0_SHA256
    assert final_theta_sha256(out) == GOLDEN_4X4_SEED0_THETA_SHA256


def test_train_matches_the_golden_two_constraint_run(tmp_path):
    # Both multipliers move, so the run pins how the penalized costs
    # r + lam_1 g_1 + lam_2 g_2 are formed: the CSV through the sampled
    # actions and the multipliers, the final policy table to the last bit.
    model = dataclasses.replace(
        random_cmdp(np.random.default_rng(2), 4, 3, 4, 2), thresholds=np.array([3.5, 3.0])
    )
    save_model(model, tmp_path / "m2.json")
    config = write_experiment(
        tmp_path, model={"kind": "file", "path": "m2.json"}, episodes=2000, seeds=[0],
        window=200,
    )
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 0
    csv = next(out.glob("*-seed0.csv"))
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == GOLDEN_M2_SEED0_SHA256
    assert final_theta_sha256(out) == GOLDEN_M2_SEED0_THETA_SHA256


def test_plot_rerenders_charts_from_the_run_directory(tmp_path):
    out = tmp_path / "out"
    argv = ["train", "--config", str(CONFIGS / "experiment_4x4.json"), "--out-dir", str(out),
            "--episodes", "2000", "--seeds", "0,1"]
    assert main(argv) == 0
    written = {}
    for name, digest in GOLDEN_4X4_TWO_SEED_SHA256.items():
        written[name] = (out / name).read_bytes()
        assert hashlib.sha256(written[name]).hexdigest() == digest, name
    charts = [name for name in written if name.endswith(".svg")]
    for name in charts:
        (out / name).unlink()
    assert main(["plot", "--run-dir", str(out)]) == 0
    for name in charts:
        assert (out / name).read_bytes() == written[name], name
    assert main(["plot", "--run-dir", str(tmp_path / "nowhere")]) == 2


def test_train_and_plot_chart_an_unconstrained_run(tmp_path):
    save_model(random_cmdp(np.random.default_rng(0), 3, 2, 2, 0), tmp_path / "m0.json")
    config = write_experiment(tmp_path, model={"kind": "file", "path": "m0.json"}, plots=True)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.svg")) == ["returns.svg"]
    written = (out / "returns.svg").read_bytes()
    assert main(["plot", "--run-dir", str(out)]) == 0
    assert (out / "returns.svg").read_bytes() == written


def test_plot_rejects_malformed_summaries(tmp_path):
    config = write_experiment(tmp_path, seeds=[0], episodes=50)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 0
    summary_path = out / "summary.json"
    good = json.loads(summary_path.read_text())
    csv_path = Path(good["seeds"][0]["csv"])
    short = csv_path.with_name("short.csv")
    short.write_text("\n".join(csv_path.read_text().splitlines()[:11]) + "\n")
    broken = [
        {"seeds": []},
        [good],
        {**good, "seeds": []},
        {**good, "num_constraints": "1"},
        {**good, "thresholds": []},
        {**good, "thresholds": ["a"]},
        {**good, "window": None},
        {**good, "window": True},
        {**good, "thresholds": [True]},
        {**good, "seeds": [{**good["seeds"][0], "seed": False}]},
        {**good, "seeds": [{"seed": 0}]},
        {**good, "reference": {"feasible": True}},
        {**good, "num_constraints": 2, "thresholds": [1.0, 2.0]},  # CSV has one cost column
        {**good, "seeds": good["seeds"] + [{"seed": 1, "csv": str(short)}]},  # 50 and 10 rows
    ]
    for doc in broken:
        summary_path.write_text(json.dumps(doc))
        assert main(["plot", "--run-dir", str(out)]) == 2, doc
    summary_path.write_text(json.dumps(good))
    csv_path.write_text(csv_path.read_text().splitlines()[0] + "\n")  # header only
    with pytest.warns(UserWarning, match="no data"):
        assert main(["plot", "--run-dir", str(out)]) == 2
