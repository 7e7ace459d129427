"""End-to-end command-line checks: configs, CSV schema, exit codes, plots."""

import dataclasses
import hashlib
import json
import os
import re
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
    load_model,
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
# The digests of runs with constraints were all re-taken when the constraint
# critics moved from the global step clock to per-state visit clocks, which
# changes every M >= 1 trajectory; with the global step put back, the same
# code reproduces the earlier digests byte for byte.
#
# sha256 of the seed-0 CSV of `train --config configs/experiment_4x4.json
# --episodes 3000 --seeds 0`.
GOLDEN_4X4_SEED0_SHA256 = "e22fd993bc4278beb9572436ba332f7b1faa7203a744608efb1fa0270bcfb0a7"
# sha256 of the JSON of that run's final (H, S, A) policy table.
GOLDEN_4X4_SEED0_THETA_SHA256 = "fa030cb1e1578e173003596b333b14ea494a5b61103f7f59e4e90d0a89ea42cb"
# sha256 of the seed-0 CSV of the two-constraint run in
# test_train_matches_the_golden_two_constraint_run.
GOLDEN_M2_SEED0_SHA256 = "7cdc704dace19fc64c02a8565d038ce07f7feed28ce2a840be006eed171bcb34"
# sha256 of the JSON of that run's final (H, S, A) policy table. Re-taken once
# when `train` moved from BLAS products to `dp_oracle.penalize` for
# r + lam . g: the earlier value held only under OpenBLAS's SkylakeX kernel.
GOLDEN_M2_SEED0_THETA_SHA256 = "61698a9902405e1c5134fbaa9c34150f4e2760754d8163ae66c57e0ca288a935"
# sha256 of the aggregate CSV and the charts of `train --config
# configs/experiment_4x4.json --episodes 2000 --seeds 0,1`.
GOLDEN_4X4_TWO_SEED_SHA256 = {
    "aggregate.csv": "052819ca006f28535e4b32f68d9743e666a080a0f37962344717cfd22eba6785",
    "returns.svg": "f79e52edd169ec253a4b9549dce6b6f1052b138f41872a6e5722d0cff0d4ccd7",
    "costs_1.svg": "5c91d14f3590f66677edcf33ae19d70043f664d465c5463603cf4ca6325099c2",
    "multipliers_1.svg": "29c0b9ea76ef3b7c9251f706c6607dbe85033a3e475ef04debb2e95842245062",
}


def tiny_gridworld_config(tmp_path):
    grid = calibrate_threshold(random_gridworld(2, 2, 2, seed=5), 0.7)
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
    # The overrides also supply the required keys a config leaves out.
    doc = json.loads(config.read_text())
    del doc["episodes"], doc["seeds"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    for path in (config, bare):
        out = tmp_path / f"out-{path.stem}"
        code = main(
            [
                "train", "--config", str(path), "--out-dir", str(out),
                "--episodes", "40", "--seeds", "7",
            ]
        )
        assert code == 0, path.name
        csvs = list(out.glob("*-seed*.csv"))
        assert len(csvs) == 1 and csvs[0].name.endswith("-seed7.csv")
        _, data = read_csv(csvs[0])
        assert data.shape[0] == 40


def with_first_entry(table, value):
    """A copy of the nested list `table` whose first number is `value`."""
    if not isinstance(table, list):
        return value
    return [with_first_entry(table[0], value)] + table[1:]


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
    # Counts, start coordinates and slips of another JSON type, and negative
    # counts, are refused rather than parsed, truncated or inferred by a reshape.
    # Tables holding a string, boolean or null are refused too, where a float
    # conversion would parse "0.5" or read true as 1.0.
    demo = json.loads((CONFIGS / "demo_model.json").read_text())
    grid = json.loads((CONFIGS / "gridworld_4x4.json").read_text())
    for base, key, value in [
        (demo, "horizon", -1), (demo, "num_actions", -1), (demo, "num_constraints", -1),
        (demo, "horizon", "3"), (demo, "horizon", 3.9),
        (grid, "rows", "4"), (grid, "rows", 4.9), (grid, "horizon", "10"),
        (grid, "slip", "0.1"), (grid, "start", [0.7, 0]),
        (grid, "thresholds", [str(x) for x in grid["thresholds"]]),
        (grid, "stage_rewards", with_first_entry(grid["stage_rewards"], True)),
        (grid, "stage_costs", with_first_entry(grid["stage_costs"], None)),
        (demo, "kernels", with_first_entry(demo["kernels"], True)),
        (demo, "rewards", with_first_entry(demo["rewards"], "0.5")),
        (demo, "constraint_costs", with_first_entry(demo["constraint_costs"], None)),
        (demo, "terminal_reward", with_first_entry(demo["terminal_reward"], False)),
        (demo, "terminal_constraint_costs", [["0", "0", "0"]]),
        (demo, "thresholds", [True]),
        (demo, "initial_distribution", with_first_entry(demo["initial_distribution"], "1")),
    ]:
        mistyped = tmp_path / "mistyped.json"
        mistyped.write_text(json.dumps({**base, key: value}))
        config = write_experiment(tmp_path, model={"kind": "file", "path": "mistyped.json"})
        assert main(["train", "--config", str(config), "--out-dir", out]) == 2, (key, value)
        assert main(["oracle", "solve", "--model", str(mistyped)]) == 2, (key, value)
    assert not (tmp_path / "out").exists()


def test_train_overrides_face_the_config_checks(tmp_path, monkeypatch):
    config = write_experiment(tmp_path)
    out = str(tmp_path / "out")
    for override in (["--episodes", "0"], ["--episodes", "-5"], ["--seeds", "-1"],
                     ["--seeds", "0,0"], ["--seeds", "0,x"], ["--progress-every", "-1"]):
        assert main(["train", "--config", str(config), "--out-dir", out] + override) == 2
    for threads in ("0", "abc"):
        monkeypatch.setenv("FHC_AC_THREADS", threads)
        assert main(["train", "--config", str(config), "--out-dir", out]) == 2, threads
    monkeypatch.delenv("FHC_AC_THREADS")
    config = write_experiment(tmp_path, seeds=[-1])
    assert main(["train", "--config", str(config), "--out-dir", out]) == 2
    assert not (tmp_path / "out").exists()


def test_train_rejects_models_that_fail_validation(tmp_path):
    model = random_cmdp(np.random.default_rng(0), 3, 2, 2, 1)
    broken = make_cmdp(
        kernels=np.full_like(model.kernels, 0.3),
        costs=model.costs,
        terminal_costs=model.terminal_costs,
        thresholds=model.thresholds,
        initial_distribution=model.initial_distribution,
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


@pytest.mark.parametrize("seeds", [[0], [0, 1]])
def test_train_stops_at_the_first_chunk_check_when_training_diverges(tmp_path, capsys, seeds):
    # A critic scale of 1e300 overflows the critic tables within the first few
    # episodes. `train` checks for non-finite values once per 1,024-episode
    # chunk, so the seeds stop at the first check, long before their 5,000
    # episodes, exit 4 naming the first seed and the episode, and no seed of
    # the lock-step batch writes a CSV or a checkpoint.
    config = write_experiment(
        tmp_path, episodes=5000, seeds=seeds, schedules={"critic_scale": 1e300}
    )
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--config", str(config), "--out-dir", str(out)])
    assert code == 4
    match = re.search(r"seed 0: .*non-finite by episode (\d+)", capsys.readouterr().err)
    assert match and 1 <= int(match.group(1)) <= 1024
    assert not list(out.glob("*.csv"))
    assert not list(out.glob("*.checkpoint.json"))


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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_parallel_seed_workers_report_progress(tmp_path, monkeypatch, capfd, threads):
    # One worker trains both seeds in one lock-step batch, two workers one
    # seed each; either way every seed reports its own progress.
    config = write_experiment(tmp_path, episodes=100)
    monkeypatch.setenv("FHC_AC_THREADS", threads)
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


def test_env_generate_validates_before_it_writes(tmp_path):
    out = tmp_path / "grid.json"
    small = ["env", "generate", "--rows", "2", "--cols", "2", "--horizon", "2"]
    assert main(small + ["--out", str(tmp_path / "missing" / "grid.json")]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--rows", "1", "--cols", "2"], "a 1x2 grid has 2 cells; each stage places 3 cost cells"),
        (["--horizon", "-1"], "horizon must be at least 1, got -1"),
        (["--rows", "-2", "--cols", "-2"], "rows and cols must be at least 1, got rows=-2 cols=-2"),
        (["--horizon", "0"], "horizon must be at least 1, got 0"),
    ],
)
def test_env_generate_refuses_a_world_it_cannot_build(tmp_path, capsys, flags, message):
    out = tmp_path / "grid.json"
    assert main(["env", "generate", *flags, "--out", str(out)]) == 2
    assert f"cannot generate grid world: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_env_benchmark_writes_the_fixed_world_deterministically(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["env", "benchmark", "--out", str(out_a)]) == 0
    assert main(["env", "benchmark", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    assert doc["rows"] == 4 and doc["horizon"] == 10
    assert doc["thresholds"][0] > 0.0
    assert "reference J*" in capsys.readouterr().out


def test_fixed_generator_and_gradcheck_constants_are_not_flags(tmp_path, capsys):
    out = str(tmp_path / "grid.json")
    for argv in (
        ["env", "generate", "--slip", "0.2", "--out", out],
        ["env", "generate", "--start", "1,1", "--out", out],
        ["env", "generate", "--reward-cells", "3", "--out", out],
        ["env", "generate", "--cost-high", "6", "--out", out],
        ["env", "generate", "--threshold-fraction", "0.5", "--out", out],
        ["env", "benchmark", "--horizon", "6", "--out", out],
        ["env", "benchmark", "--threshold-fraction", "0.5", "--out", out],
        ["oracle", "gradcheck", "--model", str(CONFIGS / "gridworld_4x4.json"),
         "--tolerance", "1e-3"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
    assert not (tmp_path / "grid.json").exists()
    assert "PASS" not in capsys.readouterr().out


def test_oracle_gradcheck_passes_on_a_valid_model(tmp_path, capsys):
    model = random_cmdp(np.random.default_rng(1), 3, 2, 2, 1)
    path = tmp_path / "model.json"
    save_model(model, path)
    code = main(
        ["oracle", "gradcheck", "--model", str(path), "--instances", "3", "--seed", "4"]
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_gradcheck_passes_on_the_h100_gridworld(capsys):
    argv = ["oracle", "gradcheck", "--model", str(CONFIGS / "gridworld_5x5_h100.json"),
            "--instances", "1"]
    assert main(argv) == 0
    assert "PASS" in capsys.readouterr().out


def test_the_shipped_dense_table_model_round_trips_and_passes_gradcheck(tmp_path, capsys):
    # configs/demo_model.json is the one shipped model stored as dense tables,
    # the file the README's gradcheck, evaluate and fixedpoint examples read.
    path = CONFIGS / "demo_model.json"
    save_model(load_model(path), tmp_path / "demo_model.json")
    assert (tmp_path / "demo_model.json").read_bytes() == path.read_bytes()
    assert main(["oracle", "gradcheck", "--model", str(path), "--instances", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_gradcheck_rejects_arguments_that_check_nothing(tmp_path, capsys):
    path = tmp_path / "model.json"
    save_model(random_cmdp(np.random.default_rng(1), 3, 2, 2, 1), path)
    for bad in (["--instances", "0"], ["--instances", "-3"], ["--seed", "-1"]):
        assert main(["oracle", "gradcheck", "--model", str(path)] + bad) == 2, bad
    assert "PASS" not in capsys.readouterr().out


def test_oracle_commands_reject_invalid_models(tmp_path):
    model = random_cmdp(np.random.default_rng(2), 3, 2, 2, 1)
    broken = make_cmdp(
        kernels=np.full_like(model.kernels, 0.2),
        costs=model.costs,
        terminal_costs=model.terminal_costs,
        thresholds=model.thresholds,
        initial_distribution=model.initial_distribution,
    )
    path = tmp_path / "broken.json"
    save_model(broken, path)
    assert main(["oracle", "gradcheck", "--model", str(path)]) == 3
    assert main(["oracle", "solve", "--model", str(tmp_path / "nope.json")]) == 2
    rows_only = tmp_path / "rows.json"
    rows_only.write_text(json.dumps({"rows": 2}))
    assert main(["oracle", "solve", "--model", str(rows_only)]) == 2


def test_train_and_oracle_refuse_a_gridworld_with_no_decision_stage(tmp_path, capsys):
    doc = json.loads((CONFIGS / "gridworld_4x4.json").read_text())
    doc["horizon"] = 0
    doc["stage_rewards"] = doc["stage_rewards"][:1]
    doc["stage_costs"] = [rows[:1] for rows in doc["stage_costs"]]
    (tmp_path / "flat.json").write_text(json.dumps(doc))
    assert main(["oracle", "solve", "--model", str(tmp_path / "flat.json")]) == 2
    assert "horizon must be at least 1, got 0" in capsys.readouterr().err
    config = write_experiment(tmp_path, model={"kind": "file", "path": "flat.json"})
    assert main(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    assert "horizon must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
        calibrate_threshold(random_gridworld(2, 2, 2, seed=5), 0.7)
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

    # a non-finite temperature, bound or table entry, or a string, boolean
    # or null in their place, is refused with exit 2
    good = json.loads(policy_path.read_text())
    nan_entry = json.loads(policy_path.read_text())
    nan_entry["stage_params"][0][1][0] = float("nan")
    for doc in (nan_entry, {**good, "temperature": float("nan")},
                {**good, "param_bound": float("nan")}, {**good, "param_bound": float("inf")},
                {**good, "temperature": "0.5"}, {**good, "temperature": True},
                {**good, "param_bound": "10"}, {**good, "param_bound": None},
                *({**good, "stage_params": with_first_entry(good["stage_params"], value)}
                  for value in ("0.5", True, None))):
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
    # The same run in fresh processes under other OpenBLAS kernels must give
    # the same bits, since training forms no BLAS product. numpy reads
    # OPENBLAS_CORETYPE when it loads; a BLAS built without DYNAMIC_ARCH
    # ignores it, and then the subprocess runs repeat the default kernel.
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
    runs = [out]
    for coretype in ("Prescott", "Haswell"):
        runs.append(tmp_path / coretype)
        env = {**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src"),
               "OPENBLAS_CORETYPE": coretype}
        argv = ["train", "--config", str(config), "--out-dir", str(runs[-1])]
        done = subprocess.run(
            [sys.executable, "-m", "fhc_ac", *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, (coretype, done.stderr)
    for run in runs:
        csv = next(run.glob("*-seed0.csv"))
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == GOLDEN_M2_SEED0_SHA256, run.name
        assert final_theta_sha256(run) == GOLDEN_M2_SEED0_THETA_SHA256, run.name


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


def test_plot_finds_the_csvs_of_a_moved_run_directory(tmp_path):
    save_model(random_cmdp(np.random.default_rng(0), 3, 2, 2, 0), tmp_path / "m0.json")
    config = write_experiment(tmp_path, model={"kind": "file", "path": "m0.json"}, plots=True)
    before, after = tmp_path.resolve() / "runA", tmp_path.resolve() / "runB"
    assert main(["train", "--config", str(config), "--out-dir", str(before)]) == 0
    assert str(before) in json.loads((before / "summary.json").read_text())["seeds"][0]["csv"]
    written = (before / "returns.svg").read_bytes()
    before.rename(after)
    (after / "returns.svg").unlink()
    assert main(["plot", "--run-dir", str(after)]) == 0
    assert (after / "returns.svg").read_bytes() == written


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
