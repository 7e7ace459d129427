"""Ten numbered end-to-end acceptance checks, one test (and one report line) each.

Criteria 1-5 verify the exact oracle and critic machinery at tight numeric
tolerances; 6-8 verify that the full three-timescale training loop reaches
the right answers on pinned benchmark instances; 9-10 verify the schedule
validator and bit-exact reproducibility of the command-line pipeline.
Criteria 4, 6, 7 and 8 are long runs by nature and carry the `slow` marker;
`pytest -m "not slow"` deselects them during development.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from fhc_ac import (
    StepSizeSchedules,
    TrainerConfig,
    evaluate_deterministic,
    evaluate_policy,
    exact_gradient,
    finite_difference_gradient,
    fixed_points,
    make_cmdp,
    moving_average,
    occupation_measures,
    reachable_sets,
    rollout,
    train,
    update_penalized_critic,
    check_schedules,
)
from fhc_ac.experiment_cli import (
    experiment_settings,
    main,
    read_object,
    run_experiment,
)

from helpers import (
    assert_exact_critic_limit,
    brute_occupation,
    gradient_without_baseline,
    random_cmdp,
    random_policy,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def gradient_stack(parts):
    return np.concatenate([np.asarray(p).ravel() for p in parts])


def test_criterion_1_exact_gradient_matches_finite_differences_on_20_instances():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    for i in range(20):
        model = random_cmdp(
            rng,
            num_states=int(rng.integers(2, 5)),
            num_actions=int(rng.integers(2, 4)),
            horizon=int(rng.integers(2, 5)),
            num_constraints=int(rng.integers(0, 3)),
        )
        policy = random_policy(model, rng)
        lam = -rng.uniform(0.0, 3.0, size=model.num_constraints)
        exact = gradient_stack(exact_gradient(model, policy, lam))
        approx = gradient_stack(finite_difference_gradient(model, policy, lam))
        rel = np.linalg.norm(exact - approx) / max(np.linalg.norm(exact), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    assert worst < 1e-5, f"worst relative gradient error {worst:.3e}"
    assert elapsed < 10.0, f"gradient checks took {elapsed:.1f}s (budget 10s)"


def test_criterion_2_baseline_subtraction_leaves_the_exact_gradient_unchanged():
    rng = np.random.default_rng(99)
    for _ in range(5):
        model = random_cmdp(rng, 4, 2, 3, 1)
        policy = random_policy(model, rng)
        lam = np.array([-1.0])
        with_baseline = gradient_stack(exact_gradient(model, policy, lam))
        without = gradient_stack(gradient_without_baseline(model, policy, lam))
        assert np.abs(with_baseline - without).max() < 1e-10


def test_criterion_3_critic_fixed_points_match_exact_values_and_projections():
    # With one table entry per reachable state the projection is the
    # identity: the critics' limit equals the exact values there and is 0 on
    # every state a stage cannot reach.
    rng = np.random.default_rng(7)
    for _ in range(3):
        model = random_cmdp(rng, 4, 2, 3, 1)
        policy = random_policy(model, rng)
        lam = np.array([-0.8])
        assert_exact_critic_limit(model, policy, lam, fixed_points(model, policy, lam))


@pytest.mark.slow
def test_criterion_4_td_critic_converges_to_its_fixed_point_within_budget():
    rng = np.random.default_rng(123)
    model = random_cmdp(rng, 3, 2, 3, 1)
    policy = random_policy(model, rng)
    lam = np.array([-0.5])
    limit = fixed_points(model, policy, lam)
    assert_exact_critic_limit(model, policy, lam, limit)
    target = limit[0]

    episodes, burn = 200_000, 50_000
    schedules = StepSizeSchedules()
    critic = np.zeros((1 + model.num_constraints, model.horizon + 1, model.num_states))
    sums = np.zeros_like(critic[0])
    table = policy.distribution_table()
    running = np.cumsum(table, axis=-1)
    ep_rng = np.random.default_rng(7)
    started = time.perf_counter()
    for n in range(episodes):
        episode = rollout(model, table, running, ep_rng)
        update_penalized_critic(model, critic, episode, lam, schedules.critic_step(n))
        if n >= burn:
            sums += critic[0]
    elapsed = time.perf_counter() - started
    worst = max(
        float(np.abs(sums[h, r] / (episodes - burn) - target[h, r]).max())
        for h, r in enumerate(reachable_sets(model))
    )
    assert worst < 1e-2, f"tail-averaged weight error {worst:.3e}"
    assert elapsed < 60.0, f"TD run took {elapsed:.1f}s (budget 60s)"


def test_criterion_5_occupation_measures_match_trajectory_enumeration():
    rng = np.random.default_rng(11)
    for horizon in (2, 3, 4):
        model = random_cmdp(rng, 4, 2, horizon, 1)
        policy = random_policy(model, rng)
        expected = brute_occupation(model, policy)
        actual = occupation_measures(model, policy)
        assert np.abs(actual - expected).max() < 1e-12


def chase_model():
    """Two states, two actions, H=2: action a reaches state a w.p. 0.9,
    landing in state 1 pays 2, terminal pays [0, 1]. Optimal value 4.5."""
    S, A, H = 2, 2, 2
    kernel = np.zeros((S, A, S))
    for s in range(S):
        for a in range(A):
            kernel[s, a, a] = 0.9
            kernel[s, a, 1 - a] = 0.1
    rewards = np.zeros((H, S, A, S))
    rewards[:, :, :, 1] = 2.0
    return make_cmdp(
        kernels=np.broadcast_to(kernel, (H, S, A, S)).copy(),
        costs=rewards[None],
        terminal_costs=np.array([[0.0, 1.0]]),
        thresholds=np.zeros(0),
        initial_distribution=np.array([1.0, 0.0]),
    )


@pytest.mark.slow
def test_criterion_6_training_reaches_the_unconstrained_optimum_on_5_seeds():
    model = chase_model()
    best = max(
        evaluate_deterministic(model, np.array(f).reshape(model.horizon, 2))[0]
        for f in itertools.product(range(2), repeat=model.horizon * 2)
    )
    assert best == pytest.approx(4.5)
    gaps = []
    for seed in range(5):
        config = TrainerConfig(
            episodes=100_000,
            seed=seed,
            schedules=StepSizeSchedules(actor_scale=6.0),
        )
        state, _ = train(model, config)
        j, _ = evaluate_policy(model, state.policy)
        gaps.append(best - j)
    assert max(gaps) < 1e-2, f"exact return gaps {[f'{g:.2e}' for g in gaps]}"


@pytest.fixture(scope="module")
def benchmark_run(tmp_path_factory):
    """One five-seed grid-world experiment through the CLI pipeline,
    shared by criteria 7 and 8.

    The seeds run in two worker processes; per-seed results equal those of
    running them in turn (test_parallel_seed_workers_match_sequential_output),
    and criterion 10 covers the in-process path.
    """
    config_path = CONFIGS / "experiment_4x4.json"
    doc = read_object(config_path, "experiment config")
    settings = experiment_settings(doc, config_path.parent)
    out_dir = tmp_path_factory.mktemp("benchmark")
    with pytest.MonkeyPatch.context() as env:
        env.setenv("FHC_AC_THREADS", "2")
        summary = run_experiment(settings, out_dir)
    return summary


@pytest.mark.slow
def test_criterion_7_constrained_training_meets_cost_and_return_targets(benchmark_run):
    summary = benchmark_run
    reference = summary["reference"]
    assert reference["feasible"]
    jstar = reference["best_return"]
    alpha = summary["thresholds"][0]
    assert len(summary["seeds"]) == 5
    for entry in summary["seeds"]:
        assert entry["seconds"] < 900.0, (
            f"seed {entry['seed']} took {entry['seconds']:.0f}s (budget 900s)"
        )
        assert entry["final_ma_costs"][0] <= 1.05 * alpha, (
            f"seed {entry['seed']}: ma cost {entry['final_ma_costs'][0]:.4f} "
            f"> 1.05 * {alpha:.4f}"
        )
        assert entry["final_ma_return"] >= 0.9 * jstar, (
            f"seed {entry['seed']}: ma return {entry['final_ma_return']:.4f} "
            f"< 0.9 * {jstar:.4f}"
        )


@pytest.mark.slow
def test_criterion_8_final_iterates_are_stationary_with_inactive_clamps(benchmark_run):
    summary = benchmark_run
    for entry in summary["seeds"]:
        diag = entry["stationarity"]
        assert diag["max_projected_gradient_norm"] < 1e-1, (
            f"seed {entry['seed']}: projected gradient norm "
            f"{diag['max_projected_gradient_norm']:.3e}"
        )
        assert diag["max_multiplier_drift"] < 1e-1, (
            f"seed {entry['seed']}: multiplier drift {diag['max_multiplier_drift']:.3e}"
        )
        assert entry["theta_clipped_tail"] == 0, (
            f"seed {entry['seed']}: actor box active "
            f"{entry['theta_clipped_tail']} times in the last 10k episodes"
        )
        assert entry["floor_clipped_tail"] == 0, (
            f"seed {entry['seed']}: penalty floor active "
            f"{entry['floor_clipped_tail']} times in the last 10k episodes"
        )


def test_criterion_9_schedule_validator_separates_the_three_timescales():
    assert check_schedules(StepSizeSchedules()).ok
    assert check_schedules(
        StepSizeSchedules(critic_exponent=0.51, actor_exponent=0.75)
    ).ok
    assert not check_schedules(StepSizeSchedules(critic_exponent=0.5)).ok
    assert not check_schedules(StepSizeSchedules(critic_exponent=0.4)).ok
    assert not check_schedules(StepSizeSchedules(multiplier_exponent=1.2)).ok
    assert not check_schedules(
        StepSizeSchedules(critic_exponent=0.9, actor_exponent=0.8)
    ).ok
    assert not check_schedules(StepSizeSchedules(critic_scale=0.0)).ok


def test_criterion_10_identical_configs_produce_bit_identical_csvs(tmp_path):
    grid_doc = json.loads((CONFIGS / "gridworld_4x4.json").read_text())
    config = tmp_path / "experiment.json"
    config.write_text(
        json.dumps(
            {
                "name": "repro",
                "model": {"kind": "gridworld", "gridworld": grid_doc},
                "episodes": 2_000,
                "seeds": [0, 1],
                "window": 200,
                "plots": False,
            }
        )
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(config), "--out-dir", str(out_a)]) == 0
    assert main(["train", "--config", str(config), "--out-dir", str(out_b)]) == 0
    csvs = sorted(p.name for p in out_a.glob("*-seed*.csv"))
    assert len(csvs) == 2
    for name in csvs:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert (out_a / "aggregate.csv").read_bytes() == (out_b / "aggregate.csv").read_bytes()
