"""Training loop: schedules, updates, determinism, checkpoints, diagnostics."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from fhc_ac import (
    StepSizeSchedules,
    TrainerConfig,
    actor_update,
    check_schedules,
    evaluate_policy,
    exact_gradient,
    load_checkpoint,
    make_trainer,
    moving_average,
    multiplier_update,
    rollout,
    save_checkpoint,
    stationarity_diagnostics,
    tabular_basis,
    tabular_policy,
    train,
)

from helpers import random_cmdp, random_policy


def test_check_schedules_accepts_the_default_trio():
    report = check_schedules(StepSizeSchedules())
    assert report.ok
    assert report.notes  # separation ratios reported


def test_check_schedules_rejects_out_of_range_exponents():
    report = check_schedules(StepSizeSchedules(critic_exponent=0.4))
    assert not report.ok
    assert any("(0.5, 1]" in v for v in report.violations)
    assert not check_schedules(StepSizeSchedules(multiplier_exponent=1.2)).ok


def test_check_schedules_rejects_unseparated_timescales():
    report = check_schedules(
        StepSizeSchedules(critic_exponent=0.8, actor_exponent=0.7)
    )
    assert not report.ok
    assert any("strictly increase" in v for v in report.violations)
    assert not check_schedules(StepSizeSchedules(actor_scale=0.0)).ok


def test_step_sizes_follow_the_power_law():
    s = StepSizeSchedules(critic_scale=2.0)
    assert s.critic_step(0) == 2.0
    assert s.critic_step(99) == pytest.approx(2.0 * 100.0**-0.6)
    assert s.actor_step(99) == pytest.approx(100.0**-0.8)
    assert s.multiplier_step(99) == pytest.approx(0.01)


def test_trainer_config_rejects_bad_settings():
    with pytest.raises(ValueError):
        TrainerConfig(episodes=1, penalty_floor=0.0)
    with pytest.raises(ValueError):
        make_trainer(
            random_cmdp(np.random.default_rng(0)),
            TrainerConfig(episodes=1, schedules=StepSizeSchedules(critic_exponent=0.4)),
        )


def test_moving_average_matches_direct_windowed_means():
    rng = np.random.default_rng(1)
    values = rng.normal(size=57)
    for window in (1, 3, 7, 57, 80):
        expected = np.array(
            [values[max(0, i - window + 1) : i + 1].mean() for i in range(len(values))]
        )
        assert np.allclose(moving_average(values, window), expected, atol=1e-12)
    with pytest.raises(ValueError):
        moving_average(values, 0)
    with pytest.raises(ValueError):
        moving_average(values.reshape(-1, 1), 3)


def moved_rows(model, episode):
    mask = np.zeros((model.horizon, model.num_states), dtype=bool)
    mask[np.arange(model.horizon), episode.states[:-1]] = True
    return mask


def test_actor_update_applies_the_scaled_score():
    rng = np.random.default_rng(2)
    model = random_cmdp(rng, 3, 2, 5, 1)
    policy = random_policy(model, rng)
    reference = policy.copy()
    episode = rollout(model, policy.distribution_table(), np.random.default_rng(3))
    deltas = rng.normal(size=model.horizon + 1)
    clipped = actor_update(policy, episode, deltas, step=0.2)
    assert clipped is False
    # every moved row gets exactly the update of its own stage step
    for h in range(model.horizon):
        s, a = episode.states[h], episode.actions[h]
        expected = reference.stage_params[h, s] + (0.2 * deltas[h]) * reference.score(h, s, a)
        assert np.array_equal(policy.stage_params[h, s], expected)
    mask = moved_rows(model, episode)
    assert not np.array_equal(policy.stage_params[mask], reference.stage_params[mask])
    assert np.array_equal(policy.stage_params[~mask], reference.stage_params[~mask])


def test_actor_update_clamps_into_the_parameter_box():
    rng = np.random.default_rng(3)
    model = random_cmdp(rng, 3, 2, 4, 1)
    policy = tabular_policy(model, param_bound=0.5)
    policy.stage_params[:] = 0.49
    episode = rollout(model, policy.distribution_table(), np.random.default_rng(4))
    deltas = np.full(model.horizon + 1, 50.0)
    deltas[1] = 0.0  # this stage's row stays put and inside the box
    clipped = actor_update(policy, episode, deltas, step=1.0)
    assert clipped is True
    theta = policy.stage_params
    assert theta.max() <= 0.5 and theta.min() >= -0.5
    mask = moved_rows(model, episode)
    for h in range(model.horizon):
        row = theta[h, episode.states[h]]
        if h == 1:
            assert np.all(row == 0.49)
        else:
            assert np.any(np.abs(row) == 0.5)
    assert np.all(theta[~mask] == 0.49)


def test_multiplier_update_moves_against_the_gap_and_clamps():
    cfg = TrainerConfig(episodes=1, penalty_floor=-2.0)
    new, floor_hit, zero_hit = multiplier_update(
        np.array([-1.0]), np.array([0.3]), 0.5, cfg
    )
    assert np.allclose(new, [-1.15])
    assert not floor_hit and not zero_hit

    new, floor_hit, zero_hit = multiplier_update(
        np.array([-1.9]), np.array([0.5]), 1.0, cfg
    )
    assert new[0] == -2.0 and floor_hit and not zero_hit

    new, floor_hit, zero_hit = multiplier_update(
        np.array([-0.1]), np.array([-0.5]), 1.0, cfg
    )
    assert new[0] == 0.0 and zero_hit and not floor_hit


def test_training_is_deterministic_for_a_fixed_seed():
    rng = np.random.default_rng(5)
    model = random_cmdp(rng, 3, 2, 2, 1)
    config = TrainerConfig(episodes=150, seed=9)
    state_a, metrics_a = train(model, config)
    state_b, metrics_b = train(model, config)
    assert np.array_equal(metrics_a.returns, metrics_b.returns)
    assert np.array_equal(metrics_a.multipliers, metrics_b.multipliers)
    assert np.array_equal(state_a.multipliers, state_b.multipliers)
    for h in range(model.horizon):
        assert np.array_equal(state_a.policy.stage_params[h], state_b.policy.stage_params[h])
    # the critics start at zero, so the first recorded estimates are zero
    assert metrics_a.value_estimates[0] == 0.0
    assert np.array_equal(metrics_a.gap_estimates[0], [0.0])


def test_training_runs_without_constraints():
    model = random_cmdp(np.random.default_rng(7), 3, 2, 2, 0)
    state, metrics = train(model, TrainerConfig(episodes=50, seed=1))
    assert metrics.multipliers.shape == (50, 0)
    assert state.multipliers.shape == (0,)
    assert not metrics.multiplier_floor_clipped.any()


def test_make_trainer_takes_only_the_model_and_the_config():
    assert list(inspect.signature(make_trainer).parameters) == ["model", "config"]


def test_checkpoint_resume_reproduces_the_straight_run(tmp_path):
    rng = np.random.default_rng(8)
    model = random_cmdp(rng, 3, 2, 2, 1)
    full = TrainerConfig(episodes=200, seed=5)
    state_full, metrics_full = train(model, full)

    state_half, metrics_head = train(model, TrainerConfig(episodes=120, seed=5))
    path = tmp_path / "ckpt.json"
    save_checkpoint(state_half, path)
    doc = json.loads(path.read_text())
    assert "basis" not in doc
    # checkpoints written with a stored feature basis still load
    basis = tabular_basis(model)
    doc["basis"] = {
        "matrices": [m.tolist() for m in basis.matrices],
        "reachable": [r.tolist() for r in basis.reachable],
    }
    legacy_path = tmp_path / "legacy.json"
    legacy_path.write_text(json.dumps(doc))

    for checkpoint in (path, legacy_path):
        loaded = load_checkpoint(checkpoint)
        assert loaded.episode == 120
        assert loaded.config == state_half.config
        state_resumed, metrics_tail = train(model, full, state=loaded)

        assert state_resumed.episode == 200
        assert state_resumed.config == full
        assert np.array_equal(
            metrics_full.returns, np.concatenate([metrics_head.returns, metrics_tail.returns])
        )
        assert np.array_equal(
            metrics_full.multipliers,
            np.concatenate([metrics_head.multipliers, metrics_tail.multipliers]),
        )
        assert np.array_equal(state_full.multipliers, state_resumed.multipliers)
        assert np.array_equal(state_full.policy.stage_params, state_resumed.policy.stage_params)
        assert np.array_equal(state_full.critic.v, state_resumed.critic.v)
        assert np.array_equal(state_full.critic.w, state_resumed.critic.w)


def test_resume_rejects_a_state_that_does_not_fit_the_model_or_config():
    rng = np.random.default_rng(8)
    model = random_cmdp(rng, 3, 2, 2, 1)
    config = TrainerConfig(episodes=20, seed=5)
    state, _ = train(model, TrainerConfig(episodes=10, seed=5))

    more_states = random_cmdp(np.random.default_rng(8), 4, 2, 2, 1)
    more_actions = random_cmdp(np.random.default_rng(8), 3, 3, 2, 1)
    longer = random_cmdp(np.random.default_rng(8), 3, 2, 3, 1)
    two_constraints = random_cmdp(np.random.default_rng(8), 3, 2, 2, 2)
    for other in (more_states, more_actions, longer, two_constraints):
        with pytest.raises(ValueError, match="cannot resume"):
            train(other, config, state=state)

    def altered(**changes):
        return dataclasses.replace(state, **changes)

    v, w = state.critic.v, state.critic.w
    narrow_v = dataclasses.replace(state.critic, v=v[:, :-1])
    narrow_w = dataclasses.replace(state.critic, w=w[:, :, :-1])
    for bad in (
        altered(critic=narrow_v),
        altered(critic=narrow_w),
        altered(multipliers=np.zeros(2)),
        altered(policy=tabular_policy(more_actions)),
    ):
        with pytest.raises(ValueError, match="cannot resume"):
            train(model, config, state=bad)
    for settings in ({"temperature": 0.5}, {"param_bound": 3.0}):
        with pytest.raises(ValueError, match="cannot resume"):
            train(model, dataclasses.replace(config, **settings), state=state)
    assert state.episode == 10  # nothing was trained
    assert train(model, config, state=state)[0].episode == 20


def test_stationarity_reports_exact_drift_for_interior_multipliers():
    rng = np.random.default_rng(9)
    model = random_cmdp(rng, 3, 2, 2, 1)
    policy = random_policy(model, rng)
    report = stationarity_diagnostics(model, policy, [-1.0])
    expected_return, totals = evaluate_policy(model, policy)
    assert report.expected_return == pytest.approx(expected_return)
    assert np.allclose(report.constraint_totals, totals)
    assert np.allclose(report.multiplier_drifts, -(totals - model.thresholds))
    assert report.multiplier_bound_active == 0
    grads = exact_gradient(model, policy, np.array([-1.0]))
    assert np.allclose(
        report.stage_gradient_norms, [np.linalg.norm(g) for g in grads]
    )
    # no parameter sits at the box edge, so projection changes nothing
    assert np.allclose(report.projected_gradient_norms, report.stage_gradient_norms)


def test_stationarity_drift_vanishes_for_slack_constraint_at_zero_multiplier():
    rng = np.random.default_rng(10)
    model = random_cmdp(rng, 3, 2, 2, 1)
    policy = random_policy(model, rng)
    _, totals = evaluate_policy(model, policy)
    slack = dataclasses.replace(model, thresholds=totals + 1.0)
    report = stationarity_diagnostics(slack, policy, [0.0])
    assert report.max_multiplier_drift == 0.0
    assert report.multiplier_bound_active == 1

    violated = dataclasses.replace(model, thresholds=totals - 0.5)
    report = stationarity_diagnostics(violated, policy, [0.0])
    assert report.max_multiplier_drift == pytest.approx(0.5)


def test_stationarity_drift_vanishes_for_violation_at_the_penalty_floor():
    rng = np.random.default_rng(11)
    model = random_cmdp(rng, 3, 2, 2, 1)
    policy = random_policy(model, rng)
    _, totals = evaluate_policy(model, policy)
    violated = dataclasses.replace(model, thresholds=totals - 1.0)
    report = stationarity_diagnostics(violated, policy, [-100.0], penalty_floor=-100.0)
    assert report.max_multiplier_drift == 0.0
    assert report.multiplier_bound_active == 1


def test_stationarity_projects_gradients_at_the_parameter_box():
    rng = np.random.default_rng(12)
    model = random_cmdp(rng, 3, 2, 2, 1)
    policy = random_policy(model, rng)
    bound = policy.param_bound
    policy.stage_params[0][:] = bound
    report = stationarity_diagnostics(model, policy, [-0.5])
    grads = exact_gradient(model, policy, np.array([-0.5]))
    assert report.projected_gradient_norms[0] == pytest.approx(
        np.linalg.norm(np.minimum(grads[0], 0.0))
    )
    assert report.projected_gradient_norms[0] <= report.stage_gradient_norms[0]
    assert report.theta_bound_active == policy.stage_params[0].size
