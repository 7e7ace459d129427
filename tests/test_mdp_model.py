"""Model container, validation, sampling, and serialization."""

import numpy as np
import pytest

from fhc_ac import (
    load_model,
    make_cmdp,
    reachable_sets,
    rollout,
    save_model,
    tabular_policy,
    validate,
)
from fhc_ac.mdp_model import sample_index

from helpers import random_cmdp, random_policy


def test_make_cmdp_shapes_and_counts():
    model = random_cmdp(np.random.default_rng(0), 4, 3, 5, 2)
    assert model.num_states == 4
    assert model.num_actions == 3
    assert model.horizon == 5
    assert model.num_constraints == 2
    assert model.kernels.shape == (5, 4, 3, 4)
    assert model.constraint_costs.shape == (2, 5, 4, 3, 4)
    assert model.terminal_constraint_costs.shape == (2, 4)


def test_make_cmdp_rejects_shape_mismatch():
    model = random_cmdp(np.random.default_rng(0), 3, 2, 2, 0)
    with pytest.raises(ValueError):
        make_cmdp(
            kernels=model.kernels,
            rewards=model.rewards[:1],
            terminal_reward=model.terminal_reward,
            initial_distribution=model.initial_distribution,
        )
    with pytest.raises(ValueError):
        make_cmdp(
            kernels=model.kernels,
            rewards=model.rewards,
            terminal_reward=np.zeros(4),
            initial_distribution=model.initial_distribution,
        )


def test_validate_accepts_random_instance():
    report = validate(random_cmdp(np.random.default_rng(1), 4, 2, 3, 1))
    assert report.ok
    assert not report.violations
    assert bool(report)


def test_validate_flags_bad_rows_and_negative_mass():
    model = random_cmdp(np.random.default_rng(2), 3, 2, 2, 0)
    kernels = model.kernels.copy()
    kernels[1, 2, 0] *= 0.5
    broken = make_cmdp(
        kernels=kernels,
        rewards=model.rewards,
        terminal_reward=model.terminal_reward,
        initial_distribution=model.initial_distribution,
    )
    report = validate(broken)
    assert not report.ok
    assert any("h=1, s=2, a=0" in v for v in report.violations)

    bad_kernels = model.kernels.copy()
    bad_kernels[0, 0, 0] = [-0.2, 0.6, 0.6]  # sums to one but has negative mass
    negative = make_cmdp(
        kernels=bad_kernels,
        rewards=model.rewards,
        terminal_reward=model.terminal_reward,
        initial_distribution=model.initial_distribution,
    )
    report = validate(negative)
    assert not report.ok


def test_validate_flags_bad_initial_distribution():
    model = random_cmdp(np.random.default_rng(3), 3, 2, 2, 0)
    beta = model.initial_distribution.copy()
    object.__setattr__(model, "initial_distribution", beta * 2.0)
    assert not validate(model).ok


def test_rollout_first_transition_matches_kernel_frequencies():
    model = random_cmdp(np.random.default_rng(5), 4, 2, 1, 0)
    # preferences (-20, 20) make action 1 certain up to exp(-40) at state 2
    policy = tabular_policy(model, param_bound=20.0)
    policy.stage_params[0, 2] = -20.0, 20.0
    table = policy.distribution_table()
    rng = np.random.default_rng(9)
    counts = np.zeros(4)
    trials = 40_000
    for _ in range(trials):
        episode = rollout(model, table, rng, s0=2)
        assert episode.actions[0] == 1
        counts[episode.states[1]] += 1
    assert np.abs(counts / trials - model.kernels[0, 2, 1]).max() < 0.01


def test_sample_index_matches_searchsorted_on_the_cumulative_sum():
    def reference(probs, u):
        cdf = np.cumsum(probs)
        return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)

    rng = np.random.default_rng(12)
    rows = []
    for size in (1, 2, 5, 9, 25):
        for _ in range(40):
            row = rng.exponential(size=size) * (rng.random(size) < 0.6)
            if row.sum() > 0:
                rows.append(row / row.sum())
    rows.append(np.full(3, 0.1))             # sums to 0.3: draws above it take the last index
    rows.append(np.array([0.5, np.nan, 0.5]))  # a NaN running sum counts as exceeding u
    for row in rows:
        cdf = np.cumsum(row)
        draws = np.concatenate([rng.random(20), cdf[np.isfinite(cdf)], [0.0, 0.999999]])
        for u in draws:
            assert sample_index(row.tolist(), float(u)) == reference(row, u)


def test_rollout_records_the_distributions_it_sampled_from():
    model = random_cmdp(np.random.default_rng(13), 4, 9, 5, 1)
    policy = random_policy(model, np.random.default_rng(14), scale=3.0)
    episode = rollout(model, policy.distribution_table(), np.random.default_rng(15))
    assert episode.action_probs.shape == (model.horizon, model.num_actions)
    for h in range(model.horizon):
        expected = policy.action_distribution(h, episode.states[h])
        assert np.array_equal(episode.action_probs[h], expected)


def test_rollout_bookkeeping_matches_tables():
    model = random_cmdp(np.random.default_rng(6), 3, 2, 4, 2)
    policy = random_policy(model, np.random.default_rng(7))
    episode = rollout(model, policy.distribution_table(), np.random.default_rng(8))
    H = model.horizon
    assert episode.states.shape == (H + 1,)
    assert episode.actions.shape == (H,)
    for h in range(H):
        s, a, nxt = episode.states[h], episode.actions[h], episode.states[h + 1]
        assert episode.rewards[h] == model.rewards[h, s, a, nxt]
        assert np.all(
            episode.constraint_costs[:, h] == model.constraint_costs[:, h, s, a, nxt]
        )
    assert episode.terminal_reward == model.terminal_reward[episode.states[-1]]
    assert np.all(
        episode.terminal_constraint_costs
        == model.terminal_constraint_costs[:, episode.states[-1]]
    )
    assert episode.total_reward() == pytest.approx(
        episode.rewards.sum() + episode.terminal_reward
    )
    assert episode.total_constraint_costs() == pytest.approx(
        episode.constraint_costs.sum(axis=1) + episode.terminal_constraint_costs
    )


def test_rollout_is_deterministic_given_seed():
    model = random_cmdp(np.random.default_rng(10), 3, 2, 3, 1)
    policy = random_policy(model, np.random.default_rng(11))
    table = policy.distribution_table()
    first = rollout(model, table, np.random.default_rng(42))
    second = rollout(model, table, np.random.default_rng(42))
    assert np.array_equal(first.states, second.states)
    assert np.array_equal(first.actions, second.actions)


def test_rollout_rejects_a_table_of_another_horizon():
    model = random_cmdp(np.random.default_rng(10), 3, 2, 3, 1)
    table = random_policy(model, np.random.default_rng(11)).distribution_table()
    with pytest.raises(ValueError):
        rollout(model, table[:-1], np.random.default_rng(0))


def test_reachable_sets_follow_kernel_support():
    # Deterministic right-moving chain: state i -> i+1, from a point start.
    S, H = 4, 3
    kernels = np.zeros((H, S, 1, S))
    for h in range(H):
        for s in range(S):
            kernels[h, s, 0, min(s + 1, S - 1)] = 1.0
    beta = np.zeros(S)
    beta[0] = 1.0
    model = make_cmdp(
        kernels=kernels,
        rewards=np.zeros((H, S, 1, S)),
        terminal_reward=np.zeros(S),
        initial_distribution=beta,
    )
    sets = reachable_sets(model)
    assert [list(r) for r in sets] == [[0], [1], [2], [3]]


def test_save_load_round_trip_is_exact(tmp_path):
    model = random_cmdp(np.random.default_rng(12), 3, 2, 3, 2)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.kernels, model.kernels)
    assert np.array_equal(loaded.rewards, model.rewards)
    assert np.array_equal(loaded.terminal_reward, model.terminal_reward)
    assert np.array_equal(loaded.constraint_costs, model.constraint_costs)
    assert np.array_equal(
        loaded.terminal_constraint_costs, model.terminal_constraint_costs
    )
    assert np.array_equal(loaded.thresholds, model.thresholds)
    assert np.array_equal(loaded.initial_distribution, model.initial_distribution)


def test_save_load_round_trip_without_constraints(tmp_path):
    model = random_cmdp(np.random.default_rng(13), 3, 2, 2, 0)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.num_constraints == 0
    assert np.array_equal(loaded.kernels, model.kernels)
