"""Gibbs policies: distributions, scores, projection, serialization."""

import numpy as np
import pytest

from fhc_ac import NonStationaryPolicy, load_policy, save_policy, tabular_policy

from helpers import random_cmdp, random_policy


def small_table():
    """Zero (H, S, A) = (2, 3, 2) table; state 1 is never reached at stage 1."""
    return np.zeros((2, 3, 2))


def test_distributions_are_strictly_positive_and_normalized():
    model = random_cmdp(np.random.default_rng(0), 4, 3, 3, 0)
    policy = random_policy(model, np.random.default_rng(1), scale=6.0)
    for h in range(model.horizon):
        for s in range(model.num_states):
            probs = policy.action_distribution(h, s)
            assert probs.shape == (3,)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs > 0.0)


def test_zero_parameters_give_uniform_distributions():
    policy = NonStationaryPolicy(small_table())
    for h in range(2):
        for s in range(3):
            assert np.allclose(policy.action_distribution(h, s), 0.5, atol=1e-15)


def test_distribution_matches_hand_computed_softmax():
    # [DERIVED] stage 0, state 1 holds preferences (0.8, -0.4); at temperature 2
    # they give probabilities proportional to exp(0.4), exp(-0.2).
    params = small_table()
    params[0, 1] = 0.8, -0.4
    policy = NonStationaryPolicy(params, temperature=2.0)
    z = np.exp(np.array([0.4, -0.2]))
    assert np.allclose(policy.action_distribution(0, 1), z / z.sum(), atol=1e-15)


def test_unreachable_states_fall_back_to_uniform():
    # Stage 1 has preferences on its reachable states 0 and 2 only; the row of
    # state 1 stays zero, which is the uniform distribution.
    params = small_table()
    params[0] = np.arange(6.0).reshape(3, 2)
    params[1, [0, 2]] = np.arange(4.0).reshape(2, 2)
    policy = NonStationaryPolicy(params, temperature=1.0)
    assert np.allclose(policy.action_distribution(1, 1), 0.5, atol=1e-15)


def test_distribution_table_rows_equal_per_state_distributions_exactly():
    # Nine actions take numpy's blocked summation path, four the plain one.
    for num_actions, temperature in ((4, 1.0), (9, 0.7)):
        model = random_cmdp(np.random.default_rng(4), 5, num_actions, 3, 0)
        policy = random_policy(
            model, np.random.default_rng(5), scale=8.0, temperature=temperature
        )
        table = policy.distribution_table()
        assert table.shape == (model.horizon, model.num_states, num_actions)
        for h in range(model.horizon):
            for s in range(model.num_states):
                assert np.array_equal(table[h, s], policy.action_distribution(h, s))


def test_distribution_matrix_agrees_with_per_state_distributions():
    model = random_cmdp(np.random.default_rng(2), 4, 3, 3, 0)
    policy = random_policy(model, np.random.default_rng(3))
    for h in range(model.horizon):
        mat = policy.distribution_matrix(h)
        for s in range(model.num_states):
            assert np.allclose(mat[s], policy.action_distribution(h, s), atol=1e-14)


def test_score_is_gradient_of_log_probability():
    model = random_cmdp(np.random.default_rng(4), 3, 2, 2, 0)
    policy = random_policy(model, np.random.default_rng(5), temperature=1.7)
    eps = 1e-6
    for h in range(model.horizon):
        for s in range(model.num_states):
            for a in range(model.num_actions):
                # the full stage gradient: the score on row s, zero elsewhere
                score = np.zeros_like(policy.stage_params[h])
                score[s] = policy.score(h, s, a)
                base = policy.stage_params[h].copy()
                fd = np.zeros_like(base)
                for i in np.ndindex(base.shape):
                    for sign in (1.0, -1.0):
                        policy.stage_params[h] = base
                        policy.stage_params[h][i] += sign * eps
                        val = np.log(policy.action_distribution(h, s)[a])
                        fd[i] += sign * val / (2 * eps)
                policy.stage_params[h] = base
                assert np.abs(score - fd).max() < 1e-8


def test_scores_average_to_zero_under_the_policy():
    model = random_cmdp(np.random.default_rng(6), 4, 3, 3, 0)
    policy = random_policy(model, np.random.default_rng(7), scale=3.0)
    for h in range(model.horizon):
        for s in range(model.num_states):
            probs = policy.action_distribution(h, s)
            scores = np.array([policy.score(h, s, a) for a in range(model.num_actions)])
            assert np.abs(probs @ scores).max() < 1e-14


def test_batched_scores_equal_the_per_row_scores_exactly():
    model = random_cmdp(np.random.default_rng(6), 4, 3, 3, 0)
    policy = random_policy(model, np.random.default_rng(7), scale=3.0)
    rng = np.random.default_rng(8)
    stages = rng.integers(model.horizon, size=10)
    states = rng.integers(model.num_states, size=10)
    actions = rng.integers(model.num_actions, size=10)
    expected = np.array([policy.score(*hsa) for hsa in zip(stages, states, actions)])
    batched = policy.score(stages, states, actions)
    assert np.array_equal(batched, expected)
    given = policy.distribution_table()[stages, states]
    assert np.array_equal(policy.score(stages, states, actions, given), expected)


def test_project_params_clamps_and_is_idempotent():
    policy = NonStationaryPolicy(small_table(), param_bound=2.0)
    raw = np.array([-5.0, -2.0, 0.3, 1.9, 2.0, 7.0])
    projected = policy.project_params(raw)
    assert np.array_equal(projected, np.array([-2.0, -2.0, 0.3, 1.9, 2.0, 2.0]))
    assert np.array_equal(policy.project_params(projected), projected)


def test_constructor_rejects_bad_settings():
    with pytest.raises(ValueError):
        NonStationaryPolicy(small_table(), temperature=0.0)
    with pytest.raises(ValueError):
        NonStationaryPolicy(small_table(), param_bound=-1.0)
    with pytest.raises(ValueError):
        NonStationaryPolicy(np.zeros((2, 6)))
    with pytest.raises(ValueError):
        NonStationaryPolicy([np.zeros((3, 2)), np.zeros((2, 2))])  # ragged stages
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            NonStationaryPolicy(small_table(), temperature=bad)
        with pytest.raises(ValueError):
            NonStationaryPolicy(small_table(), param_bound=bad)
        params = small_table()
        params[1, 2, 0] = bad
        with pytest.raises(ValueError):
            NonStationaryPolicy(params)


def test_sample_action_matches_distribution_frequencies():
    model = random_cmdp(np.random.default_rng(10), 3, 3, 2, 0)
    policy = random_policy(model, np.random.default_rng(11), scale=1.0)
    rng = np.random.default_rng(12)
    trials = 30_000
    counts = np.zeros(3)
    for _ in range(trials):
        counts[policy.sample_action(rng, 0, 1)] += 1
    assert np.abs(counts / trials - policy.action_distribution(0, 1)).max() < 0.01


def test_tabular_policy_is_a_zero_table_of_the_model_shape():
    model = random_cmdp(np.random.default_rng(13), 4, 2, 3, 0)
    policy = tabular_policy(model)
    assert policy.horizon == model.horizon
    assert policy.stage_params.shape == (model.horizon, model.num_states, model.num_actions)
    assert not policy.stage_params.any()


def test_save_load_round_trip(tmp_path):
    model = random_cmdp(np.random.default_rng(14), 3, 2, 3, 0)
    policy = random_policy(model, np.random.default_rng(15), temperature=0.8)
    path = tmp_path / "policy.json"
    save_policy(policy, path)
    loaded = load_policy(path)
    assert loaded.temperature == policy.temperature
    assert loaded.param_bound == policy.param_bound
    for h in range(model.horizon):
        assert np.array_equal(loaded.stage_params[h], policy.stage_params[h])
        assert np.allclose(
            loaded.distribution_matrix(h), policy.distribution_matrix(h), atol=0
        )
