"""Linear TD critics: errors, updates, limiting weights, basis validation."""

import numpy as np
import pytest

from fhc_ac import (
    backward_induction,
    fixed_points,
    occupation_measures,
    random_basis,
    rollout,
    tabular_basis,
    td_errors_constraint,
    td_errors_penalized,
    update_constraint_critic,
    update_penalized_critic,
    validate_basis,
    zero_critic,
)
from fhc_ac.critic import StageFeatureBasis

from helpers import random_cmdp, random_policy


def test_tabular_basis_dimensions_and_indicators():
    model = random_cmdp(np.random.default_rng(0), 4, 2, 3, 0)
    basis = tabular_basis(model)
    assert basis.horizon == model.horizon
    for h in range(model.horizon + 1):
        mat = basis.feature_matrix(h)
        r = basis.reachable[h]
        assert mat.shape == (4, len(r))
        assert np.array_equal(mat[r], np.eye(len(r)))


def test_validate_basis_accepts_tabular_and_random():
    model = random_cmdp(np.random.default_rng(1), 4, 2, 3, 1)
    assert validate_basis(tabular_basis(model), model).ok
    assert validate_basis(random_basis(model, np.random.default_rng(2)), model).ok
    assert validate_basis(random_basis(model, np.random.default_rng(3), dims=2), model).ok


def test_validate_basis_rejects_rank_deficiency_and_bad_shapes():
    model = random_cmdp(np.random.default_rng(4), 3, 2, 2, 0)
    good = tabular_basis(model)
    duplicated = [np.column_stack([m[:, :1], m[:, :1]]) for m in good.matrices]
    report = validate_basis(StageFeatureBasis(duplicated, good.reachable), model)
    assert not report.ok
    assert any("rank" in v for v in report.violations)

    wrong_stage_count = StageFeatureBasis(good.matrices[:-1], good.reachable[:-1])
    assert not validate_basis(wrong_stage_count, model).ok

    with_nan = [m.copy() for m in good.matrices]
    with_nan[1][0, 0] = np.nan
    assert not validate_basis(StageFeatureBasis(with_nan, good.reachable), model).ok


def test_td_errors_match_hand_computed_values():
    rng = np.random.default_rng(5)
    model = random_cmdp(rng, 3, 2, 3, 1)
    policy = random_policy(model, rng)
    basis = tabular_basis(model)
    critic = zero_critic(basis, model.num_constraints)
    for h in range(model.horizon + 1):
        critic.v[h, : basis.dim(h)] = rng.normal(size=basis.dim(h))
        critic.w[0, h, : basis.dim(h)] = rng.normal(size=basis.dim(h))
    episode = rollout(model, policy.distribution_table(), np.random.default_rng(6))
    lam = np.array([-0.4])

    deltas = td_errors_penalized(model, basis, critic, episode, lam)
    xis = td_errors_constraint(model, basis, critic, episode, 0)
    H = model.horizon
    for h in range(H):
        s, nxt = episode.states[h], episode.states[h + 1]
        cost = episode.rewards[h] + lam[0] * episode.constraint_costs[0, h]
        expected = (
            cost + critic.v[h + 1] @ basis.row(h + 1, nxt) - critic.v[h] @ basis.row(h, s)
        )
        assert deltas[h] == pytest.approx(expected, abs=1e-12)
        expected_xi = (
            episode.constraint_costs[0, h]
            + critic.w[0][h + 1] @ basis.row(h + 1, nxt)
            - critic.w[0][h] @ basis.row(h, s)
        )
        assert xis[h] == pytest.approx(expected_xi, abs=1e-12)
    s_last = episode.states[-1]
    terminal_cost = episode.terminal_reward + lam[0] * (
        episode.terminal_constraint_costs[0] - model.thresholds[0]
    )
    assert deltas[H] == pytest.approx(
        terminal_cost - critic.v[H] @ basis.row(H, s_last), abs=1e-12
    )
    assert xis[H] == pytest.approx(
        episode.terminal_constraint_costs[0]
        - model.thresholds[0]
        - critic.w[0][H] @ basis.row(H, s_last),
        abs=1e-12,
    )


def test_update_moves_weights_along_features():
    rng = np.random.default_rng(7)
    model = random_cmdp(rng, 3, 2, 2, 1)
    policy = random_policy(model, rng)
    basis = tabular_basis(model)
    critic = zero_critic(basis, 1)
    episode = rollout(model, policy.distribution_table(), np.random.default_rng(8))
    before = critic.copy()
    deltas = update_penalized_critic(model, basis, critic, episode, [-0.5], step=0.1)
    for h in range(model.horizon + 1):
        expected = before.v[h] + 0.1 * deltas[h] * basis.row(h, episode.states[h])
        assert np.allclose(critic.v[h], expected, atol=1e-15)


def test_random_basis_updates_follow_the_per_stage_formula():
    # Stages of different widths share one padded layout; the padding of
    # every narrower stage must stay zero.
    rng = np.random.default_rng(11)
    model = random_cmdp(rng, 4, 3, 4, 2)
    policy = random_policy(model, rng)
    basis = random_basis(model, rng, dims=[1, 2, 2, 1, 2])
    critic = zero_critic(basis, 2)
    for h in range(model.horizon + 1):
        x = basis.dim(h)
        critic.v[h, :x] = rng.normal(size=x)
        critic.w[:, h, :x] = rng.normal(size=(2, x))
    lam = np.array([-0.3, -1.1])
    table = policy.distribution_table()
    ep_rng = np.random.default_rng(12)
    H = model.horizon
    for _ in range(20):
        episode = rollout(model, table, ep_rng)
        s = episode.states
        before = critic.copy()
        weights = [before.v] + [before.w[k] for k in range(2)]
        stage_costs = [episode.rewards + lam @ episode.constraint_costs]
        stage_costs += [episode.constraint_costs[k] for k in range(2)]
        terminal = [
            episode.terminal_reward
            + lam @ (episode.terminal_constraint_costs - model.thresholds)
        ]
        terminal += [
            episode.terminal_constraint_costs[k] - model.thresholds[k] for k in range(2)
        ]
        got = [update_penalized_critic(model, basis, critic, episode, lam, 0.05)]
        got += [update_constraint_critic(model, basis, critic, episode, k, 0.05) for k in range(2)]
        after = [critic.v] + [critic.w[k] for k in range(2)]
        for w, g, term, deltas, new in zip(weights, stage_costs, terminal, got, after):
            def value(h):
                x = basis.dim(h)
                return w[h, :x] @ basis.feature_matrix(h)[s[h]]

            for h in range(H + 1):
                target = g[h] + value(h + 1) if h < H else term
                assert deltas[h] == pytest.approx(target - value(h), abs=1e-12)
                x = basis.dim(h)
                step = 0.05 * deltas[h] * basis.feature_matrix(h)[s[h]]
                assert np.allclose(new[h, :x], w[h, :x] + step, rtol=0, atol=1e-12)
                assert not new[h, x:].any()


def sequential_sweep(basis, weights, states, stage_costs, terminal_cost, step):
    """The literal in-order TD sweep: stage h reads stage h + 1 before moving."""
    H = len(stage_costs)
    deltas = np.empty(H + 1)
    for h in range(H + 1):
        phi = basis.row(h, states[h])
        if h < H:
            target = stage_costs[h] + weights[h + 1] @ basis.row(h + 1, states[h + 1])
        else:
            target = terminal_cost
        deltas[h] = target - weights[h] @ phi
        weights[h] += step * deltas[h] * phi
    return deltas


def test_synchronous_and_sequential_updates_coincide():
    # Each stage's weights are touched once per episode and the TD error at
    # stage h never reads stages updated earlier in the sweep, so the two
    # orders produce identical weights.
    rng = np.random.default_rng(9)
    model = random_cmdp(rng, 3, 2, 4, 2)
    policy = random_policy(model, rng)
    basis = tabular_basis(model)
    critic_a = zero_critic(basis, 2)
    for h in range(model.horizon + 1):
        critic_a.v[h, : basis.dim(h)] = rng.normal(size=basis.dim(h))
        critic_a.w[0, h, : basis.dim(h)] = rng.normal(size=basis.dim(h))
        critic_a.w[1, h, : basis.dim(h)] = rng.normal(size=basis.dim(h))
    critic_b = critic_a.copy()
    lam = np.array([-0.7, -0.1])
    table = policy.distribution_table()
    rng_a, rng_b = np.random.default_rng(10), np.random.default_rng(10)
    for _ in range(50):
        ep_a = rollout(model, table, rng_a)
        ep_b = rollout(model, table, rng_b)
        d_a = update_penalized_critic(model, basis, critic_a, ep_a, lam, 0.05)
        costs = ep_b.rewards + lam @ ep_b.constraint_costs
        cterm = ep_b.terminal_reward + lam @ (ep_b.terminal_constraint_costs - model.thresholds)
        d_b = sequential_sweep(basis, critic_b.v, ep_b.states, costs, cterm, 0.05)
        assert np.array_equal(d_a, d_b)
        for k in range(2):
            x_a = update_constraint_critic(model, basis, critic_a, ep_a, k, 0.05)
            x_b = sequential_sweep(
                basis,
                critic_b.w[k],
                ep_b.states,
                ep_b.constraint_costs[k],
                ep_b.terminal_constraint_costs[k] - model.thresholds[k],
                0.05,
            )
            assert np.array_equal(x_a, x_b)
    assert np.array_equal(critic_a.v, critic_b.v)
    assert np.array_equal(critic_a.w, critic_b.w)


def test_fixed_points_with_tabular_basis_equal_exact_values():
    for seed in range(3):
        rng = np.random.default_rng(20 + seed)
        model = random_cmdp(rng, 4, 2, 3, 1)
        policy = random_policy(model, rng)
        lam = np.array([-1.2])
        basis = tabular_basis(model)
        weights = fixed_points(model, policy, lam, basis)
        solution = backward_induction(model, policy, lam)
        for h in range(model.horizon + 1):
            r = basis.reachable[h]
            assert np.abs(
                (basis.feature_matrix(h) @ weights.penalized[h])[r]
                - solution.values[h][r]
            ).max() < 1e-10
            assert np.abs(
                (basis.feature_matrix(h) @ weights.constraints[0][h])[r]
                - solution.constraint_values[0, h][r]
            ).max() < 1e-10


def test_fixed_points_solve_the_projected_equations_for_random_features():
    # Independent check of the backward least-squares chain: at every stage
    # the feature-weighted residual of the one-step target must vanish.
    rng = np.random.default_rng(30)
    model = random_cmdp(rng, 4, 3, 3, 1)
    policy = random_policy(model, rng)
    lam = np.array([-0.5])
    basis = random_basis(model, rng, dims=2)
    weights = fixed_points(model, policy, lam, basis).penalized
    d = occupation_measures(model, policy)
    H = model.horizon
    mus = [policy.distribution_matrix(h) for h in range(H)]

    terminal_cost = model.terminal_reward + lam[0] * (
        model.terminal_constraint_costs[0] - model.thresholds[0]
    )
    phi = basis.feature_matrix(H)
    residual = phi.T @ (d[H] * (terminal_cost - phi @ weights[H]))
    assert np.abs(residual).max() < 1e-10
    for h in range(H):
        cost = model.rewards[h] + lam[0] * model.constraint_costs[0, h]
        inner = np.einsum("ijk,ijk->ij", model.kernels[h], cost)
        expected_cost = np.sum(mus[h] * inner, axis=1)
        step = np.einsum("ij,ijk->ik", mus[h], model.kernels[h])
        target = expected_cost + step @ (basis.feature_matrix(h + 1) @ weights[h + 1])
        phi = basis.feature_matrix(h)
        residual = phi.T @ (d[h] * (target - phi @ weights[h]))
        assert np.abs(residual).max() < 1e-10


def test_fixed_points_raise_on_singular_gram_matrix():
    rng = np.random.default_rng(31)
    model = random_cmdp(rng, 3, 2, 2, 0)
    policy = random_policy(model, rng)
    good = tabular_basis(model)
    duplicated = [np.column_stack([m, m[:, :1]]) for m in good.matrices]
    basis = StageFeatureBasis(duplicated, good.reachable)
    with pytest.raises(np.linalg.LinAlgError):
        fixed_points(model, policy, np.zeros(0), basis)


def test_random_basis_rejects_bad_dimensions():
    model = random_cmdp(np.random.default_rng(32), 3, 2, 2, 0)
    with pytest.raises(ValueError):
        random_basis(model, np.random.default_rng(0), dims=[0, 1, 1])
