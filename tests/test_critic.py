"""Tabular TD critics: errors, updates, and the table they converge to."""

import numpy as np
import pytest

from fhc_ac import (
    fixed_points,
    reachable_sets,
    rollout,
    update_constraint_critic,
    update_penalized_critic,
)
from fhc_ac.dp_oracle import penalize

from helpers import (
    assert_exact_critic_limit,
    random_cmdp,
    random_policy,
    sample_episode,
)


def random_critic(model, rng):
    """Critic tables with normal entries on every stage's reachable states."""
    critic = np.zeros((1 + model.num_constraints, model.horizon + 1, model.num_states))
    for h, r in enumerate(reachable_sets(model)):
        critic[0, h, r] = rng.normal(size=len(r))
        critic[1:, h, r] = rng.normal(size=(model.num_constraints, len(r)))
    return critic


def test_td_errors_match_hand_computed_values():
    rng = np.random.default_rng(5)
    model = random_cmdp(rng, 3, 2, 3, 1)
    policy = random_policy(model, rng)
    critic = random_critic(model, rng)
    start = critic.copy()
    episode = sample_episode(model, policy, np.random.default_rng(6))
    lam = np.array([-0.4])

    deltas = update_penalized_critic(model, critic, episode, lam, 0.1)
    xis = update_constraint_critic(model, critic, episode, 0.1)
    H = model.horizon
    assert xis.shape == (1, H + 1)
    xis = xis[0]
    v, w = start[0], start[1]
    for h in range(H):
        s, nxt = episode.states[h], episode.states[h + 1]
        cost = episode.costs[0, h] + lam[0] * episode.costs[1, h]
        assert deltas[h] == pytest.approx(cost + v[h + 1, nxt] - v[h, s], abs=1e-12)
        expected_xi = episode.costs[1, h] + w[h + 1, nxt] - w[h, s]
        assert xis[h] == pytest.approx(expected_xi, abs=1e-12)
    s_last = episode.states[-1]
    terminal_cost = episode.terminal_costs[0] + lam[0] * (
        episode.terminal_costs[1] - model.thresholds[0]
    )
    assert deltas[H] == pytest.approx(terminal_cost - v[H, s_last], abs=1e-12)
    assert xis[H] == pytest.approx(
        episode.terminal_costs[1] - model.thresholds[0] - w[H, s_last],
        abs=1e-12,
    )


def test_update_moves_weights_along_features():
    # Each episode moves exactly the visited entry (h, s_h) of every stage,
    # by step * delta_h, in both critics; every other entry keeps its bits.
    rng = np.random.default_rng(11)
    model = random_cmdp(rng, 4, 3, 4, 2)
    policy = random_policy(model, rng)
    critic = random_critic(model, rng)
    lam = np.array([-0.3, -1.1])
    table = policy.distribution_table()
    running = np.cumsum(table, axis=-1)
    ep_rng = np.random.default_rng(12)
    stages = np.arange(model.horizon + 1)
    for _ in range(20):
        episode = rollout(model, table, running, ep_rng)
        visited = (stages, episode.states)
        before = critic.copy()
        deltas = update_penalized_critic(model, critic, episode, lam, 0.05)
        xis = update_constraint_critic(model, critic, episode, 0.05)
        expected_v = before[0].copy()
        expected_v[visited] += 0.05 * deltas
        assert np.array_equal(critic[0], expected_v)
        expected_w = before[1:].copy()
        expected_w[:, stages, episode.states] += 0.05 * xis
        assert np.array_equal(critic[1:], expected_w)


def test_random_critic_updates_follow_the_per_stage_formula():
    # Critic tables with random entries: at every stage the TD error must be
    # the hand-computed target minus the visited entry, for the penalized
    # critic and each constraint critic, and only that entry may move.
    rng = np.random.default_rng(11)
    model = random_cmdp(rng, 4, 3, 4, 2)
    policy = random_policy(model, rng)
    critic = random_critic(model, rng)
    lam = np.array([-0.3, -1.1])
    table = policy.distribution_table()
    running = np.cumsum(table, axis=-1)
    ep_rng = np.random.default_rng(12)
    H = model.horizon
    for _ in range(20):
        episode = rollout(model, table, running, ep_rng)
        s = episode.states
        before = critic.copy()
        tables = [before[0]] + [before[1:][k] for k in range(2)]
        stage_costs = [episode.costs[0] + lam @ episode.costs[1:]]
        stage_costs += [episode.costs[1 + k] for k in range(2)]
        terminal = [
            episode.terminal_costs[0]
            + lam @ (episode.terminal_costs[1:] - model.thresholds)
        ]
        terminal += [
            episode.terminal_costs[1 + k] - model.thresholds[k] for k in range(2)
        ]
        got = [update_penalized_critic(model, critic, episode, lam, 0.05)]
        got += list(update_constraint_critic(model, critic, episode, 0.05))
        after = [critic[0]] + [critic[1:][k] for k in range(2)]
        for old, g, term, deltas, new in zip(tables, stage_costs, terminal, got, after):
            expected = old.copy()
            for h in range(H + 1):
                target = g[h] + old[h + 1, s[h + 1]] if h < H else term
                assert deltas[h] == pytest.approx(target - old[h, s[h]], abs=1e-12)
                expected[h, s[h]] = old[h, s[h]] + 0.05 * deltas[h]
            assert np.allclose(new, expected, rtol=0, atol=1e-12)
            untouched = np.ones(new.shape, dtype=bool)
            untouched[np.arange(H + 1), s] = False
            assert np.array_equal(new[untouched], old[untouched])


def test_batched_constraint_step_equals_the_per_critic_formula_exactly():
    # One TD step moves all M constraint critics; each must get the bits the
    # single-critic formula gives it, with a per-stage step.
    rng = np.random.default_rng(13)
    M = 3
    model = random_cmdp(rng, 4, 3, 4, M)
    policy = random_policy(model, rng)
    critic = random_critic(model, rng)
    reference = critic[1:].copy()
    table = policy.distribution_table()
    running = np.cumsum(table, axis=-1)
    ep_rng = np.random.default_rng(14)
    stages = np.arange(model.horizon + 1)
    for n in range(30):
        episode = rollout(model, table, running, ep_rng)
        step = 0.5 / (n + 1 + stages)
        got = update_constraint_critic(model, critic, episode, step)
        assert got.shape == (M, model.horizon + 1)
        for k in range(M):
            vals = reference[k][stages, episode.states]
            deltas = np.empty(model.horizon + 1)
            deltas[:-1] = episode.costs[1 + k] + vals[1:] - vals[:-1]
            deltas[-1] = episode.terminal_costs[1 + k] - model.thresholds[k] - vals[-1]
            reference[k][stages, episode.states] += step * deltas
            assert np.array_equal(got[k], deltas)
        assert np.array_equal(critic[1:], reference)


def sequential_sweep(table, states, stage_costs, terminal_cost, step):
    """The literal in-order TD sweep: stage h reads stage h + 1 before moving."""
    H = len(stage_costs)
    deltas = np.empty(H + 1)
    for h in range(H + 1):
        if h < H:
            target = stage_costs[h] + table[h + 1, states[h + 1]]
        else:
            target = terminal_cost
        deltas[h] = target - table[h, states[h]]
        table[h, states[h]] += step * deltas[h]
    return deltas


def test_synchronous_and_sequential_updates_coincide():
    # Each stage's entry is touched once per episode and the TD error at
    # stage h never reads stages updated earlier in the sweep, so the two
    # orders produce identical tables.
    rng = np.random.default_rng(9)
    model = random_cmdp(rng, 3, 2, 4, 2)
    policy = random_policy(model, rng)
    critic_a = random_critic(model, rng)
    critic_b = critic_a.copy()
    lam = np.array([-0.7, -0.1])
    table = policy.distribution_table()
    running = np.cumsum(table, axis=-1)
    rng_a, rng_b = np.random.default_rng(10), np.random.default_rng(10)
    for _ in range(50):
        ep_a = rollout(model, table, running, rng_a)
        ep_b = rollout(model, table, running, rng_b)
        d_a = update_penalized_critic(model, critic_a, ep_a, lam, 0.05)
        costs = penalize(ep_b.costs, lam)
        gaps = ep_b.terminal_costs[1:] - model.thresholds
        cterm = penalize(np.append(ep_b.terminal_costs[0], gaps), lam)
        d_b = sequential_sweep(critic_b[0], ep_b.states, costs, cterm, 0.05)
        assert np.array_equal(d_a, d_b)
        x_a = update_constraint_critic(model, critic_a, ep_a, 0.05)
        for k in range(2):
            x_b = sequential_sweep(
                critic_b[1:][k],
                ep_b.states,
                ep_b.costs[1 + k],
                ep_b.terminal_costs[1 + k] - model.thresholds[k],
                0.05,
            )
            assert np.array_equal(x_a[k], x_b)
    assert np.array_equal(critic_a[0], critic_b[0])
    assert np.array_equal(critic_a[1:], critic_b[1:])


def test_fixed_points_with_tabular_basis_equal_exact_values():
    for seed in range(3):
        rng = np.random.default_rng(20 + seed)
        model = random_cmdp(rng, 4, 2, 3, 1)
        policy = random_policy(model, rng)
        lam = np.array([-1.2])
        assert_exact_critic_limit(model, policy, lam, fixed_points(model, policy, lam))
