"""Exact solver against brute-force trajectory and policy enumeration."""

import dataclasses
import math

import numpy as np
import pytest

from fhc_ac import (
    approximate_gradient,
    backward_induction,
    constrained_reference,
    evaluate_deterministic,
    evaluate_policy,
    exact_gradient,
    finite_difference_gradient,
    greedy_response,
    lagrangian_value,
    make_cmdp,
    occupation_measures,
    tabular_basis,
    tabular_policy,
)

from helpers import (
    brute_deterministic_value,
    brute_occupation,
    brute_policy_value,
    brute_state_values,
    iter_deterministic_policies,
    random_cmdp,
    random_policy,
)


def test_channel_tables_equal_per_state_action_expectations():
    rng = np.random.default_rng(40)
    model = random_cmdp(rng, 3, 2, 3, 2)
    H, S, A, M = model.horizon, model.num_states, model.num_actions, model.num_constraints
    costs = model.channel_costs
    assert costs.shape == (1 + M, H, S, A)
    for h in range(H):
        for s in range(S):
            for a in range(A):
                p = model.kernels[h, s, a]
                expected = [math.fsum(p * model.rewards[h, s, a])]
                expected += [math.fsum(p * model.constraint_costs[k, h, s, a]) for k in range(M)]
                assert costs[:, h, s, a] == pytest.approx(expected, rel=1e-14, abs=1e-15)
    terminal = model.channel_terminal
    assert terminal.shape == (1 + M, S)
    assert np.array_equal(terminal[0], model.terminal_reward)
    for k in range(M):
        assert np.array_equal(
            terminal[1 + k], model.terminal_constraint_costs[k] - model.thresholds[k]
        )
    # cached once per model; a replaced model computes its own tables
    assert model.channel_costs is costs and model.channel_terminal is terminal
    moved = dataclasses.replace(model, thresholds=model.thresholds + 1.0)
    assert np.array_equal(moved.channel_terminal[1:], terminal[1:] - 1.0)
    assert np.array_equal(moved.channel_costs, costs)


def test_evaluate_deterministic_equals_backward_induction_of_the_one_hot_policy():
    for seed, M in ((41, 0), (42, 1), (43, 3)):
        rng = np.random.default_rng(seed)
        model = random_cmdp(rng, 4, 3, 3, M)
        actions = rng.integers(model.num_actions, size=(model.horizon, model.num_states))
        # exp(-10 / 1e-3) underflows to 0, so the Gibbs rows are exactly one-hot
        policy = tabular_policy(model, temperature=1e-3, param_bound=10.0)
        np.put_along_axis(policy.stage_params, actions[..., None], 10.0, axis=-1)
        assert set(np.unique(policy.distribution_table())) == {0.0, 1.0}
        solution = backward_induction(model, policy, np.zeros(M))
        j, totals = evaluate_deterministic(model, actions)
        assert j == solution.expected_return
        assert np.array_equal(totals, solution.constraint_totals)
        assert totals.shape == (M,)


def test_backward_induction_matches_trajectory_enumeration():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        model = random_cmdp(rng, 3, 2, 3, seed % 3)
        policy = random_policy(model, rng)
        lam = -rng.uniform(0.0, 2.0, size=model.num_constraints)
        j, totals, penalized = brute_policy_value(model, policy, lam)
        solution = backward_induction(model, policy, lam)
        assert solution.expected_return == pytest.approx(j, abs=1e-12)
        assert solution.constraint_totals == pytest.approx(totals, abs=1e-12)
        assert solution.lagrangian == pytest.approx(penalized, abs=1e-12)


def test_state_values_match_per_start_enumeration():
    rng = np.random.default_rng(5)
    model = random_cmdp(rng, 3, 2, 3, 1)
    policy = random_policy(model, rng)
    lam = np.array([-0.8])
    values = brute_state_values(model, policy, lam)
    solution = backward_induction(model, policy, lam)
    assert np.abs(solution.values - values).max() < 1e-12


def test_lagrangian_value_agrees_with_backward_induction():
    rng = np.random.default_rng(6)
    model = random_cmdp(rng, 4, 3, 4, 2)
    policy = random_policy(model, rng)
    lam = np.array([-1.5, -0.25])
    solution = backward_induction(model, policy, lam)
    assert lagrangian_value(model, policy, lam) == pytest.approx(
        solution.lagrangian, abs=1e-12
    )


def test_occupation_measures_match_enumeration_and_sum_to_one():
    for seed in range(3):
        rng = np.random.default_rng(10 + seed)
        model = random_cmdp(rng, 4, 2, 4, 0)
        policy = random_policy(model, rng)
        d = occupation_measures(model, policy)
        assert np.abs(d.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(d - brute_occupation(model, policy)).max() < 1e-12


def test_exact_gradient_matches_finite_differences():
    rng = np.random.default_rng(20)
    model = random_cmdp(rng, 3, 2, 3, 1)
    policy = random_policy(model, rng)
    lam = np.array([-0.6])
    exact = exact_gradient(model, policy, lam)
    numeric = finite_difference_gradient(model, policy, lam)
    num = np.sqrt(sum(np.sum((a - b) ** 2) for a, b in zip(exact, numeric)))
    den = np.sqrt(sum(np.sum(a**2) for a in exact))
    assert num / den < 1e-6


def test_gradient_baseline_does_not_change_anything():
    rng = np.random.default_rng(21)
    model = random_cmdp(rng, 4, 3, 3, 2)
    policy = random_policy(model, rng)
    lam = np.array([-1.0, -0.3])
    with_baseline = exact_gradient(model, policy, lam, use_baseline=True)
    without = exact_gradient(model, policy, lam, use_baseline=False)
    assert max(np.abs(a - b).max() for a, b in zip(with_baseline, without)) < 1e-12


def test_approximate_gradient_with_full_basis_is_exact():
    rng = np.random.default_rng(22)
    model = random_cmdp(rng, 3, 2, 3, 1)
    policy = random_policy(model, rng)
    lam = np.array([-0.9])
    exact = exact_gradient(model, policy, lam)
    approx = approximate_gradient(model, policy, lam, basis=tabular_basis(model))
    assert max(np.abs(a - b).max() for a, b in zip(exact, approx)) < 1e-10


def test_evaluate_policy_returns_plain_objective_and_costs():
    rng = np.random.default_rng(23)
    model = random_cmdp(rng, 3, 2, 3, 2)
    policy = random_policy(model, rng)
    j, totals = evaluate_policy(model, policy)
    j_brute, totals_brute, _ = brute_policy_value(model, policy)
    assert j == pytest.approx(j_brute, abs=1e-12)
    assert totals == pytest.approx(totals_brute, abs=1e-12)


def test_evaluate_deterministic_matches_enumeration():
    rng = np.random.default_rng(24)
    model = random_cmdp(rng, 3, 2, 2, 1)
    actions = rng.integers(0, 2, size=(model.horizon, model.num_states))
    j, totals = evaluate_deterministic(model, actions)
    j_brute, totals_brute = brute_deterministic_value(model, actions)
    assert j == pytest.approx(j_brute, abs=1e-12)
    assert totals == pytest.approx(totals_brute, abs=1e-12)


def test_greedy_response_attains_best_deterministic_penalized_value():
    for seed in range(3):
        rng = np.random.default_rng(30 + seed)
        model = random_cmdp(rng, 2, 2, 2, 1)
        lam = -rng.uniform(0.0, 2.0, size=1)

        def penalized(actions):
            j, totals = evaluate_deterministic(model, actions)
            return j + lam @ (totals - model.thresholds)

        best = max(penalized(a) for a in iter_deterministic_policies(model))
        greedy = greedy_response(model, lam)
        assert penalized(greedy) == pytest.approx(best, abs=1e-12)


def test_constrained_reference_finds_best_feasible_greedy_policy():
    # On this instance the constraint cuts off the unconstrained optimum and
    # the multiplier sweep still recovers the enumerated best feasible value.
    rng = np.random.default_rng(9)
    model = random_cmdp(rng, 2, 2, 2, 1)
    feasible_best = -np.inf
    any_infeasible = False
    for actions in iter_deterministic_policies(model):
        j, totals = evaluate_deterministic(model, actions)
        if np.all(totals <= model.thresholds + 1e-9):
            feasible_best = max(feasible_best, j)
        else:
            any_infeasible = True
    assert any_infeasible, "constraint should exclude at least one policy"
    ref = constrained_reference(model, penalty_floor=-50.0, num_points=201)
    assert ref.feasible
    assert ref.best_return == pytest.approx(feasible_best, abs=1e-9)
    assert ref.unconstrained.expected_return >= ref.best_return - 1e-12


def test_constrained_reference_result_is_feasible_and_below_enumeration():
    # The sweep always returns a feasible deterministic policy, so its value
    # can never exceed the enumerated best (it may fall short: the sweep only
    # sees policies that are optimal for some penalty).
    for seed in (31, 35, 52):
        rng = np.random.default_rng(seed)
        model = random_cmdp(rng, 2, 2, 2, 1)
        feasible_best = max(
            (
                j
                for actions in iter_deterministic_policies(model)
                for j, totals in [evaluate_deterministic(model, actions)]
                if np.all(totals <= model.thresholds + 1e-9)
            ),
            default=-np.inf,
        )
        ref = constrained_reference(model, penalty_floor=-50.0, num_points=201)
        assert ref.feasible
        j, totals = evaluate_deterministic(model, ref.best_actions)
        assert np.all(totals <= model.thresholds + 1e-9)
        assert j == pytest.approx(ref.best_return, abs=1e-12)
        assert ref.best_return <= feasible_best + 1e-9


def test_constrained_reference_reports_infeasible_when_thresholds_impossible():
    rng = np.random.default_rng(41)
    base = random_cmdp(rng, 2, 2, 2, 1)
    model = make_cmdp(
        kernels=base.kernels,
        rewards=base.rewards,
        terminal_reward=base.terminal_reward,
        initial_distribution=base.initial_distribution,
        constraint_costs=base.constraint_costs,
        terminal_constraint_costs=base.terminal_constraint_costs,
        thresholds=np.array([-1.0]),  # costs are nonnegative, so unattainable
    )
    ref = constrained_reference(model, num_points=11)
    assert not ref.feasible
    assert np.isnan(ref.best_return)


def test_multiplier_shape_errors_are_rejected():
    rng = np.random.default_rng(42)
    model = random_cmdp(rng, 3, 2, 2, 2)
    policy = random_policy(model, rng)
    with pytest.raises(ValueError):
        backward_induction(model, policy, np.zeros(3))
