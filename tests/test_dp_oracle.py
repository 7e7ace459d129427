"""Exact solver against brute-force trajectory and policy enumeration."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fhc_ac import (
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
    tabular_policy,
)
from fhc_ac import dp_oracle
from fhc_ac.experiment_cli import load_any_model

from helpers import (
    brute_deterministic_value,
    brute_occupation,
    brute_policy_value,
    brute_state_values,
    gradient_without_baseline,
    iter_deterministic_policies,
    occupation_lp,
    random_cmdp,
    random_policy,
    reference_finite_difference_gradient,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
                expected = [math.fsum(p * model.costs[c, h, s, a]) for c in range(1 + M)]
                assert costs[:, h, s, a] == pytest.approx(expected, rel=1e-14, abs=1e-15)
    terminal = model.channel_terminal
    assert terminal.shape == (1 + M, S)
    assert np.array_equal(terminal[0], model.terminal_costs[0])
    for k in range(M):
        assert np.array_equal(
            terminal[1 + k], model.terminal_costs[1 + k] - model.thresholds[k]
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


@pytest.mark.parametrize("temperature", [0.5, 2.0])
@pytest.mark.parametrize("num_constraints", [0, 1, 2])
def test_batched_finite_differences_match_the_per_probe_loop(num_constraints, temperature):
    rng = np.random.default_rng(30 + 10 * num_constraints + int(2 * temperature))
    model = random_cmdp(rng, 4, 3, 4, num_constraints)
    # The same model with state 3 cut off: no initial mass, no transitions in.
    kernels = model.kernels.copy()
    kernels[..., 3] = 0.0
    kernels /= kernels.sum(axis=-1, keepdims=True)
    beta = model.initial_distribution.copy()
    beta[3] = 0.0
    cut = dataclasses.replace(model, kernels=kernels, initial_distribution=beta / beta.sum())
    for instance in (model, cut):
        policy = random_policy(instance, rng, temperature=temperature, param_bound=2.0)
        policy.stage_params[:, 3] = rng.uniform(-1.0, 1.0, size=(4, 3))
        # A row on the box: its probes step outside it and are not projected.
        policy.stage_params[1, 0] = [2.0, -2.0, 2.0]
        before = policy.stage_params.copy()
        lam = -rng.uniform(0.0, 3.0, size=num_constraints)
        batched = finite_difference_gradient(instance, policy, lam)
        assert np.array_equal(policy.stage_params, before)
        reference = reference_finite_difference_gradient(instance, policy, lam)
        assert np.abs(batched - reference).max() <= 1e-7
    assert np.all(batched[:, 3] == 0.0) and np.any(batched[:, :3] != 0.0)


def test_gradient_baseline_does_not_change_anything():
    rng = np.random.default_rng(21)
    model = random_cmdp(rng, 4, 3, 3, 2)
    policy = random_policy(model, rng)
    lam = np.array([-1.0, -0.3])
    with_baseline = exact_gradient(model, policy, lam)
    without = gradient_without_baseline(model, policy, lam)
    assert max(np.abs(a - b).max() for a, b in zip(with_baseline, without)) < 1e-12


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


@pytest.mark.parametrize("num_constraints", [0, 1, 2, 3])
def test_penalize_returns_a_fresh_array_that_greedy_response_may_add_into(num_constraints):
    rng = np.random.default_rng(50 + num_constraints)
    model = random_cmdp(rng, 3, 2, 4, num_constraints)
    lam = -rng.uniform(0.0, 2.0, size=num_constraints)
    costs, terminal = model.channel_costs.copy(), model.channel_terminal.copy()
    for channels in (model.channel_costs, model.channel_terminal):
        out = dp_oracle.penalize(channels, lam)
        assert out.shape == channels.shape[1:]
        assert not np.shares_memory(out, channels)
        if num_constraints == 1:
            # one channel: the bits of the tensordot (BLAS) form
            assert out.tobytes() == (channels[0] + np.tensordot(lam, channels[1:], axes=1)).tobytes()
    greedy_response(model, lam)
    assert np.array_equal(model.channel_costs, costs)
    assert np.array_equal(model.channel_terminal, terminal)


def calibrated_cmdp(seed, num_constraints, num_states=3, num_actions=2, horizon=3):
    """A random CMDP whose thresholds are 0.9 to 1.02 times the reward-greedy
    policy's costs, so most constraints bind, some hold slack and some draws
    are infeasible."""
    rng = np.random.default_rng(seed)
    model = random_cmdp(rng, num_states, num_actions, horizon, num_constraints)
    _, free = evaluate_deterministic(model, greedy_response(model, np.zeros(num_constraints)))
    return dataclasses.replace(
        model, thresholds=free * rng.uniform(0.9, 1.02, size=num_constraints)
    )


def mixture_totals(model, ref):
    """The reference mixture's J and costs, evaluated policy by policy."""
    evaluated = [evaluate_deterministic(model, actions) for actions in ref.policies]
    return (
        math.fsum(w * j for w, (j, _) in zip(ref.weights, evaluated)),
        sum(w * totals for w, (_, totals) in zip(ref.weights, evaluated)),
    )


def best_feasible_deterministic(model):
    return max(
        (
            j
            for actions in iter_deterministic_policies(model)
            for j, totals in [evaluate_deterministic(model, actions)]
            if np.all(totals <= model.thresholds + 1e-9)
        ),
        default=-np.inf,
    )


def assert_matches_the_occupation_lp(model, ref, penalty_floor=-100.0):
    lp = occupation_lp(model)
    if lp is None or np.any(lp[1] < penalty_floor):
        assert not ref.feasible
        return
    j_star, prices = lp
    assert ref.feasible
    assert abs(ref.best_return - j_star) <= 1e-9 * max(1.0, abs(j_star))
    assert np.all(np.abs(ref.best_multipliers - prices) <= 1e-9 * np.maximum(1.0, np.abs(prices)))


def test_constrained_reference_finds_best_feasible_greedy_policy():
    # On this instance the constraint cuts off the unconstrained optimum; the
    # exact optimum is the occupation LP's, and no feasible deterministic
    # policy beats it.
    rng = np.random.default_rng(9)
    model = random_cmdp(rng, 2, 2, 2, 1)
    any_infeasible = any(
        np.any(evaluate_deterministic(model, actions)[1] > model.thresholds + 1e-9)
        for actions in iter_deterministic_policies(model)
    )
    assert any_infeasible, "constraint should exclude at least one policy"
    ref = constrained_reference(model, penalty_floor=-50.0)
    assert ref.feasible
    assert_matches_the_occupation_lp(model, ref, penalty_floor=-50.0)
    assert ref.best_return >= best_feasible_deterministic(model) - 1e-9
    assert ref.unconstrained_return >= ref.best_return - 1e-12


def test_constrained_reference_mixture_is_feasible_and_above_enumeration():
    # The mixture's own evaluation reproduces the reported return and costs,
    # meets the threshold, and is at least the best feasible deterministic
    # policy, which the optimum may beat by randomizing.
    for seed in (31, 35, 52):
        rng = np.random.default_rng(seed)
        model = random_cmdp(rng, 2, 2, 2, 1)
        ref = constrained_reference(model, penalty_floor=-50.0)
        assert ref.feasible
        j, totals = mixture_totals(model, ref)
        assert j == pytest.approx(ref.best_return, abs=1e-12)
        assert totals == pytest.approx(ref.best_costs, abs=1e-12)
        assert np.all(totals <= model.thresholds + 1e-9)
        assert ref.best_return >= best_feasible_deterministic(model) - 1e-9


def test_constrained_reference_reports_infeasible_when_thresholds_impossible():
    rng = np.random.default_rng(41)
    base = random_cmdp(rng, 2, 2, 2, 1)
    model = make_cmdp(
        kernels=base.kernels,
        costs=base.costs,
        terminal_costs=base.terminal_costs,
        thresholds=np.array([-1.0]),  # costs are nonnegative, so unattainable
        initial_distribution=base.initial_distribution,
    )
    assert occupation_lp(model) is None
    ref = constrained_reference(model)
    assert not ref.feasible
    assert np.isnan(ref.best_return)
    assert ref.weights.size == 0 and ref.policies.shape[0] == 0


@pytest.mark.parametrize("num_constraints", [0, 1, 2, 3])
def test_constrained_reference_matches_the_occupation_lp(num_constraints):
    binding = 0
    for seed in range(12):
        model = calibrated_cmdp(seed, num_constraints)
        ref = constrained_reference(model)
        assert_matches_the_occupation_lp(model, ref)
        binding += bool(ref.feasible and np.any(ref.best_multipliers < 0))
    assert binding >= (6 if num_constraints else 0)  # at least half the draws bind


@pytest.mark.parametrize(
    "config",
    ["gridworld_4x4.json", pytest.param("gridworld_5x5_h100.json", marks=pytest.mark.slow)],
)
def test_constrained_reference_matches_the_occupation_lp_on_the_shipped_worlds(config):
    model = load_any_model(CONFIGS / config)
    ref = constrained_reference(model)
    assert ref.feasible and np.all(ref.best_multipliers < 0)
    assert_matches_the_occupation_lp(model, ref)
    assert ref.best_costs == pytest.approx(model.thresholds, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_constraints=st.integers(0, 3),
    num_states=st.integers(2, 3),
)
def test_constrained_reference_mixture_properties(seed, num_constraints, num_states):
    model = calibrated_cmdp(seed, num_constraints, num_states, 2, 2)
    ref = constrained_reference(model)
    if not ref.feasible:
        lp = occupation_lp(model)
        assert lp is None or np.any(lp[1] < -100.0)
        return
    deterministic = best_feasible_deterministic(model)
    assert deterministic - 1e-9 <= ref.best_return <= ref.unconstrained_return + 1e-9
    assert ref.weights.size == ref.policies.shape[0] <= num_constraints + 1
    assert np.all(ref.weights >= 0) and math.fsum(ref.weights) == pytest.approx(1.0, abs=1e-12)
    assert np.all((ref.best_multipliers <= 0) & (ref.best_multipliers >= -100.0))
    j, totals = mixture_totals(model, ref)
    assert j == pytest.approx(ref.best_return, abs=1e-9)
    assert np.all(totals <= model.thresholds + 1e-9)


def test_multiplier_shape_errors_are_rejected():
    rng = np.random.default_rng(42)
    model = random_cmdp(rng, 3, 2, 2, 2)
    policy = random_policy(model, rng)
    with pytest.raises(ValueError):
        backward_induction(model, policy, np.zeros(3))


def test_one_multiplier_is_not_copied_to_two_constraints():
    rng = np.random.default_rng(43)
    model = random_cmdp(rng, 3, 2, 2, 2)
    policy = random_policy(model, rng)
    with pytest.raises(ValueError, match="expected 2 multipliers"):
        exact_gradient(model, policy, np.array([-1.0]))
    with pytest.raises(ValueError, match="expected 2 multipliers"):
        greedy_response(model, -1.0)
