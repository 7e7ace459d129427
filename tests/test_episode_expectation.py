"""The exact expectation of one training episode, by enumeration.

On a model small enough to list every trajectory with its probability, the
episode step `train` runs (`lockstep`'s `step`) takes one episode on all
trajectories at once: one `TrainerState` per trajectory, stacked as `train`
stacks its seeds, each with its own tables. Their schedules' scales are the
test's steps, so at n = 0 and visit count 0 every step is the test's step.
Summing each row's increments with the trajectories' probabilities gives the
exact expectation of one episode. With the critic at its limit
`fixed_points(model, policy, lam)`:

- the expected TD error is 0 at every (channel, h, s): the limit is the TD
  fixed point of every channel;
- the expected actor increment is the actor step times `exact_gradient`,
  so the actor's step is an unbiased sample of the exact Lagrangian gradient;
- the expected multiplier signal, the beta-weighted w(0, s_0), is the exact
  gap G - alpha of `evaluate_policy`, and the beta-weighted v(0, s_0) is
  J + lam . (G - alpha).

Off the limit, at the limit plus a table e, the expected critic increment at
(c, h, s) is step * d_h(s) * ((P_h e_{h+1})(s) - e_h(s)), with no e_{H+1}
term at h = H, and the expected multiplier increment is -c * beta . w(0, .):
the critics step at visit count 0, and the multipliers follow the critic
held at episode start. Two stacks on different policies and multipliers in
one step each meet their own identities, so no row reads another's tables.
"""

import numpy as np
import pytest

from fhc_ac import (
    StepSizeSchedules,
    TrainerConfig,
    evaluate_policy,
    exact_gradient,
    fixed_points,
    lockstep,
    make_trainer,
    occupation_measures,
)

from helpers import iter_trajectories, random_cmdp, random_policy

CRITIC_STEP, ACTOR_STEP, MULTIPLIER_STEP = 0.3, 0.5, 1e-3
SCHEDULES = StepSizeSchedules(
    critic_scale=CRITIC_STEP, actor_scale=ACTOR_STEP, multiplier_scale=MULTIPLIER_STEP
)


def expected_episodes(model, setups):
    """One `step` at n = 0 over one stack of rows per (policy, lam, critic)
    setup, a row per trajectory of the setup's policy; returns per setup the
    probability-weighted sums of one episode's TD errors and critic
    increments (1+M, H+1, S), actor increments (H, S, A), constraint
    critics' w(0, s_0) (M,), penalized v(0, s_0) and multiplier increments
    (M,)."""
    states, stacks = [], []
    for policy, lam, critic in setups:
        p, paths, actions = (
            np.array(column)
            for column in zip(*iter_trajectories(model, policy.distribution_table()))
        )
        stacks.append((p, paths, actions, slice(len(states), len(states) + len(p)), lam))
        for _ in p:
            config = TrainerConfig(episodes=1, seed=len(states), schedules=SCHEDULES)
            state = make_trainer(model, config)
            state.policy.stage_params[:] = policy.stage_params
            state.critic[:] = critic
            state.multipliers[:] = lam
            states.append(state)
    _, step = lockstep(model, states, 1)
    theta = np.stack([s.policy.stage_params for s in states])
    critic = np.stack([s.critic for s in states])
    drawn = [row for p, paths, actions, *_ in stacks for row in zip(paths, actions)]
    _, _, gaps, lams, clipped, floored = step(drawn, 0)
    assert not clipped.any() and not floored.any()
    critic_steps = np.stack([s.critic for s in states]) - critic
    theta_steps = np.stack([s.policy.stage_params for s in states]) - theta
    expectations = []
    for p, paths, _, rows, lam in stacks:
        increments = np.tensordot(p, critic_steps[rows], 1)
        expectations.append({
            "td_errors": increments / CRITIC_STEP,
            "critic_increment": increments,
            "actor_increment": np.tensordot(p, theta_steps[rows], 1),
            "gap_estimate": p @ gaps[rows],
            "penalized_value": p @ critic[rows, 0, 0][np.arange(len(p)), paths[:, 0]],
            "multiplier_increment": p @ (lams[rows] - lam),
        })
    return expectations


def at_the_limit(num_constraints, policies=1):
    """(model, [(policy, lam, expectations)]) for `random_cmdp` with S=3, A=2,
    H=3 and `num_constraints` constraints: `policies` random policies, each
    with its own multipliers and its critic at their limit, stepped together."""
    M = num_constraints
    rng = np.random.default_rng(70 + M)
    model = random_cmdp(rng, 3, 2, 3, M)
    setups = []
    for _ in range(policies):
        policy = random_policy(model, rng)
        lam = -rng.uniform(0.3, 1.5, size=M)
        setups.append((policy, lam, fixed_points(model, policy, lam)))
    expectations = expected_episodes(model, setups)
    return model, [(policy, lam, e) for (policy, lam, _), e in zip(setups, expectations)]


def assert_zero_td_error(model, expected):
    assert expected["td_errors"].shape == (1 + model.num_constraints, model.horizon + 1, 3)
    assert np.abs(expected["td_errors"]).max() <= 1e-12


def assert_exact_gradient_step(model, policy, lam, expected):
    gradient = exact_gradient(model, policy, lam)
    assert np.abs(gradient).max() > 1e-2  # a flipped or dropped step would show
    assert np.abs(expected["actor_increment"] - ACTOR_STEP * gradient).max() <= 1e-12


def assert_exact_gap(model, policy, lam, expected):
    J, totals = evaluate_policy(model, policy)
    gaps = totals - model.thresholds
    assert np.abs(expected["gap_estimate"] - gaps).max(initial=0.0) <= 1e-12
    assert abs(expected["penalized_value"] - (J + sum(lam * gaps))) <= 1e-12
    # No multiplier reaches a bound, so the expected step is -c (G - alpha).
    step = expected["multiplier_increment"] + MULTIPLIER_STEP * gaps
    assert np.abs(step).max(initial=0.0) <= 1e-12
    if model.num_constraints:
        assert np.abs(lam * gaps).min() > 1e-2  # leaving lam out of v would show


@pytest.mark.parametrize("num_constraints", [0, 1, 2])
def test_the_critics_limit_has_zero_expected_td_error(num_constraints):
    model, [(_, _, expected)] = at_the_limit(num_constraints)
    assert_zero_td_error(model, expected)


@pytest.mark.parametrize("num_constraints", [0, 1, 2])
def test_the_expected_actor_increment_is_the_exact_gradient_step(num_constraints):
    model, [(policy, lam, expected)] = at_the_limit(num_constraints)
    assert_exact_gradient_step(model, policy, lam, expected)


@pytest.mark.parametrize("num_constraints", [0, 1, 2])
def test_the_expected_multiplier_signal_is_the_exact_gap(num_constraints):
    model, [(policy, lam, expected)] = at_the_limit(num_constraints)
    assert_exact_gap(model, policy, lam, expected)


@pytest.mark.parametrize("num_constraints", [0, 1, 2])
def test_seeds_on_different_policies_in_one_step_meet_their_own_identities(num_constraints):
    model, stacks = at_the_limit(num_constraints, policies=2)
    (first, first_lam, _), (second, second_lam, _) = stacks
    assert np.abs(first.stage_params - second.stage_params).max() > 1.0
    assert np.abs(first_lam - second_lam).max(initial=1.0) > 0.1
    for policy, lam, expected in stacks:
        assert_zero_td_error(model, expected)
        assert_exact_gradient_step(model, policy, lam, expected)
        assert_exact_gap(model, policy, lam, expected)


@pytest.mark.parametrize("num_constraints", [0, 1, 2])
def test_off_their_limit_the_critics_step_from_the_tables_held_at_episode_start(num_constraints):
    M = num_constraints
    rng = np.random.default_rng(80 + M)
    model = random_cmdp(rng, 3, 2, 3, M)
    policy = random_policy(model, rng)
    lam = -rng.uniform(0.3, 1.5, size=M)
    offset = rng.normal(size=(1 + M, model.horizon + 1, model.num_states))
    critic = fixed_points(model, policy, lam) + offset
    [expected] = expected_episodes(model, [(policy, lam, critic)])

    d = occupation_measures(model, policy)
    chains = np.einsum("hsa,hsak->hsk", policy.distribution_table(), model.kernels)
    drift = -offset.copy()
    drift[:, :-1] += np.einsum("hsk,chk->chs", chains, offset[:, 1:])
    want = CRITIC_STEP * d * drift
    assert np.abs(want).max() > 1e-2
    assert np.abs(expected["critic_increment"] - want).max() <= 1e-12
    # The multipliers follow w(0, s_0) as held before the critics' step.
    held = model.initial_distribution @ critic[1:, 0].T
    assert np.abs(expected["gap_estimate"] - held).max(initial=0.0) <= 1e-12
    step = expected["multiplier_increment"] + MULTIPLIER_STEP * held
    assert np.abs(step).max(initial=0.0) <= 1e-12
