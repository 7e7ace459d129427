"""The exact expectation of one training episode, by enumeration.

On a model small enough to list every trajectory with its probability, the
kernels `train` runs each episode (`dp_oracle.penalize`, `td_step`,
`score_rows`, `actor_step` and `multiplier_update`) run on all trajectories
at once, one trajectory per row as `train` stacks its seeds, each row on its
own copy of the tables. Summing their results with the trajectories'
probabilities gives the exact expectation of one episode. With the critic
at its limit `fixed_points(model, policy, lam)`:

- the expected TD error is 0 at every (channel, h, s): the limit is the TD
  fixed point of every channel;
- the expected actor increment is the actor step times `exact_gradient`,
  so the actor's step is an unbiased sample of the exact Lagrangian gradient;
- the expected multiplier signal, the beta-weighted w(0, s_0), is the exact
  gap G - alpha of `evaluate_policy`, and the beta-weighted v(0, s_0) is
  J + lam . (G - alpha).
"""

import numpy as np
import pytest

from fhc_ac import (
    TrainerConfig,
    evaluate_policy,
    exact_gradient,
    fixed_points,
    multiplier_update,
)
from fhc_ac.dp_oracle import penalize
from fhc_ac.policy import score_rows
from fhc_ac.trainer import actor_step, td_step

from helpers import iter_trajectories, random_cmdp, random_policy

CRITIC_STEP, ACTOR_STEP, MULTIPLIER_STEP = 0.3, 0.5, 1e-3


def expected_episode(num_constraints):
    """(model, policy, lam, expectations) for `random_cmdp` with S=3, A=2, H=3
    and `num_constraints` constraints, with the critic at its limit; the
    expectations are the probability-weighted sums of one episode's TD
    errors (1+M, H+1, S), actor increments (H, S, A), constraint critics'
    w(0, s_0) (M,), penalized v(0, s_0) and multiplier increments (M,)."""
    M = num_constraints
    rng = np.random.default_rng(70 + M)
    model = random_cmdp(rng, 3, 2, 3, M)
    policy = random_policy(model, rng)
    lam = -rng.uniform(0.3, 1.5, size=M)
    H, S, A, C = model.horizon, model.num_states, model.num_actions, 1 + M
    p, states, actions = (
        np.array(column) for column in zip(*iter_trajectories(model, policy.distribution_table()))
    )
    T, stages = len(p), np.arange(H)

    # One critic, theta and distribution table per trajectory, stacked as
    # `train` stacks its seeds, with the ids `train` gives their entries.
    critic = np.repeat(fixed_points(model, policy, lam)[None], T, axis=0)
    critic_flat = critic.reshape(-1)
    ids = states[:, None] + np.arange(T * C).reshape(T, C, 1) * ((H + 1) * S) + np.arange(H + 1) * S
    theta = np.repeat(policy.stage_params[None], T, axis=0)
    table = np.repeat(policy.distribution_table()[None], T, axis=0)
    theta_rows, table_rows = theta.reshape(-1, A), table.reshape(-1, A)
    moved = states[:, :-1] + np.arange(T)[:, None] * (H * S) + stages * S

    realized = model.costs[:, stages, states[:, :-1], actions, states[:, 1:]]  # (1+M, T, H)
    terminal = model.channel_terminal[:, states[:, -1], None]
    channels = np.concatenate([realized, terminal], axis=2)  # (1+M, T, H+1)
    costs = np.concatenate([penalize(channels, lam)[None], channels[1:]]).transpose(1, 0, 2)
    starts = critic_flat[ids[:, :, 0]]  # v and w at (0, s_0), read before the step moves them
    deltas = td_step(critic_flat, ids, costs, CRITIC_STEP)
    score = score_rows(
        table_rows.take(moved, axis=0), np.arange(T * H).reshape(T, H) * A + actions,
        policy.temperature,
    )
    before = theta_rows.take(moved, axis=0)
    proposed, clipped = actor_step(
        theta_rows, moved, score, deltas[:, 0, :-1], ACTOR_STEP, policy.param_bound
    )
    assert not clipped.any()
    config = TrainerConfig(episodes=1)
    stepped = np.array(
        [multiplier_update(lam, gap, MULTIPLIER_STEP, config)[0] for gap in starts[:, 1:]]
    ).reshape(T, M)

    td_errors = np.zeros((C, H + 1, S))
    np.add.at(
        td_errors, (np.arange(C)[:, None], np.arange(H + 1), states[:, None]),
        p[:, None, None] * deltas,
    )
    increments = np.zeros((H, S, A))
    np.add.at(increments, (stages, states[:, :-1]), p[:, None, None] * (proposed - before))
    expectations = {
        "td_errors": td_errors,
        "actor_increment": increments,
        "gap_estimate": p @ starts[:, 1:],
        "penalized_value": p @ starts[:, 0],
        "multiplier_increment": p @ (stepped - lam),
    }
    return model, policy, lam, expectations


@pytest.mark.parametrize("num_constraints", [0, 1, 2])
def test_the_critics_limit_has_zero_expected_td_error(num_constraints):
    model, _, _, expected = expected_episode(num_constraints)
    assert expected["td_errors"].shape == (1 + num_constraints, model.horizon + 1, 3)
    assert np.abs(expected["td_errors"]).max() <= 1e-12


@pytest.mark.parametrize("num_constraints", [0, 1, 2])
def test_the_expected_actor_increment_is_the_exact_gradient_step(num_constraints):
    model, policy, lam, expected = expected_episode(num_constraints)
    gradient = exact_gradient(model, policy, lam)
    assert np.abs(gradient).max() > 1e-2  # a flipped or dropped step would show
    assert np.abs(expected["actor_increment"] - ACTOR_STEP * gradient).max() <= 1e-12


@pytest.mark.parametrize("num_constraints", [0, 1, 2])
def test_the_expected_multiplier_signal_is_the_exact_gap(num_constraints):
    model, policy, lam, expected = expected_episode(num_constraints)
    J, totals = evaluate_policy(model, policy)
    gaps = totals - model.thresholds
    assert np.abs(expected["gap_estimate"] - gaps).max(initial=0.0) <= 1e-12
    assert abs(expected["penalized_value"] - (J + sum(lam * gaps))) <= 1e-12
    # No multiplier reaches a bound, so the expected step is -c (G - alpha).
    step = expected["multiplier_increment"] + MULTIPLIER_STEP * gaps
    assert np.abs(step).max(initial=0.0) <= 1e-12
    if num_constraints:
        assert np.abs(lam * gaps).min() > 1e-2  # leaving lam out of v would show
