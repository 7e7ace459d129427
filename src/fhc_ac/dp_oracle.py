"""Exact dynamic-programming tools for finite-horizon constrained MDPs.

Everything here works on the model's cached channel tables: channel 0 is the
reward, channel k the k-th constraint cost. The penalized objective is linear
in the channels, so one backward recursion evaluates a fixed policy for all of
them at once and every penalized quantity is the combination r + lam . g of
its channel values. On top of it sit stage occupation measures, exact and
finite-difference policy gradients of the penalized objective, and a
multiplier-sweep reference solution for the constrained problem.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .mdp_model import FiniteHorizonCMDP, reachable_sets
from .policy import NonStationaryPolicy


def _coerce_multipliers(model: FiniteHorizonCMDP, multipliers) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(multipliers, dtype=float))
    if lam.shape == (1,) and model.num_constraints != 1:
        lam = np.full(model.num_constraints, lam[0])
    if lam.shape != (model.num_constraints,):
        raise ValueError(
            f"expected {model.num_constraints} multipliers, got shape {lam.shape}"
        )
    return lam


def _penalize(channels: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The penalized combination r + sum_k lam_k g_k of a channel stack (1+M, ...)."""
    return channels[0] + np.tensordot(lam, channels[1:], axes=1)


def _distribution_matrices(model: FiniteHorizonCMDP, policy: NonStationaryPolicy) -> np.ndarray:
    """Every stage's action distributions, shape (H, S, A)."""
    shape = (model.horizon, model.num_states, model.num_actions)
    if policy.stage_params.shape != shape:
        raise ValueError(
            f"policy table shape {policy.stage_params.shape} does not match the model {shape}"
        )
    return policy.distribution_table()


def _channel_values(model: FiniteHorizonCMDP, mus: np.ndarray):
    """Evaluate every channel under the stage distributions `mus` (H, S, A).

    Q_h = c_h + P_h V_{h+1} and V_h(s) = sum_a mu_h(a|s) Q_h(s, a), starting
    from the terminal table. Returns the state values (1+M, H+1, S) and the
    action values (1+M, H, S, A); constraint channels hold the gaps S_k - alpha_k.
    """
    costs = model.channel_costs
    C, H, S, A = costs.shape
    kernels = model.kernels.reshape(H, S * A, S)
    values = np.empty((C, H + 1, S))
    action_values = np.empty((C, H, S, A))
    values[:, H] = model.channel_terminal
    for h in range(H - 1, -1, -1):
        q = costs[:, h] + (values[:, h + 1] @ kernels[h].T).reshape(C, S, A)
        action_values[:, h] = q
        values[:, h] = np.einsum("ij,cij->ci", mus[h], q)
    return values, action_values


def _totals(model: FiniteHorizonCMDP, values: np.ndarray):
    """Expected return and constraint totals (M,) from the channel values."""
    starts = values[:, 0] @ model.initial_distribution
    return float(starts[0]), starts[1:] + model.thresholds


def _gibbs_gradient(
    model: FiniteHorizonCMDP, policy: NonStationaryPolicy, targets: np.ndarray
) -> np.ndarray:
    """sum_s d_h(s) sum_a mu_h(a|s) psi_h(s,a) t_h(s,a) in closed form, shape (H, S, A).

    With psi_h(s,a) = (e_a - mu_h(s,.)) / tau on row (h, s) of the table, the
    entry (h, s, a) is d_h(s) mu_h(a|s) (t_h(s,a) - sum_b mu_h(b|s) t_h(s,b)) / tau.
    """
    mus = _distribution_matrices(model, policy)
    d = occupation_measures(model, policy)[:-1, :, None]
    centered = targets - np.sum(mus * targets, axis=2, keepdims=True)
    return d * mus * centered / policy.temperature


@dataclass(frozen=True)
class ExactSolution:
    """Backward-induction evaluation of a fixed policy at fixed multipliers.

    `values` are the penalized state values (the quantity the linear critics
    estimate); `constraint_values` stack one value function per constraint,
    whose terminal layer already subtracts the threshold.
    """

    multipliers: np.ndarray        # (M,)
    values: np.ndarray             # (H+1, S)
    action_values: np.ndarray      # (H, S, A)
    constraint_values: np.ndarray  # (M, H+1, S)
    lagrangian: float              # beta . values[0]
    expected_return: float         # expected undiscounted sum of rewards
    constraint_totals: np.ndarray  # (M,) expected sums of constraint costs


def backward_induction(
    model: FiniteHorizonCMDP, policy: NonStationaryPolicy, multipliers=()
) -> ExactSolution:
    """Evaluate `policy` exactly: penalized values plus per-constraint values."""
    lam = _coerce_multipliers(model, multipliers)
    values, action_values = _channel_values(model, _distribution_matrices(model, policy))
    penalized = _penalize(values, lam)
    expected_return, totals = _totals(model, values)
    return ExactSolution(
        multipliers=lam,
        values=penalized,
        action_values=_penalize(action_values, lam),
        constraint_values=values[1:],
        lagrangian=float(model.initial_distribution @ penalized[0]),
        expected_return=expected_return,
        constraint_totals=totals,
    )


def lagrangian_value(model: FiniteHorizonCMDP, policy: NonStationaryPolicy, multipliers=()) -> float:
    """beta-weighted penalized value of the policy."""
    return backward_induction(model, policy, multipliers).lagrangian


def evaluate_policy(model: FiniteHorizonCMDP, policy: NonStationaryPolicy):
    """Expected total reward J and expected total constraint costs (M,)."""
    solution = backward_induction(model, policy, np.zeros(model.num_constraints))
    return solution.expected_return, solution.constraint_totals


def occupation_measures(model: FiniteHorizonCMDP, policy: NonStationaryPolicy) -> np.ndarray:
    """Stage state distributions d_h under the policy, shape (H+1, S).

    d_0 is the initial distribution and d_{h+1} = d_h P_h^mu; every row sums
    to one because the kernels are stochastic.
    """
    mus = _distribution_matrices(model, policy)
    d = np.zeros((model.horizon + 1, model.num_states))
    d[0] = model.initial_distribution
    for h in range(model.horizon):
        step = np.einsum("ij,ijk->ik", mus[h], model.kernels[h])
        d[h + 1] = d[h] @ step
    return d


def exact_gradient(
    model: FiniteHorizonCMDP,
    policy: NonStationaryPolicy,
    multipliers=(),
    use_baseline: bool = True,
):
    """Per-stage policy gradient of the penalized objective, shape (H, S, A).

    Stage h gets sum_s d_h(s) sum_a mu(a|s) psi_h(s,a) [Q_h(s,a) - baseline],
    with the state value as baseline when `use_baseline` is set. The baseline
    never changes the sum because the scores average to zero under mu.
    """
    solution = backward_induction(model, policy, multipliers)
    targets = solution.action_values
    if use_baseline:
        targets = targets - solution.values[:-1, :, None]
    return _gibbs_gradient(model, policy, targets)


def finite_difference_gradient(
    model: FiniteHorizonCMDP,
    policy: NonStationaryPolicy,
    multipliers=(),
    epsilon: float = 1e-5,
):
    """Central-difference gradient of the penalized objective, shape (H, S, A).

    Only rows of reachable states are probed; the objective does not depend on
    the others, whose entries are exactly 0.
    """
    probe = policy.copy()
    theta = probe.stage_params
    grads = np.zeros_like(theta)
    for h, states in enumerate(reachable_sets(model)[: model.horizon]):
        for s in states:
            for a in range(model.num_actions):
                base = theta[h, s, a]
                theta[h, s, a] = base + epsilon
                up = lagrangian_value(model, probe, multipliers)
                theta[h, s, a] = base - epsilon
                down = lagrangian_value(model, probe, multipliers)
                theta[h, s, a] = base
                grads[h, s, a] = (up - down) / (2.0 * epsilon)
    return grads


def approximate_gradient(
    model: FiniteHorizonCMDP,
    policy: NonStationaryPolicy,
    multipliers=(),
    basis=None,
):
    """Gradient surrogate built from the linear critics' limiting weights.

    Replaces the exact future values in the gradient by the projected values
    Lambda_h' phi_h; with a full per-stage basis this reproduces the exact
    baselined gradient.
    """
    from .critic import fixed_points

    if basis is None:
        raise ValueError("a stage feature basis is required")
    lam = _coerce_multipliers(model, multipliers)
    weights = fixed_points(model, policy, lam, basis).penalized
    vhat = np.array([basis.feature_matrix(h) @ w for h, w in enumerate(weights)])
    targets = (
        _penalize(model.channel_costs, lam)
        + np.einsum("hijk,hk->hij", model.kernels, vhat[1:])
        - vhat[:-1, :, None]
    )
    return _gibbs_gradient(model, policy, targets)


def greedy_response(model: FiniteHorizonCMDP, multipliers=()) -> np.ndarray:
    """Deterministic stage policy maximizing the penalized objective, (H, S).

    q is built on the optimal values, and each (h, s) takes the lowest action
    index whose q lies within 1e-12 * max(1, |row max|) of the row max, so
    tied actions do not depend on the summation order of q.
    """
    lam = _coerce_multipliers(model, multipliers)
    q = _penalize(model.channel_costs, lam)
    v = _penalize(model.channel_terminal, lam)
    for h in range(model.horizon - 1, -1, -1):
        q[h] += model.kernels[h] @ v
        v = q[h].max(axis=1)
    best = q.max(axis=2, keepdims=True)
    return np.argmax(q >= best - 1e-12 * np.maximum(1.0, np.abs(best)), axis=2)


def evaluate_deterministic(model: FiniteHorizonCMDP, actions: np.ndarray):
    """Exact J and constraint totals of a deterministic stage policy (H, S)."""
    actions = np.asarray(actions, dtype=np.int64)
    if actions.shape != (model.horizon, model.num_states):
        raise ValueError("actions must have shape (H, S)")
    one_hot = np.zeros(actions.shape + (model.num_actions,))
    np.put_along_axis(one_hot, actions[..., None], 1.0, axis=-1)
    return _totals(model, _channel_values(model, one_hot)[0])


@dataclass(frozen=True)
class SweepPoint:
    multipliers: np.ndarray
    expected_return: float
    constraint_totals: np.ndarray
    feasible: bool


@dataclass(frozen=True)
class ReferenceSolution:
    """Best feasible deterministic greedy policy found on a multiplier grid."""

    best_return: float
    best_multipliers: np.ndarray
    best_costs: np.ndarray         # (M,) constraint totals of the best policy
    best_actions: np.ndarray
    feasible: bool
    unconstrained: SweepPoint
    sweep: list[SweepPoint] = field(repr=False)
    monotone_costs: bool = True


def constrained_reference(
    model: FiniteHorizonCMDP,
    penalty_floor: float = -100.0,
    num_points: int = 101,
    slack: float = 1e-9,
) -> ReferenceSolution:
    """Reference value for the constrained problem via a multiplier sweep.

    Solves the greedy penalized problem on a grid of multipliers in
    [penalty_floor, 0]^M, evaluates each greedy policy exactly, and keeps the
    best feasible return. Cost monotonicity along each axis is reported as a
    diagnostic only; ties in the greedy argmax can break it locally. Raises
    ValueError for a floor that is not finite and negative, fewer than two
    points per axis, or a grid of more than 200,000 points.
    """
    M = model.num_constraints
    if not (math.isfinite(penalty_floor) and penalty_floor < 0):
        raise ValueError("penalty_floor must be finite and negative")
    if num_points < 2:
        raise ValueError("num_points must be at least 2 so the grid spans [penalty_floor, 0]")
    if M > 0 and num_points ** M > 200_000:
        raise ValueError("multiplier grid too large; reduce num_points")
    axis = np.linspace(penalty_floor, 0.0, num_points)
    grid = [np.zeros(0)] if M == 0 else [np.array(c) for c in itertools.product(axis, repeat=M)]

    sweep = []
    best = None
    best_actions = np.zeros((model.horizon, model.num_states), dtype=np.int64)
    for lam in grid:
        actions = greedy_response(model, lam)
        j, totals = evaluate_deterministic(model, actions)
        point = SweepPoint(lam, j, totals, bool(np.all(totals <= model.thresholds + slack)))
        sweep.append(point)
        if point.feasible and (best is None or j > best.expected_return):
            best = point
            best_actions = actions

    monotone = True
    if M == 1 and len(sweep) > 1:
        costs = np.array([p.constraint_totals[0] for p in sweep])
        monotone = bool(np.all(np.diff(costs) >= -1e-9))

    if best is None:
        best = SweepPoint(np.full(M, np.nan), float("nan"), np.full(M, np.nan), False)
    return ReferenceSolution(
        best_return=best.expected_return,
        best_multipliers=best.multipliers,
        best_costs=best.constraint_totals,
        best_actions=best_actions,
        feasible=best.feasible,
        unconstrained=sweep[-1],  # the grid's last point is lam = 0
        sweep=sweep,
        monotone_costs=monotone,
    )
