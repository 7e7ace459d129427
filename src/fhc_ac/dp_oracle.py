"""Exact dynamic-programming tools for finite-horizon constrained MDPs.

Everything here works on the model's cached channel tables: channel 0 is the
reward, channel k the k-th constraint cost. The penalized objective is linear
in the channels, so one backward recursion evaluates a fixed policy for all of
them at once and every penalized quantity is `penalize`'s r + lam . g of its
channel values. That pass, `backward_induction`, keeps the table it read,
so occupation measures and exact and finite-difference gradients need no
second one. The exact constrained optimum comes by cutting planes on the dual.

`fixed_points` gives the limit of the tabular TD critics in their own
(1+M, H+1, S) layout. The critics converge to the projected TD fixed point;
with one table entry per reachable state the projection is the identity, so
that limit is the exact value table, here evaluated along the policy's chain
instead of through action values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp_model import FiniteHorizonCMDP, reachable_sets
from .policy import NonStationaryPolicy, gibbs

PENALTY_FLOOR = -100.0  # default lower end of every multiplier's range [floor, 0]


def _coerce_multipliers(model: FiniteHorizonCMDP, multipliers) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(multipliers, dtype=float))
    if lam.shape != (model.num_constraints,):
        raise ValueError(
            f"expected {model.num_constraints} multipliers, got shape {lam.shape}"
        )
    return lam


def penalize(channels: np.ndarray, lam) -> np.ndarray:
    """r + lam_1 g_1 + ... + lam_M g_M of a channel stack (1+M, ...), added in
    that order into a fresh array (callers add into it); each lam[k] is a
    number or an array that broadcasts against a channel, such as a (K, 1)
    column of one multiplier per seed. The package's one r + lam . g, for the
    oracle and training: elementwise, so no BLAS kernel sets its last bits
    and no multi-threaded gemv waits for a sleeping helper thread.
    """
    out = channels[0].copy()
    for k in range(len(lam)):
        out += lam[k] * channels[1 + k]
    return out


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


@dataclass(frozen=True)
class ExactSolution:
    """Backward-induction evaluation of a fixed policy at fixed multipliers.

    `values` are the penalized state values (the quantity the critics
    estimate); `constraint_values` stack one value function per constraint,
    whose terminal layer already subtracts the threshold.
    """

    distributions: np.ndarray      # (H, S, A) the policy's mu the values are computed from
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
    mus = _distribution_matrices(model, policy)
    values, action_values = _channel_values(model, mus)
    penalized = penalize(values, lam)
    expected_return, totals = _totals(model, values)
    return ExactSolution(
        distributions=mus,
        values=penalized,
        action_values=penalize(action_values, lam),
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


def _occupation(model: FiniteHorizonCMDP, mus: np.ndarray) -> np.ndarray:
    """Stage state distributions d_h under the stage tables `mus`, (H+1, S).

    d_0 is the initial distribution and d_{h+1} = d_h P_h^mu; every row sums
    to one because the kernels are stochastic.
    """
    d = np.zeros((model.horizon + 1, model.num_states))
    d[0] = model.initial_distribution
    for h in range(model.horizon):
        step = np.einsum("ij,ijk->ik", mus[h], model.kernels[h])
        d[h + 1] = d[h] @ step
    return d


def occupation_measures(model: FiniteHorizonCMDP, policy: NonStationaryPolicy) -> np.ndarray:
    """Stage state distributions d_h under the policy, shape (H+1, S)."""
    return _occupation(model, _distribution_matrices(model, policy))


def _gradient(model: FiniteHorizonCMDP, solution: ExactSolution, temperature: float):
    """`exact_gradient` from one evaluation: with t = Q_h - V_h, entry (h, s, a) is
    d_h(s) mu_h(a|s) (t_h(s,a) - sum_b mu_h(b|s) t_h(s,b)) / tau in closed form."""
    mus = solution.distributions
    d = _occupation(model, mus)[:-1, :, None]
    targets = solution.action_values - solution.values[:-1, :, None]
    centered = targets - np.sum(mus * targets, axis=2, keepdims=True)
    return d * mus * centered / temperature


def exact_gradient(model: FiniteHorizonCMDP, policy: NonStationaryPolicy, multipliers=()):
    """Per-stage policy gradient of the penalized objective, shape (H, S, A).

    Stage h gets sum_s d_h(s) sum_a mu(a|s) psi_h(s,a) [Q_h(s,a) - V_h(s)].
    Subtracting the state value V_h cannot change the sum, since the scores
    average to zero under mu, so it is not optional. It is kept rather than
    dropped because it sets the last bits of every entry, and the
    stationarity reports of runs are computed from these bits.
    """
    return _gradient(model, backward_induction(model, policy, multipliers), policy.temperature)


FD_STEP = 1e-5


def finite_difference_gradient(
    model: FiniteHorizonCMDP, policy: NonStationaryPolicy, multipliers=()
):
    """Central-difference gradient of the penalized objective with step
    FD_STEP, shape (H, S, A).

    Each entry is (L(theta + FD_STEP e) - L(theta - FD_STEP e)) / (2 FD_STEP)
    for the whole objective L. Moving theta[h, s, a] changes only the row
    mu_h(s, .), so a probe's values at stages after h are the policy's own,
    and its V_h differs from the policy's only at s, where it is
    mu'(.|s) . Q_h(s, .). The 2 |S_h| A probes of stage h then step down to
    stage 0 together as one (B, S) batch on the policy's chain,
    v <- c^mu_t + v P^mu_t^T, and meet the initial distribution. Only rows
    of reachable states are probed; the objective does not depend on the
    others, whose entries are exactly 0.
    """
    lam = _coerce_multipliers(model, multipliers)
    solution = backward_induction(model, policy, lam)
    mus, values, action_values = solution.distributions, solution.values, solution.action_values
    chain_costs = np.sum(mus * penalize(model.channel_costs, lam), axis=2)
    chains = np.einsum("hsa,hsak->hsk", mus, model.kernels)
    A = model.num_actions
    steps = np.concatenate([np.eye(A), -np.eye(A)]) * FD_STEP
    grads = np.zeros_like(mus)
    for h, states in enumerate(reachable_sets(model)[: model.horizon]):
        rows = policy.stage_params[h, states][:, None, :] + steps
        probes = np.einsum(
            "rpa,ra->rp", gibbs(rows / policy.temperature), action_values[h, states]
        ).ravel()
        v = np.repeat(values[h][None], len(probes), axis=0)
        v[np.arange(len(probes)), np.repeat(states, 2 * A)] = probes
        for t in range(h - 1, -1, -1):
            v = chain_costs[t] + v @ chains[t].T
        objective = (v @ model.initial_distribution).reshape(len(states), 2, A)
        grads[h, states] = (objective[:, 0] - objective[:, 1]) / (2.0 * FD_STEP)
    return grads


@dataclass(frozen=True)
class StationarityReport:
    """How far the current iterates are from the coupled fixed-point conditions.

    Gradient entries are projected onto the parameter box: coordinates sitting
    at a bound only count movement into the feasible side. Multiplier drifts
    apply the matching one-sided rule at the clamp bounds to the exact
    constraint gaps.
    """

    stage_gradient_norms: np.ndarray       # (H,) raw exact gradient norms
    projected_gradient_norms: np.ndarray   # (H,) after the box projection
    max_projected_gradient_norm: float
    multiplier_drifts: np.ndarray          # (M,) projected drift of each multiplier
    max_multiplier_drift: float
    theta_bound_active: int                # actor coordinates at the box edge
    multiplier_bound_active: int           # multipliers at the floor or at zero
    expected_return: float
    constraint_totals: np.ndarray
    multipliers: np.ndarray                # non-positive internal convention


def stationarity_diagnostics(
    model: FiniteHorizonCMDP,
    policy: NonStationaryPolicy,
    multipliers,
    penalty_floor: float = PENALTY_FLOOR,
) -> StationarityReport:
    """Stationarity and multiplier-drift check at (theta, lambda) from one exact evaluation."""
    lam = _coerce_multipliers(model, multipliers)
    solution = backward_induction(model, policy, lam)
    grads = _gradient(model, solution, policy.temperature)
    theta, bound = policy.stage_params, policy.param_bound
    upper = theta >= bound
    lower = theta <= -bound
    proj = grads.copy()
    proj[upper] = np.minimum(proj[upper], 0.0)
    proj[lower] = np.maximum(proj[lower], 0.0)
    raw_norms = np.array([np.linalg.norm(g) for g in grads])
    proj_norms = np.array([np.linalg.norm(g) for g in proj])
    at_bound = int(np.count_nonzero(upper | lower))

    gaps = solution.constraint_totals - model.thresholds
    drift = -gaps
    at_zero = lam >= 0.0
    at_floor = lam <= penalty_floor
    drift = np.where(at_zero, np.minimum(drift, 0.0), drift)
    drift = np.where(at_floor, np.maximum(drift, 0.0), drift)
    return StationarityReport(
        stage_gradient_norms=raw_norms,
        projected_gradient_norms=proj_norms,
        max_projected_gradient_norm=float(proj_norms.max(initial=0.0)),
        multiplier_drifts=drift,
        max_multiplier_drift=float(np.abs(drift).max(initial=0.0)),
        theta_bound_active=at_bound,
        multiplier_bound_active=int(np.count_nonzero(at_zero | at_floor)),
        expected_return=solution.expected_return,
        constraint_totals=solution.constraint_totals,
        multipliers=lam,
    )


def fixed_points(
    model: FiniteHorizonCMDP, policy: NonStationaryPolicy, multipliers=()
) -> np.ndarray:
    """The table `train`'s tabular critics converge to at a fixed policy and
    fixed multipliers, in the critic's layout (1+M, H+1, S).

    Channel 0 holds the penalized values, channels 1..M the constraint
    values, whose terminal layer already subtracts the threshold. They come
    from the policy's chain, v_h = c^mu_h + P^mu_h v_{h+1}, in the forms
    `finite_difference_gradient` steps on, not from `backward_induction`'s
    action values, so the two are two evaluation orders of one quantity.
    Every entry of a state that `reachable_sets` excludes at its stage is
    exactly 0, as in a trained critic: no episode visits it.
    """
    lam = _coerce_multipliers(model, multipliers)
    mus = _distribution_matrices(model, policy)
    costs, terminal = model.channel_costs, model.channel_terminal
    chain_costs = np.sum(mus * np.concatenate([penalize(costs, lam)[None], costs[1:]]), axis=3)
    chains = np.einsum("hsa,hsak->hsk", mus, model.kernels)
    table = np.empty((len(terminal), model.horizon + 1, model.num_states))
    table[:, -1] = np.concatenate([penalize(terminal, lam)[None], terminal[1:]])
    for h in range(model.horizon - 1, -1, -1):
        table[:, h] = chain_costs[:, h] + table[:, h + 1] @ chains[h].T
    unreachable = np.ones(table.shape[1:], dtype=bool)
    for h, states in enumerate(reachable_sets(model)):
        unreachable[h, states] = False
    table[:, unreachable] = 0.0
    return table


def greedy_response(model: FiniteHorizonCMDP, multipliers=()) -> np.ndarray:
    """Deterministic stage policy maximizing the penalized objective, (H, S).

    q is built on the optimal values, and each (h, s) takes the lowest action
    index whose q lies within 1e-12 * max(1, |row max|) of the row max, so
    tied actions do not depend on the summation order of q.
    """
    lam = _coerce_multipliers(model, multipliers)
    q = penalize(model.channel_costs, lam)
    v = penalize(model.channel_terminal, lam)
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
class ReferenceSolution:
    """The constrained optimum: a mixture of deterministic greedy policies.

    Drawing policy i with probability weights[i] at the start of an episode
    attains `best_return` at `best_costs`. `best_multipliers` (lambda*, in
    [penalty_floor, 0]^M) minimize the dual. When no mixture meets the
    thresholds within the floor, `feasible` is False, the return and the
    multipliers are NaN and the mixture is empty.
    """

    best_return: float
    best_multipliers: np.ndarray      # (M,)
    best_costs: np.ndarray            # (M,) constraint totals of the mixture
    policies: np.ndarray              # (K, H, S) deterministic stage policies
    weights: np.ndarray               # (K,) mixture probabilities
    feasible: bool
    unconstrained_return: float       # the greedy policy at lambda = 0
    unconstrained_costs: np.ndarray   # (M,)


def _simplex(A: np.ndarray, c: np.ndarray, basis: list, tol: float):
    """Maximize c . x subject to A x = e_0 and x >= 0, from a feasible `basis`.

    Bland's rule: the lowest-index column with a positive reduced cost
    enters and ratio ties leave by the lowest basic index, so no basis
    repeats. Returns the optimal basis, its basic values and the row prices
    y = c_B B^-1.
    """
    rhs = np.zeros(A.shape[0])
    rhs[0] = 1.0
    for _ in range(10_000):
        B = A[:, basis]
        x = np.linalg.solve(B, rhs)
        y = np.linalg.solve(B.T, c[basis])
        reduced = c - y @ A
        reduced[basis] = 0.0
        entering = np.flatnonzero(reduced > tol)
        if entering.size == 0:
            return basis, x, y
        d = np.linalg.solve(B, A[:, entering[0]])
        rows = np.flatnonzero(d > 1e-12)
        if rows.size == 0:
            raise FloatingPointError("the master problem is unbounded")
        ratios = np.maximum(x[rows], 0.0) / d[rows]
        leaving = min(rows[ratios == ratios.min()], key=lambda r: basis[r])
        basis[leaving] = int(entering[0])
    raise FloatingPointError("the master simplex did not converge")


def constrained_reference(
    model: FiniteHorizonCMDP, penalty_floor: float = PENALTY_FLOOR
) -> ReferenceSolution:
    """The exact constrained optimum, by Kelley's cutting planes on the dual.

    D(lam) = max_pi J(pi) + lam . (G(pi) - alpha) over lam in
    [penalty_floor, 0]^M is the upper envelope of one plane per deterministic
    policy, and its minimum is the constrained optimum J*. Starting at
    lam = 0, each greedy solve adds the plane of the policy that attains
    D(lam), and the restricted master

        max sum_i w_i J_i + penalty_floor * sum_k mu_k
        s.t. sum_i w_i = 1,  sum_i w_i (G_ik - alpha_k) <= mu_k,  w, mu >= 0

    picks the next lam as minus its row prices; its value is the minimum of
    the planes so far. The method stops once D at that lam equals the master
    value to 1e-10 relative; the master's weights are then an optimal mixture
    of at most M+1 policies, and a positive elastic mu means no mixture meets
    the thresholds within the floor. Raises ValueError for a floor that is not
    finite and negative.
    """
    M = model.num_constraints
    if not (math.isfinite(penalty_floor) and penalty_floor < 0):
        raise ValueError("penalty_floor must be finite and negative")
    policies, returns, gaps = [], [], []

    def add_plane(lam: np.ndarray) -> float:
        actions = greedy_response(model, lam)
        j, totals = evaluate_deterministic(model, actions)
        policies.append(actions)
        returns.append(j)
        gaps.append(totals - model.thresholds)
        return penalize(np.append(j, gaps[-1]), lam)

    add_plane(np.zeros(M))
    # Columns: mu_1..mu_M, the slacks s_1..s_M, then one w_i per plane. The
    # lam = 0 policy with mu_k or s_k absorbing each row's gap is feasible.
    fixed = np.vstack([np.zeros((1, 2 * M)), np.hstack([-np.eye(M), np.eye(M)])])
    basis = [2 * M] + [k if gaps[0][k] > 0 else M + k for k in range(M)]
    for _ in range(10_000):
        plane_gaps = np.reshape(gaps, (len(gaps), M))
        A = np.hstack([fixed, np.vstack([np.ones(len(gaps)), plane_gaps.T])])
        c = np.concatenate([np.full(M, penalty_floor), np.zeros(M), returns])
        scale = max(1.0, np.abs(c).max(), -penalty_floor * np.abs(A).max())
        basis, x, y = _simplex(A, c, basis, 1e-12 * scale)
        lam = np.clip(-y[1:], penalty_floor, 0.0) + 0.0
        if add_plane(lam) <= y[0] + 1e-10 * max(1.0, abs(y[0])):
            break
    else:
        raise FloatingPointError("the cutting planes did not converge")

    values = np.zeros(A.shape[1])
    values[basis] = x
    mixture = np.flatnonzero(values[2 * M:] > 1e-12)
    weights = values[2 * M:][mixture] / values[2 * M:][mixture].sum()
    feasible = bool(np.all(values[:M] <= 1e-9))
    if feasible:
        best_return = float(weights @ np.array(returns)[mixture])
        best_costs = weights @ plane_gaps[mixture] + model.thresholds
    else:
        best_return, lam, best_costs = float("nan"), np.full(M, np.nan), np.full(M, np.nan)
        mixture, weights = mixture[:0], weights[:0]
    return ReferenceSolution(
        best_return=best_return,
        best_multipliers=lam,
        best_costs=best_costs,
        policies=np.array(policies)[mixture],
        weights=weights,
        feasible=feasible,
        unconstrained_return=returns[0],
        unconstrained_costs=gaps[0] + model.thresholds,
    )
