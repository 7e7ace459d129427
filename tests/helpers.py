"""Shared test utilities: random instances and brute-force oracles.

The oracles here deliberately avoid the package's dynamic-programming code:
they enumerate trajectories or deterministic policies directly, so the fast
implementations can be checked against independent arithmetic. Some
exceptions reuse the package's evaluation: `gradient_without_baseline` takes
the exact values and occupations so that it differs from `exact_gradient`
only in the baseline, `reference_finite_difference_gradient` re-evaluates
the whole objective once per probe with `lagrangian_value`,
`reference_train` composes the public one-episode functions that `train`'s
flat step shares its kernels with, the `unshared_*` oracle readers each
evaluate the policy on their own, as they did before they shared one pass,
`assert_exact_critic_limit` compares `fixed_points` with `backward_induction`,
and `reference_step_kernel` builds the grid world's kernel cell by cell.
"""

import dataclasses
import itertools

import numpy as np

from fhc_ac import (
    Episode,
    TrainingMetrics,
    actor_update,
    backward_induction,
    evaluate_policy,
    lagrangian_value,
    make_cmdp,
    make_trainer,
    multiplier_update,
    occupation_measures,
    reachable_sets,
    rollout,
    tabular_policy,
    update_constraint_critic,
    update_penalized_critic,
)
from fhc_ac import dp_oracle
from fhc_ac.dp_oracle import FD_STEP, StationarityReport
from fhc_ac.gridworld_env import DISPLACEMENTS, cell_index
from fhc_ac.policy import gibbs


def random_cmdp(
    rng,
    num_states=3,
    num_actions=2,
    horizon=3,
    num_constraints=1,
    min_prob=0.05,
):
    """Dense random instance with strictly positive kernels."""
    S, A, H, M = num_states, num_actions, horizon, num_constraints
    kernels = rng.exponential(size=(H, S, A, S)) + min_prob
    kernels /= kernels.sum(axis=-1, keepdims=True)
    rewards = rng.normal(size=(H, S, A, S))
    terminal_reward = rng.normal(size=S)
    beta = rng.exponential(size=S) + min_prob
    beta /= beta.sum()
    costs = rng.uniform(0.2, 1.5, size=(M, H, S, A, S))
    terminal_costs = rng.uniform(0.0, 1.0, size=(M, S))
    thresholds = rng.uniform(1.0, 3.0, size=M)
    return make_cmdp(
        kernels=kernels,
        costs=np.concatenate([rewards[None], costs]),
        terminal_costs=np.concatenate([terminal_reward[None], terminal_costs]),
        thresholds=thresholds,
        initial_distribution=beta,
    )


def random_sparse_cmdp(rng, num_states, num_actions, horizon, num_constraints):
    """`random_cmdp` with each kernel entry kept with probability 0.3 and
    every row renormalized; each row keeps at least one entry."""
    model = random_cmdp(rng, num_states, num_actions, horizon, num_constraints)
    kernels = model.kernels * (rng.random(model.kernels.shape) < 0.3)
    empty = kernels.sum(axis=-1) == 0
    kernels[empty, rng.integers(num_states, size=int(empty.sum()))] = 1.0
    kernels /= kernels.sum(axis=-1, keepdims=True)
    return dataclasses.replace(model, kernels=kernels)


def cut_off_last_state(model):
    """`model` with its last state unreachable: no initial mass, no transitions in."""
    kernels = model.kernels.copy()
    kernels[..., -1] = 0.0
    empty = kernels.sum(axis=-1) == 0
    kernels[empty, 0] = 1.0
    kernels /= kernels.sum(axis=-1, keepdims=True)
    beta = model.initial_distribution.copy()
    beta[-1] = 0.0
    return dataclasses.replace(model, kernels=kernels, initial_distribution=beta / beta.sum())


def random_policy(model, rng, scale=1.5, temperature=1.0, param_bound=10.0):
    """Uniform random preferences on the rows of reachable states, stage by stage."""
    policy = tabular_policy(model, temperature=temperature, param_bound=param_bound)
    for h, states in enumerate(reachable_sets(model)[: model.horizon]):
        policy.stage_params[h, states] = rng.uniform(
            -scale, scale, size=(len(states), model.num_actions)
        )
    return policy


def sample_episode(model, policy, rng):
    """One `rollout` from the policy's distribution table and its running sums."""
    table = policy.distribution_table()
    return rollout(model, table, np.cumsum(table, axis=-1), rng)


def sample_index(probs: list, u: float) -> int:
    """Inverse-CDF draw by a row scan: the first index whose running sum of
    `probs` exceeds u, or the last index when no running sum does (round-off
    below 1). A NaN running sum counts as exceeding u, as it does in
    searchsorted. The reference for the package's bisection draws.
    """
    total = 0.0
    for i, p in enumerate(probs):
        total += p
        if not total <= u:
            return i
    return len(probs) - 1


def reference_rollout(model, table, rng):
    """The per-step scan `rollout` replaced: copy the row, then `sample_index` it.

    Same uniforms in the same order as `rollout`, so the two must agree on
    every Episode field.
    """
    horizon = model.horizon
    uniforms = iter(rng.random(2 * horizon + 1).tolist())
    s = sample_index(model.initial_distribution.tolist(), next(uniforms))
    visited = [s]
    chosen = []
    for h in range(horizon):
        a = sample_index(table[h, s].tolist(), next(uniforms))
        s = sample_index(model.kernels[h, s, a].tolist(), next(uniforms))
        chosen.append(a)
        visited.append(s)
    states = np.array(visited, dtype=np.int64)
    actions = np.array(chosen, dtype=np.int64)
    steps = (np.arange(horizon), states[:-1], actions, states[1:])
    return Episode(
        states=states,
        actions=actions,
        cells=np.arange(horizon + 1) * model.num_states + states,
        costs=np.asarray(model.costs[(slice(None),) + steps], dtype=float),
        terminal_costs=model.terminal_costs[:, s].copy(),
        action_probs=table[steps[:2]],
    )


def reference_train(model, config):
    """The episode loop `train` replaced, one public one-episode function per
    layer: `rollout`, `update_penalized_critic`, `actor_update`, a refresh of
    the moved rows from `distribution_rows`, `update_constraint_critic` on the
    visit clocks, which are counted for every M, each step a scalar
    `critic_step` call, and `multiplier_update`. Returns what
    `train(model, config)` returns."""
    state = make_trainer(model, config)
    H, M = model.horizon, model.num_constraints
    schedules = config.schedules
    count = config.episodes
    metrics = TrainingMetrics(
        returns=np.zeros(count),
        constraint_totals=np.zeros((count, M)),
        multipliers=np.zeros((count, M)),
        gap_estimates=np.zeros((count, M)),
        theta_clipped=np.zeros(count, dtype=bool),
        multiplier_floor_clipped=np.zeros(count, dtype=bool),
    )
    policy, critic, visits = state.policy, state.critic, state.visits
    table = policy.distribution_table()
    running = np.cumsum(table, axis=-1)
    stages = np.arange(H + 1)
    for i in range(count):
        n = state.episode
        lam = state.multipliers
        episode = rollout(model, table, running, state.rng)
        # a copy: the constraint step below moves these entries in place
        gaps = critic[1:, 0, episode.states[0]].copy()

        deltas = update_penalized_critic(model, critic, episode, lam, schedules.critic_step(n))
        clipped = actor_update(policy, episode, deltas, schedules.actor_step(n))
        moved = (stages[:-1], episode.states[:-1])
        rows = policy.distribution_rows(*moved)
        table[moved] = rows
        running[moved] = np.cumsum(rows, axis=-1)
        visited = (stages, episode.states)
        seen = visits[visited]
        visits[visited] = seen + 1
        if M:
            local = np.array([schedules.critic_step(c) for c in seen.tolist()])
            update_constraint_critic(model, critic, episode, local)
            state.multipliers, floor_hit, _ = multiplier_update(
                state.multipliers, gaps, schedules.multiplier_step(n), config
            )
            metrics.multiplier_floor_clipped[i] = floor_hit
            metrics.gap_estimates[i] = gaps
            metrics.multipliers[i] = state.multipliers

        metrics.returns[i] = episode.total_reward()
        metrics.constraint_totals[i] = episode.total_constraint_costs()
        metrics.theta_clipped[i] = clipped
        state.episode = n + 1
    return state, metrics


def gradient_without_baseline(model, policy, multipliers):
    """The exact policy gradient with no baseline, shape (H, S, A): stage h
    gets sum_s d_h(s) sum_a mu_h(a|s) Q_h(s,a) psi_h(s,a), summed term by term
    over the scores `policy.score` returns for every (h, s, a)."""
    H, S, A = policy.stage_params.shape
    q = backward_induction(model, policy, multipliers).action_values
    d = occupation_measures(model, policy)
    weights = d[:-1, :, None] * policy.distribution_table() * q
    h, s, a = (index.ravel() for index in np.indices((H, S, A)))
    terms = weights.ravel()[:, None] * policy.score(h, s, a)
    return terms.reshape(H, S, A, A).sum(axis=2)


def reference_finite_difference_gradient(model, policy, multipliers=()):
    """The per-probe loop `finite_difference_gradient` replaced: one full
    `lagrangian_value` evaluation at theta +- FD_STEP e for every entry of a
    reachable row, shape (H, S, A); unreachable rows stay exactly 0."""
    probe = policy.copy()
    theta = probe.stage_params
    grads = np.zeros_like(theta)
    for h, states in enumerate(reachable_sets(model)[: model.horizon]):
        for s in states:
            for a in range(model.num_actions):
                base = theta[h, s, a]
                theta[h, s, a] = base + FD_STEP
                up = lagrangian_value(model, probe, multipliers)
                theta[h, s, a] = base - FD_STEP
                down = lagrangian_value(model, probe, multipliers)
                theta[h, s, a] = base
                grads[h, s, a] = (up - down) / (2.0 * FD_STEP)
    return grads


def unshared_occupation_measures(model, policy):
    """Stage state distributions d_h, (H+1, S), from a table of their own."""
    mus = policy.distribution_table()
    d = np.zeros((model.horizon + 1, model.num_states))
    d[0] = model.initial_distribution
    for h in range(model.horizon):
        step = np.einsum("ij,ijk->ik", mus[h], model.kernels[h])
        d[h + 1] = d[h] @ step
    return d


def unshared_exact_gradient(model, policy, multipliers=()):
    """`exact_gradient` building three tables: one in `backward_induction`,
    one for the closed form and one for the occupation measures."""
    solution = backward_induction(model, policy, multipliers)
    targets = solution.action_values - solution.values[:-1, :, None]
    mus = policy.distribution_table()
    d = unshared_occupation_measures(model, policy)[:-1, :, None]
    centered = targets - np.sum(mus * targets, axis=2, keepdims=True)
    return d * mus * centered / policy.temperature


def unshared_stationarity_diagnostics(model, policy, multipliers, penalty_floor=-100.0):
    """`stationarity_diagnostics` with the gradient of `unshared_exact_gradient`
    and a second backward pass at lambda = 0 for the return and totals."""
    lam = np.atleast_1d(np.asarray(multipliers, dtype=float))
    grads = unshared_exact_gradient(model, policy, lam)
    theta, bound = policy.stage_params, policy.param_bound
    upper = theta >= bound
    lower = theta <= -bound
    proj = grads.copy()
    proj[upper] = np.minimum(proj[upper], 0.0)
    proj[lower] = np.maximum(proj[lower], 0.0)
    raw_norms = np.array([np.linalg.norm(g) for g in grads])
    proj_norms = np.array([np.linalg.norm(g) for g in proj])
    expected_return, totals = evaluate_policy(model, policy)
    drift = -(totals - model.thresholds)
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
        theta_bound_active=int(np.count_nonzero(upper | lower)),
        multiplier_bound_active=int(np.count_nonzero(at_zero | at_floor)),
        expected_return=expected_return,
        constraint_totals=totals,
        multipliers=lam,
    )


def unshared_finite_difference_gradient(model, policy, multipliers=()):
    """`finite_difference_gradient` with its own table and channel recursion
    in place of a `backward_induction` record."""
    lam = np.atleast_1d(np.asarray(multipliers, dtype=float))
    mus = policy.distribution_table()
    values, action_values = (
        dp_oracle.penalize(x, lam) for x in dp_oracle._channel_values(model, mus)
    )
    chain_costs = np.sum(mus * dp_oracle.penalize(model.channel_costs, lam), axis=2)
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


def unreachable_mask(model):
    """(H+1, S) booleans, True at every (h, s) with s outside `reachable_sets`' S_h."""
    off = np.ones((model.horizon + 1, model.num_states), dtype=bool)
    for h, states in enumerate(reachable_sets(model)):
        off[h, states] = False
    return off


def assert_exact_critic_limit(model, policy, multipliers, limit, tol=1e-10):
    """`limit` holds `backward_induction`'s values in the critic layout
    (1+M, H+1, S), penalized channel first: within `tol` of them on every
    stage's reachable states and exactly 0 on the others."""
    solution = backward_induction(model, policy, multipliers)
    exact = np.concatenate([solution.values[None], solution.constraint_values])
    assert limit.shape == exact.shape
    off = unreachable_mask(model)
    assert np.abs(limit - exact)[:, ~off].max() < tol
    assert not limit[:, off].any()


def iter_trajectories(model, mus):
    """Yield (probability, states, actions) over every trajectory.

    `mus` holds the H stage distribution matrices (S, A). Only usable on
    tiny instances: the loop is exponential in the horizon by construction.
    """
    S, A, H = model.num_states, model.num_actions, model.horizon
    for states in itertools.product(range(S), repeat=H + 1):
        for actions in itertools.product(range(A), repeat=H):
            p = model.initial_distribution[states[0]]
            for h in range(H):
                p *= (
                    mus[h][states[h], actions[h]]
                    * model.kernels[h, states[h], actions[h], states[h + 1]]
                )
            yield p, states, actions


def brute_policy_value(model, policy, multipliers=None):
    """(J, constraint totals, penalized value) by trajectory enumeration."""
    M = model.num_constraints
    lam = np.zeros(M) if multipliers is None else np.asarray(multipliers, dtype=float)
    mus = policy.distribution_table()
    J = 0.0
    L = 0.0
    totals = np.zeros(M)
    for p, states, actions in iter_trajectories(model, mus):
        r = model.terminal_costs[0, states[-1]]
        c = model.terminal_costs[1:, states[-1]].copy()
        for h in range(model.horizon):
            r += model.costs[0, h, states[h], actions[h], states[h + 1]]
            c += model.costs[1:, h, states[h], actions[h], states[h + 1]]
        J += p * r
        totals += p * c
        L += p * (r + lam @ (c - model.thresholds))
    return J, totals, L


def brute_occupation(model, policy):
    """Stage state distributions by trajectory enumeration, shape (H+1, S)."""
    mus = policy.distribution_table()
    d = np.zeros((model.horizon + 1, model.num_states))
    for p, states, _ in iter_trajectories(model, mus):
        for h, s in enumerate(states):
            d[h, s] += p
    return d


def brute_state_values(model, policy, multipliers):
    """Penalized state values by per-start trajectory enumeration, (H+1, S)."""
    lam = np.asarray(multipliers, dtype=float)
    S, A, H = model.num_states, model.num_actions, model.horizon
    mus = policy.distribution_table()
    terminal = model.terminal_costs[0] + lam @ (
        model.terminal_costs[1:] - model.thresholds[:, None]
    )
    values = np.zeros((H + 1, S))
    values[H] = terminal
    for start in range(H):
        for s0 in range(S):
            total = 0.0
            for states in itertools.product(range(S), repeat=H - start):
                path = (s0,) + states
                for actions in itertools.product(range(A), repeat=H - start):
                    p = 1.0
                    val = terminal[path[-1]]
                    for i, h in enumerate(range(start, H)):
                        p *= (
                            mus[h][path[i], actions[i]]
                            * model.kernels[h, path[i], actions[i], path[i + 1]]
                        )
                        val += model.costs[0, h, path[i], actions[i], path[i + 1]] + lam @ (
                            model.costs[1:, h, path[i], actions[i], path[i + 1]]
                        )
                    total += p * val
            values[start, s0] = total
    return values


def iter_deterministic_policies(model):
    """Yield every deterministic stage policy as an (H, S) action array."""
    S, H, A = model.num_states, model.horizon, model.num_actions
    for flat in itertools.product(range(A), repeat=H * S):
        yield np.array(flat, dtype=np.int64).reshape(H, S)


def brute_deterministic_value(model, actions):
    """(J, constraint totals) of a deterministic policy by enumeration."""
    S, H = model.num_states, model.horizon
    one_hot = [np.zeros((S, model.num_actions)) for _ in range(H)]
    for h in range(H):
        one_hot[h][np.arange(S), actions[h]] = 1.0
    J = 0.0
    totals = np.zeros(model.num_constraints)
    for p, states, acts in iter_trajectories(model, one_hot):
        if p == 0.0:
            continue
        r = model.terminal_costs[0, states[-1]]
        c = model.terminal_costs[1:, states[-1]].copy()
        for h in range(H):
            r += model.costs[0, h, states[h], acts[h], states[h + 1]]
            c += model.costs[1:, h, states[h], acts[h], states[h + 1]]
        J += p * r
        totals += p * c
    return J, totals


def occupation_lp(model):
    """The constrained optimum as a linear program over stage occupations.

    Variables x_h(s, a) >= 0 with sum_a x_0(s, a) = beta(s) and
    sum_a x_{h+1}(s', a) = sum_{s,a} x_h(s, a) p_h(s, a, s'); maximize the
    expected return subject to one expected-cost row per constraint. Solved
    by HiGHS, so it shares no code with the package's cutting planes.
    Returns (J*, lambda*) with lambda*_k = dJ*/d(-alpha_k) <= 0, the price
    of constraint k, or None when no occupation meets the thresholds.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    H, S, A, _ = model.kernels.shape
    M = model.num_constraints
    n = H * S * A
    # Expected stage payoffs, the last stage carrying the terminal ones.
    reward = np.einsum("hijk,hijk->hij", model.kernels, model.costs[0])
    reward[-1] += model.kernels[-1] @ model.terminal_costs[0]
    costs = np.einsum("hijk,chijk->chij", model.kernels, model.costs[1:])
    costs[:, -1] += np.einsum("ijk,ck->cij", model.kernels[-1], model.terminal_costs[1:])

    cols = np.arange(n)
    rows = cols // A  # row h*S + s holds every action of state s at stage h
    h, s, a, s_next = np.nonzero(model.kernels[:-1])
    flow_rows = (h + 1) * S + s_next
    flow_cols = (h * S + s) * A + a
    a_eq = sparse.csr_matrix(
        (
            np.concatenate([np.ones(n), -model.kernels[h, s, a, s_next]]),
            (np.concatenate([rows, flow_rows]), np.concatenate([cols, flow_cols])),
        ),
        shape=(H * S, n),
    )
    b_eq = np.zeros(H * S)
    b_eq[:S] = model.initial_distribution
    result = linprog(
        -reward.ravel(),
        A_ub=costs.reshape(M, n) if M else None,
        b_ub=model.thresholds if M else None,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if result.status == 2:
        return None
    assert result.status == 0, result.message
    prices = result.ineqlin.marginals if M else np.zeros(0)
    return -result.fun, np.asarray(prices)


def reference_step_kernel(rows, cols, slip):
    """The grid world's (S, 9, S) kernel by four nested loops: each landing
    cell is clamped to the grid and adds its displacements' probabilities in
    displacement order."""
    n, num_actions = rows * cols, len(DISPLACEMENTS)
    targets = np.empty((n, num_actions), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            s = cell_index(r, c, cols)
            for d, (dr, dc) in enumerate(DISPLACEMENTS):
                rr = min(max(r + dr, 0), rows - 1)
                cc = min(max(c + dc, 0), cols - 1)
                targets[s, d] = cell_index(rr, cc, cols)
    kernel = np.zeros((n, num_actions, n))
    for s in range(n):
        for a in range(num_actions):
            for d in range(num_actions):
                p = 1.0 - slip if d == a else slip / (num_actions - 1)
                kernel[s, a, targets[s, d]] += p
    return kernel
