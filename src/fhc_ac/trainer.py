"""Three-timescale training loop: tabular critics, Gibbs actor, multiplier ascent.

The critics are tables with one entry per stage and state. Every episode
applies one TD step to the penalized and the constraint critics together,
one projected gradient step per stage of the actor driven by the penalized
critic's temporal differences, and a clamped update of the Lagrange
multipliers driven by the constraint critics' estimates at the episode's
initial state. The multipliers are the
non-positive penalties lambda in [penalty_floor, 0] that enter the costs
r + lambda . g. All updates within an episode read the tables and
parameters held at episode start. The three
step-size sequences decay at separated rates so the critics equilibrate
fastest, the actor next, and the multipliers slowest.

The critics are one C-contiguous float64 array `critic` (1+M, H+1, S),
stacked like the model's and the episode's (1+M, ...) channel costs:
channel 0 is the penalized critic v, which reads the reward channel and
the multipliers, and channels 1..M the constraint critics w, one per
constraint channel. An episode moves the entry of every stage's visited
state once; entries of states a stage cannot reach stay zero.

`train` steps K seeds in lock-step, one episode of every seed at a time; one
seed is the case K = 1. `lockstep` stacks the seeds' tables along a leading
seed axis and returns each seed's draw, a Python loop on its own Generator,
and the one episode step `train` calls. The step makes one numpy call per
kernel over the K*H rows, in this order: the realized costs, one gather from
the model's channel stack (a grid world's broadcast view is not copied);
r + lambda . g by `dp_oracle.penalize`, elementwise, so no BLAS kernel sets
its bits; the gap estimates w(0, s_0); one `td_step` on all 1+M critics; one
`actor_step` on the penalized critic's deltas and the `score_rows` of the
distribution table; and one `multiplier_update` per seed, the name the
benchmark's probe times. The one-episode functions `update_penalized_critic`,
`update_constraint_critic` and `actor_update` wrap the same kernels, so both
run the same arithmetic bit for bit. Every kernel acts row by row, so each
seed gets the bits of its own one-seed call; the seeds share each episode's
step sizes, since they share its count n.

The penalized critic, the actor and the multipliers step on the global clock,
the episode count n. The constraint critics step on local clocks, the
asynchronous stochastic-approximation rule: the stage-h entry of state s
moves by critic_step(nu - 1), where nu counts the visits to (h, s) including
this one. A rarely visited state thus learns at its own rate instead of at
the visit frequency times a_n, so its zero start does not bias the stage-0
gap estimate the multipliers follow. An episode visits each stage once, so
nu <= n + 1 and a local step is never smaller than the global a_n. The visits
are counted for every M, and both critic clocks read one table of
critic_step built from the scalar rule, so a step's bits do not depend on
the clock that reads it or on numpy's SIMD dispatch.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import dp_oracle
from .mdp_model import (
    FiniteHorizonCMDP,
    ValidationReport,
    json_count,
    json_counts,
    json_integer,
    json_object,
    json_real,
    json_table,
    read_document,
    rollout,  # unused here; bench/probe.py times calls at this name
    sampler,
    write_json,
)
from .policy import (
    NonStationaryPolicy,
    gibbs,
    policy_from_doc,
    policy_to_doc,
    score_rows,
    tabular_policy,
)


@dataclass(frozen=True)
class StepSizeSchedules:
    """Polynomially decaying step sizes scale * (n + 1) ** -exponent."""

    critic_exponent: float = 0.6
    actor_exponent: float = 0.8
    multiplier_exponent: float = 1.0
    critic_scale: float = 1.0
    actor_scale: float = 1.0
    multiplier_scale: float = 1.0

    def critic_step(self, n: int) -> float:
        return self.critic_scale * (n + 1.0) ** -self.critic_exponent

    def actor_step(self, n: int) -> float:
        return self.actor_scale * (n + 1.0) ** -self.actor_exponent

    def multiplier_step(self, n: int) -> float:
        return self.multiplier_scale * (n + 1.0) ** -self.multiplier_exponent


def check_schedules(schedules: StepSizeSchedules) -> ValidationReport:
    """Verify the step-size exponents give three separated, valid timescales.

    Each exponent must lie in (0.5, 1]: above 0.5 for square summability of
    the increments, at most 1 so the steps stay non-summable. The exponents
    must strictly increase from critic to actor to multiplier so the ratios
    of consecutive step sizes vanish. The constraint critics' local steps,
    critic_step at a visit count no larger than n, are at least the global
    critic step, so the ratios checked here bound theirs too.
    """
    violations = []
    trio = [
        ("critic", schedules.critic_exponent, schedules.critic_scale),
        ("actor", schedules.actor_exponent, schedules.actor_scale),
        ("multiplier", schedules.multiplier_exponent, schedules.multiplier_scale),
    ]
    for name, exponent, scale in trio:
        if not 0.5 < exponent <= 1.0:
            violations.append(
                f"{name} exponent {exponent} outside (0.5, 1]: increments must be "
                "square summable but not summable"
            )
        if not (math.isfinite(scale) and scale > 0):
            violations.append(f"{name} scale {scale} must be positive and finite")
    if not schedules.critic_exponent < schedules.actor_exponent < schedules.multiplier_exponent:
        violations.append(
            "exponents must strictly increase (critic < actor < multiplier) "
            "to separate the three timescales"
        )
    return ValidationReport(not violations, violations)


@dataclass(frozen=True)
class TrainerConfig:
    episodes: int
    seed: int = 0
    temperature: float = 1.0
    param_bound: float = 10.0
    penalty_floor: float = dp_oracle.PENALTY_FLOOR
    schedules: StepSizeSchedules = field(default_factory=StepSizeSchedules)

    def __post_init__(self):
        # multiplier_update's clamp max(x, floor) returns x for a NaN floor.
        if not (math.isfinite(self.penalty_floor) and self.penalty_floor < 0):
            raise ValueError("penalty_floor must be finite and negative")


@dataclass
class TrainerState:
    """Everything the loop mutates, sufficient to stop and resume exactly."""

    config: TrainerConfig
    policy: NonStationaryPolicy
    critic: np.ndarray           # (1+M, H+1, S): v = critic[0], w = critic[1:]
    visits: np.ndarray           # the constraint critics' clock: visits to (h, s), (H+1, S)
    multipliers: np.ndarray      # non-positive penalties, (M,)
    episode: int
    rng: np.random.Generator

    def signed_multipliers(self) -> np.ndarray:
        """Multipliers as the non-positive penalties entering the costs."""
        return self.multipliers.copy()


def make_trainer(model: FiniteHorizonCMDP, config: TrainerConfig) -> TrainerState:
    report = check_schedules(config.schedules)
    if not report:
        raise ValueError("; ".join(report.violations))
    return TrainerState(
        config=config,
        policy=tabular_policy(model, config.temperature, config.param_bound),
        critic=np.zeros((1 + model.num_constraints, model.horizon + 1, model.num_states)),
        visits=np.zeros((model.horizon + 1, model.num_states), dtype=np.int64),
        multipliers=np.zeros(model.num_constraints),
        episode=0,
        rng=np.random.default_rng(config.seed),
    )


def _check_resumable(state: TrainerState, model: FiniteHorizonCMDP, config: TrainerConfig):
    """Raise ValueError unless `state` has the shapes and policy settings of
    `make_trainer(model, config)`."""
    fresh = make_trainer(model, config)
    for name, got, want in [
        ("policy table shape", state.policy.stage_params.shape, fresh.policy.stage_params.shape),
        ("critic table shape", state.critic.shape, fresh.critic.shape),
        ("visit counts shape", state.visits.shape, fresh.visits.shape),
        ("multipliers shape", state.multipliers.shape, fresh.multipliers.shape),
        ("temperature", state.policy.temperature, fresh.policy.temperature),
        ("param_bound", state.policy.param_bound, fresh.policy.param_bound),
    ]:
        if got != want:
            raise ValueError(f"cannot resume: the state's {name} is {got}, need {want}")


def flat_view(table: np.ndarray) -> np.ndarray:
    """`table` as a 1-D view, so writes through it move `table`; raises
    ValueError when `table` is not C-contiguous and reshaping would copy."""
    if not table.flags.c_contiguous:
        raise ValueError(f"a table of shape {table.shape} must be C-contiguous")
    return table.reshape(-1)


def td_step(table, ids, costs, step) -> np.ndarray:
    """Move the visited entries table[ids] of a flat critic table in place by
    step * delta; returns the deltas, shaped like `ids` (..., H+1). `step`
    broadcasts against them: a scalar, an (H+1,) row of per-stage steps, or
    one step per entry.

    `ids` holds each stage's entry in order, h = 0..H, and `costs` (..., H+1)
    the realized stage costs followed by the terminal cost; leading axes
    stack critics. Stage h < H compares its cost plus the next stage's
    estimate against stage h's estimate; the terminal entry compares the
    terminal cost against the terminal estimate. Every delta reads the table
    held before the step, and all entries move in one add. That equals the
    in-order sweep over stages, because each stage's entry is touched once
    and delta_h reads only stages h and h+1 before their own updates.
    """
    vals = table[ids]
    deltas = costs.copy()
    deltas[..., :-1] += vals[..., 1:]
    deltas -= vals
    table[ids] = vals + step * deltas
    return deltas


def update_penalized_critic(model, critic, episode, multipliers, step) -> np.ndarray:
    """One episode of TD updates on the penalized critic v = critic[0] with the
    realized stage costs r_h + lambda . g_h, read from the episode's channel
    costs, and the terminal cost r_H + lambda . (g_H - alpha) of s_H, both
    formed by `dp_oracle.penalize`; returns the H+1 deltas. `step` is a
    scalar or an (H+1,) array of per-stage steps."""
    terminal = model.channel_terminal[:, episode.states[-1]]
    channels = np.concatenate([episode.costs, terminal[:, None]], axis=1)
    costs = dp_oracle.penalize(channels, multipliers)
    return td_step(flat_view(critic[0]), episode.cells, costs, step)


def update_constraint_critic(model, critic, episode, step) -> np.ndarray:
    """One episode of TD updates on all M constraint critics in one step, each
    as `update_penalized_critic` does with the constraint's stage costs and
    its terminal cost minus the threshold; returns the (M, H+1) deltas.
    `step` is a scalar or an (H+1,) array of per-stage steps shared by the M
    critics."""
    terminal = episode.terminal_costs[1:] - model.thresholds
    costs = np.concatenate([episode.costs[1:], terminal[:, None]], axis=1)
    # Where each constraint channel's (H+1, S) table starts in the flat
    # critic table, as an (M, 1) column: adding the episode's cells gives its
    # (M, H+1) entry ids.
    ids = episode.cells + np.arange(1, len(critic))[:, None] * critic[0].size
    return td_step(flat_view(critic), ids, costs, step)


def actor_step(theta_rows, moved, score, deltas, step: float, bound: float):
    """theta_rows[moved] <- theta_rows[moved] + step * deltas[..., None] * score,
    clamped into [-bound, bound]; returns (the clamped rows written, whether
    any coordinate of each episode's rows was clamped). `theta_rows` is a
    (rows, A) view of theta, and `moved` holds distinct row ids, (H,) for one
    episode or (K, H) for K seeds' episodes, so one fancy-indexed step equals
    separate row updates; the clamp flags are then a 0-d or a (K,) array."""
    proposed = theta_rows.take(moved, axis=0) + (step * deltas)[..., None] * score
    clipped = np.maximum.reduce(np.abs(proposed), axis=(-2, -1), initial=0.0) > bound
    if clipped.any():  # the clamp is the identity otherwise
        np.clip(proposed, -bound, bound, out=proposed)
    theta_rows[moved] = proposed
    return proposed, clipped


def actor_update(policy: NonStationaryPolicy, episode, deltas, step: float) -> bool:
    """theta[h, s_h] <- theta[h, s_h] + step * delta_h * psi_h(s_h, a_h) for all h < H,
    clamped into the box; True if any coordinate was clamped.

    The score psi_h is zero outside row (h, s_h), and these H rows are
    distinct, so one `actor_step` on the rows `episode.cells[:-1]` equals H
    separate stage updates. Every other coordinate already lies in the box,
    so only these rows can move or be clamped. The scores use
    `episode.action_probs`, the rows mu_h(s_h, .) the actions were drawn
    from; `deltas` are the penalized critic's H+1 temporal differences, the
    terminal one drives no actor step.
    """
    theta = policy.stage_params
    stages = np.arange(policy.horizon)
    score = policy.score(stages, episode.states[:-1], episode.actions, episode.action_probs)
    theta_rows = flat_view(theta).reshape(-1, theta.shape[-1])
    moved = episode.cells[:-1]
    return bool(actor_step(theta_rows, moved, score, deltas[:-1], step, policy.param_bound)[1])


def multiplier_update(stored: np.ndarray, estimates: np.ndarray, step: float, config: TrainerConfig):
    """Clamped multiplier step; returns (new multipliers, floor hit, zero hit).

    Each multiplier moves by -step * estimate and is clamped into
    [penalty_floor, 0]. The M values are plain floats, which step and compare
    faster than small arrays; the clamp has the bits of `np.clip`: NaN and
    -0.0 stay as they are.
    """
    floor = config.penalty_floor
    values = [s - step * e for s, e in zip(stored.tolist(), estimates.tolist())]
    floor_hit = zero_hit = False
    for x in values:  # cheaper than two any() generators, once per seed-episode
        if x < floor:
            floor_hit = True
        elif x > 0.0:
            zero_hit = True
    if floor_hit or zero_hit:  # the clamp is the identity otherwise
        values = [min(max(x, floor), 0.0) for x in values]
    return np.array(values), floor_hit, zero_hit


@dataclass
class TrainingMetrics:
    """Per-episode observables recorded by `train`, oldest first; a K-seed
    call holds K*N rows, seed by seed (see `per_seed`)."""

    returns: np.ndarray              # realized total reward, (N,)
    constraint_totals: np.ndarray    # realized total constraint costs, (N, M)
    multipliers: np.ndarray          # after each episode's update, (N, M)
    gap_estimates: np.ndarray        # w[k, 0, s_0] at episode start, (N, M)
    theta_clipped: np.ndarray        # any actor coordinate clamped, (N,) bool
    multiplier_floor_clipped: np.ndarray  # penalty floor hit, (N,) bool

    def per_seed(self, num_seeds: int) -> list:
        """Split the rows of a `num_seeds`-seed `train` call, seed k's N
        episodes at rows k*N to (k+1)*N - 1, into one TrainingMetrics of
        views per seed."""
        n = len(self.returns) // num_seeds
        columns = [getattr(self, f.name) for f in fields(self)]
        return [TrainingMetrics(*(c[k * n : (k + 1) * n] for c in columns))
                for k in range(num_seeds)]


CHUNK = 1024  # episodes between divergence checks; also the rows of realized costs held at once


def _check_finite(state: TrainerState) -> None:
    """Raise FloatingPointError, naming the seed and the episode count, when
    the critic tables, theta or the multipliers hold a non-finite value."""
    for name, array in [
        ("critic tables", state.critic),
        ("policy parameters", state.policy.stage_params),
        ("multipliers", state.multipliers),
    ]:
        if not np.isfinite(array).all():
            raise FloatingPointError(
                f"seed {state.config.seed}: {name} became non-finite by episode {state.episode}"
            )


def _lockstep_states(model, configs, states) -> list:
    """The K states `train` steps together: fresh ones, or `states` checked
    against the model and configs. Raises ValueError unless the configs agree
    in everything but the seed and the states sit at one episode count,
    since the seeds share every step size."""
    if not configs:
        raise ValueError("train needs at least one config")
    if any(replace(c, seed=configs[0].seed) != configs[0] for c in configs):
        raise ValueError("configs trained in lock-step may differ only in their seed")
    if states is None:
        return [make_trainer(model, c) for c in configs]
    if len(states) != len(configs):
        raise ValueError(f"{len(states)} states for {len(configs)} configs")
    for state, config in zip(states, configs):
        _check_resumable(state, model, config)
        state.config = config
    counts = sorted({state.episode for state in states})
    if len(counts) > 1:
        raise ValueError(f"cannot train in lock-step: the states are at episodes {counts}")
    return list(states)


def lockstep(model: FiniteHorizonCMDP, states: Sequence[TrainerState], count: int):
    """Stack the K `states` for `count` lock-step episodes; returns
    (draws, step).

    The states must fit the model and share their config but for the seed,
    as `train` checks. Their tables are stacked along a leading seed axis,
    and each state keeps views of its slices, so it reads the stack as it
    moves. `draws[k](rng)` is seed k's `sampler` draw over its rows.

    `step(drawn, n)` runs episode n of every seed, given each seed's drawn
    (states, actions) in order; it may run `count` times. It moves every
    table in place, sets every state's episode count to n + 1, and returns
    (realized, lasts, gaps, lam, clipped, floored): the realized reward and
    costs (K, H, 1+M), the last states (K,), the gap estimates w(0, s_0)
    held at episode start (K, M), the multipliers after the step (K, M),
    and whether each seed's actor step clamped theta and its multiplier step
    hit the floor (K,). `lasts`, `lam` and `floored` are views the next step
    rewrites.
    """
    K = len(states)
    H, S, A, M = model.horizon, model.num_states, model.num_actions, model.num_constraints
    C = 1 + M
    configs = [s.config for s in states]
    schedules = configs[0].schedules
    # The actor moves only the H rows (h, s_h) of an episode, so the
    # distribution table and its running sums are built once and refreshed
    # through the (K*H*S, A) row views.
    theta = np.stack([s.policy.stage_params for s in states])
    critic = np.stack([s.critic for s in states])  # (K, 1+M, H+1, S)
    visits = np.stack([s.visits for s in states])  # (K, H+1, S)
    lam = np.stack([s.multipliers for s in states])  # (K, M)
    for k, s in enumerate(states):
        s.policy.stage_params, s.critic, s.visits, s.multipliers = (
            theta[k], critic[k], visits[k], lam[k]
        )
    tau, bound = states[0].policy.temperature, states[0].policy.param_bound
    table = gibbs(theta / tau)  # row by row, each seed's distribution_table()
    running = np.cumsum(table, axis=-1)
    draws = [sampler(model, t, r) for t, r in zip(table, running)]
    theta_rows, table_rows, running_rows = (x.reshape(-1, A) for x in (theta, table, running))
    critic_flat, visits_flat = critic.reshape(-1), visits.reshape(-1)
    # An episode's drawn states, rewritten in place; its ids in every table
    # are these states plus a base fixed per seed and stage (and channel).
    path = np.empty((K, H + 1), dtype=np.int64)
    actions = np.empty((K, H), dtype=np.int64)
    sources, targets, lasts, columns = path[:, :-1], path[:, 1:], path[:, -1], path[:, None]
    stage_bases = np.arange(H + 1) * S
    seed_axis = np.arange(K)[:, None]
    row_bases = seed_axis * (H * S) + stage_bases[:-1]  # (K, H): rows of theta and the table
    visit_bases = seed_axis * ((H + 1) * S) + stage_bases  # (K, H+1)
    critic_bases = np.arange(K * C).reshape(K, C, 1) * ((H + 1) * S) + stage_bases
    picked_bases = np.arange(K * H).reshape(K, H) * A  # flat position of row (k, h) of a score
    # The realized reward and costs of the steps are one gather from the
    # model's costs at (h, s_h, a_h, s_{h+1}) through a channel-last view:
    # a (K, H, 1+M) C-contiguous block, whose (H, 1+M) block per seed is the
    # transpose of `rollout`'s `Episode.costs`.
    step_costs, stages = np.moveaxis(model.costs, 0, -1), np.arange(H)
    terminal_table = model.channel_terminal.T.copy()  # row s: r_H(s), g_H(s) - alpha
    # The one TD step's inputs, rewritten in place each episode: channel 0 is
    # the penalized critic, channels 1..M the constraint critics, and stage H
    # holds the terminal costs. The costs are filled channel-last, in the
    # layout of the gather; `penalize` reads them as a (1+M, K, H+1) channel
    # stack and td_step as a (K, 1+M, H+1) table, both views.
    td_costs_cl, steps = np.empty((K, H + 1, C)), np.empty((K, C, H + 1))
    td_costs, channels = td_costs_cl.transpose(0, 2, 1), td_costs_cl.transpose(2, 0, 1)
    seed_lams = lam.T[:, :, None]  # lam_k of every seed as a (K, 1) column, a view
    penalized_steps, constraint_steps = steps[:, 0], steps[:, 1:]
    # critic_step(c) from the scalar rule, whose last bit numpy's vector power
    # can miss, at every clock the call reaches: each grows by at most one
    # per episode.
    clocks = max(visits.max(), states[0].episode) + count + 1
    step_table = np.fromiter(map(schedules.critic_step, range(clocks)), float, clocks)
    floored = np.zeros(K, dtype=bool)

    def step(drawn, n):
        path[:], actions[:] = zip(*drawn)
        moved = sources + row_bases
        ids = columns + critic_bases
        cells = path + visit_bases
        realized = step_costs[stages, sources, actions, targets]
        td_costs_cl[:, :-1] = realized
        td_costs_cl[:, -1] = terminal_table[lasts]
        td_costs[:, 0] = dp_oracle.penalize(channels, seed_lams)
        penalized_steps[:] = step_table[n]
        gaps = critic_flat[ids[:, 1:, 0]]  # a gather, so a copy: td_step moves the table
        seen = visits_flat[cells]
        visits_flat[cells] = seen + 1
        constraint_steps[:] = step_table[seen][:, None]
        deltas = td_step(critic_flat, ids, td_costs, steps)
        score = score_rows(table_rows.take(moved, axis=0), picked_bases + actions, tau)
        proposed, clipped = actor_step(
            theta_rows, moved, score, deltas[:, 0, :-1], schedules.actor_step(n), bound
        )
        rows = gibbs(proposed / tau)
        table_rows[moved] = rows
        running_rows[moved] = np.add.accumulate(rows, axis=-1)  # what rows.cumsum runs
        if M:
            c_n = schedules.multiplier_step(n)
            for k, (gap, seed_config) in enumerate(zip(gaps, configs)):
                lam[k], floored[k], _ = multiplier_update(lam[k], gap, c_n, seed_config)
        for s in states:
            s.episode = n + 1
        return realized, lasts, gaps, lam, clipped, floored

    return draws, step


def train(
    model: FiniteHorizonCMDP,
    config: TrainerConfig | Sequence[TrainerConfig],
    state: TrainerState | Sequence[TrainerState] | None = None,
    progress_every: int = 0,
    progress=None,
):
    """Run episodes until `config.episodes`; returns (state, metrics).

    `config` is one TrainerConfig, or a sequence of K that differ only in
    their seed; then `state` is None or a sequence of K states at one episode
    count, the K seeds run in lock-step, and the result is (list of K
    states, metrics). One config is the K = 1 case of the same loop. The
    metrics hold one row per seed-episode, seed by seed: rows k*N to
    (k+1)*N - 1 are seed k's N episodes, and `TrainingMetrics.per_seed`
    splits them. Each seed's state, metrics rows and Generator are those of
    a one-seed call with its config, bit for bit.

    Resumes from the states when given (ValueError if one does not fit the
    model and its config) and records the configs in them; metrics cover only
    the episodes run by this call. The loop is deterministic given the model,
    configs and seeds. After every `CHUNK` episodes, and after the last,
    raises FloatingPointError naming the first seed, in order, whose critic
    tables, theta or multipliers have gone non-finite, and its episode count.
    `progress(done, total)` is called after every `progress_every` episodes.
    """
    single = isinstance(config, TrainerConfig)
    configs = [config] if single else list(config)
    states = None if state is None else [state] if single else list(state)
    states = _lockstep_states(model, configs, states)
    config = configs[0]
    K = len(states)
    H, M = model.horizon, model.num_constraints
    count = max(config.episodes - states[0].episode, 0)
    metrics = TrainingMetrics(
        returns=np.zeros(K * count),
        constraint_totals=np.zeros((K * count, M)),
        multipliers=np.zeros((K * count, M)),
        gap_estimates=np.zeros((K * count, M)),
        theta_clipped=np.zeros(K * count, dtype=bool),
        multiplier_floor_clipped=np.zeros(K * count, dtype=bool),
    )
    # (K, N, ...) views of the metrics, written one episode of all seeds at a time.
    returns, totals, multipliers, gap_estimates, theta_clipped, floor_clipped = (
        column.reshape((K, count) + column.shape[1:])
        for column in (getattr(metrics, f.name) for f in fields(metrics))
    )
    draws, step = lockstep(model, states, count)
    rngs = [s.rng for s in states]
    # The realized costs of a block of episodes of all seeds, summed into the
    # totals once per block; a block holds at most CHUNK rows, and divides CHUNK.
    block = max(CHUNK >> (K - 1).bit_length(), 1)
    block_costs = np.empty((block, K, H, 1 + M))
    block_lasts = np.empty((block, K), dtype=np.int64)
    for start in range(0, count, block):
        stop = min(start + block, count)
        for i in range(start, stop):
            n = states[0].episode
            drawn = [draw(rng) for draw, rng in zip(draws, rngs)]
            realized, lasts, gaps, lam, clipped, floored = step(drawn, n)
            block_costs[i - start], block_lasts[i - start] = realized, lasts
            gap_estimates[:, i], multipliers[:, i] = gaps, lam
            theta_clipped[:, i], floor_clipped[:, i] = clipped, floored
            if progress_every and progress is not None and (n + 1) % progress_every == 0:
                progress(n + 1, config.episodes)
        # Rows (episode, seed), each summed over H in the order of an
        # episode's costs[0].sum() and costs[1:].sum(axis=1), whose rows have
        # the same strides.
        done = block_costs[: stop - start].reshape(-1, H, 1 + M)
        ends = block_lasts[: stop - start].reshape(-1)
        returns[:, start:stop] = (
            done[:, :, 0].sum(axis=1) + model.terminal_costs[0, ends]
        ).reshape(stop - start, K).T
        totals[:, start:stop] = (
            done[:, :, 1:].sum(axis=1) + model.terminal_costs[1:, ends].T
        ).reshape(stop - start, K, M).transpose(1, 0, 2)
        if stop % CHUNK == 0 or stop == count:
            for s in states:
                _check_finite(s)
    return (states[0] if single else states), metrics


def moving_average(values, window: int) -> np.ndarray:
    """Trailing mean over the last `window` entries, shorter at the start."""
    if window <= 0:
        raise ValueError("window must be positive")
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-D array")
    out = np.empty_like(v)
    totals = np.cumsum(v)
    head = min(window, len(v))
    out[:head] = totals[:head] / np.arange(1, head + 1)
    if len(v) > window:
        out[window:] = (totals[window:] - totals[:-window]) / window
    return out


def save_checkpoint(state: TrainerState, path) -> None:
    """Write the full trainer state as JSON; `load_checkpoint` resumes exactly."""
    doc = {
        "config": asdict(state.config),
        "episode": state.episode,
        "multipliers": state.multipliers,
        "policy": policy_to_doc(state.policy),
        "critic_tables": {
            "v": state.critic[0],
            "w": state.critic[1:],
            "visits": state.visits,
        },
        "rng_state": state.rng.bit_generator.state,
    }
    write_json(path, doc)


def load_checkpoint(path) -> TrainerState:
    """Read a `save_checkpoint` file.

    The critic tables are stored under "critic_tables". Raises ValueError on
    a checkpoint that has only the older "critic" block, weights padded by
    position in each stage's reachable set, which cannot be resumed;
    `load_policy` still reads the policy inside it. Also raises ValueError,
    naming the key, on a missing key, on a block that is not a JSON object,
    on an unknown or missing config or schedule setting, on a "v" that is not
    an (H+1, S) table or a "w" that does not stack under it, and on a number of
    the wrong JSON type: a string, a boolean, a fraction where a count
    belongs, a non-finite setting, or a Generator state other than PCG64's
    integers of their widths, where numpy would resume a float `state` or
    raise TypeError or OverflowError.
    """
    return read_document(path, _checkpoint_from_doc)


def _checkpoint_from_doc(doc: dict) -> TrainerState:
    if "critic_tables" not in doc:
        raise ValueError(
            "no 'critic_tables'; a checkpoint with the older padded \"critic\" "
            "layout cannot be resumed (load_policy still reads its policy)"
        )
    cfg = dict(json_object(doc, "config"))
    schedules = json_object(cfg, "schedules")
    for block, settings in [(cfg, TrainerConfig), (schedules, StepSizeSchedules)]:
        names = {f.name for f in fields(settings)}
        for problem, keys in [("unknown", set(block) - names), ("missing", names - set(block))]:
            if keys:
                raise ValueError(f"{problem} {settings.__name__} settings {sorted(keys)}")
    del cfg["schedules"]
    for key, value in [*cfg.items(), *schedules.items()]:
        integer = key in ("episodes", "seed")
        if not (json_integer(value) if integer else json_real(value)):
            kind = "an integer" if integer else "a finite number"
            raise ValueError(f"{key!r} must be {kind}, got {value!r}")
    tables = json_object(doc, "critic_tables")
    v, w = json_table(tables, "v"), json_table(tables, "w")
    if v.ndim != 2:
        raise ValueError(f"'v' must be an (H+1, S) table, got shape {v.shape}")
    if not w.size:  # M = 0 saves an empty list
        w = w.reshape((0,) + v.shape)
    elif w.shape[1:] != v.shape:
        raise ValueError(f"'w' must be (M,) + {v.shape}, the shape of 'v', got {w.shape}")
    rng_state = json_object(doc, "rng_state")
    if rng_state["bit_generator"] != "PCG64":
        raise ValueError(f"'bit_generator' must be 'PCG64', got {rng_state['bit_generator']!r}")
    pcg = json_object(rng_state, "state")
    for inner, key, limit in [(pcg, "state", 2**128), (pcg, "inc", 2**128),
                              (rng_state, "uinteger", 2**32), (rng_state, "has_uint32", 2)]:
        if json_count(inner, key) >= limit:
            raise ValueError(f"{key!r} must be below {limit}, got {inner[key]!r}")
    rng = np.random.default_rng()
    rng.bit_generator.state = rng_state
    return TrainerState(
        config=TrainerConfig(**cfg, schedules=StepSizeSchedules(**schedules)),
        policy=policy_from_doc(json_object(doc, "policy")),
        critic=np.concatenate([v[None], w]),
        visits=json_counts(tables, "visits"),
        multipliers=json_table(doc, "multipliers"),
        episode=json_count(doc, "episode"),
        rng=rng,
    )
