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

`train` prepares once per call what every episode reads: the policy's
distribution table and running sums, the sampler's views of the model,
per-state terminal tables, a table of the constraint critics' steps over
every visit count the call can reach, and flat views of theta, the stacked
critic table and the visit counts. An episode then indexes each table with
the draw's 1-D id arrays, its `cells` h*S + s_h and its actions, and reads
the realized reward and costs with one gather from the model's channel
stack, costs[:, h, s_h, a_h, s_{h+1}]; for a grid world that stack is a
broadcast view, so nothing of the (H, S, A, S) shape is copied. It runs
the kernels `td_step` (once, for all 1+M critics), `score_rows` and
`actor_step` that the one-episode functions `update_penalized_critic`,
`update_constraint_critic` and `actor_update` wrap, so both run the same
arithmetic bit for bit. The realized return and cost totals are summed once
per chunk of episodes.

The penalized critic, the actor and the multipliers step on the global clock,
the episode count n. The constraint critics step on local clocks, the
asynchronous stochastic-approximation rule: the stage-h entry of state s
moves by critic_step(nu - 1), where nu counts the visits to (h, s) including
this one. A rarely visited state thus learns at its own rate instead of at
the visit frequency times a_n, so its zero start does not bias the stage-0
gap estimate the multipliers follow. An episode visits each stage once, so
nu <= n + 1 and a local step is never smaller than the global a_n.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import dp_oracle
from .critic import (
    channel_offsets,
    flat_view,
    td_step,
    update_constraint_critic,  # unused here; bench/probe.py times calls at this name
    update_penalized_critic,  # unused here; bench/probe.py times calls at this name
)
from .mdp_model import (
    FiniteHorizonCMDP,
    ValidationReport,
    rollout,  # unused here; bench/probe.py times calls at this name
    sampler,
    write_json,
)
from .policy import (
    NonStationaryPolicy,
    _gibbs,
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
        if scale <= 0:
            violations.append(f"{name} scale {scale} must be positive")
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
        if self.penalty_floor >= 0:
            raise ValueError("penalty_floor must be negative")


@dataclass
class TrainerState:
    """Everything the loop mutates, sufficient to stop and resume exactly."""

    config: TrainerConfig
    policy: NonStationaryPolicy
    critic: np.ndarray           # (1+M, H+1, S): v = critic[0], w = critic[1:]
    visits: np.ndarray           # the constraint critics' clock: visits to (h, s), (H+1, S);
                                 # counted only when M > 0
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


def actor_step(theta_rows, moved, score, deltas, step: float, bound: float):
    """theta_rows[moved] <- theta_rows[moved] + step * deltas[:, None] * score,
    clamped into [-bound, bound]; returns (the clamped rows written, whether
    any coordinate was clamped). `theta_rows` is the (H*S, A) view of theta
    and `moved` holds distinct row ids, so one fancy-indexed step equals
    separate row updates."""
    proposed = theta_rows.take(moved, axis=0) + (step * deltas)[:, None] * score
    clipped = bool(np.maximum.reduce(np.abs(proposed), axis=None, initial=0.0) > bound)
    if clipped:
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
    return actor_step(theta_rows, moved, score, deltas[:-1], step, policy.param_bound)[1]


def multiplier_update(stored: np.ndarray, estimates: np.ndarray, step: float, config: TrainerConfig):
    """Clamped multiplier step; returns (new multipliers, floor hit, zero hit).

    Each multiplier moves by -step * estimate and is clamped into
    [penalty_floor, 0]. The M values are plain floats, which step and compare
    faster than small arrays; the clamp has the bits of `np.clip`: NaN and
    -0.0 stay as they are.
    """
    floor = config.penalty_floor
    values = [s - step * e for s, e in zip(stored.tolist(), estimates.tolist())]
    floor_hit = any(x < floor for x in values)
    zero_hit = any(x > 0.0 for x in values)
    if floor_hit or zero_hit:  # the clamp is the identity otherwise
        values = [min(max(x, floor), 0.0) for x in values]
    return np.array(values), floor_hit, zero_hit


@dataclass
class TrainingMetrics:
    """Per-episode observables recorded by `train`, oldest first."""

    returns: np.ndarray              # realized total reward, (N,)
    constraint_totals: np.ndarray    # realized total constraint costs, (N, M)
    multipliers: np.ndarray          # after each episode's update, (N, M)
    gap_estimates: np.ndarray        # w[k, 0, s_0] at episode start, (N, M)
    theta_clipped: np.ndarray        # any actor coordinate clamped, (N,) bool
    multiplier_floor_clipped: np.ndarray  # penalty floor hit, (N,) bool


CHUNK = 1024  # episodes per chunk: totals are summed and divergence is checked once per chunk


def _check_finite(state: TrainerState) -> None:
    """Raise FloatingPointError, naming the episode count, when the critic
    tables, theta or the multipliers hold a non-finite value."""
    for name, array in [
        ("critic tables", state.critic),
        ("policy parameters", state.policy.stage_params),
        ("multipliers", state.multipliers),
    ]:
        if not np.isfinite(array).all():
            raise FloatingPointError(f"{name} became non-finite by episode {state.episode}")


def train(
    model: FiniteHorizonCMDP,
    config: TrainerConfig,
    state: TrainerState | None = None,
    progress_every: int = 0,
    progress=None,
):
    """Run episodes until `config.episodes`; returns (state, metrics).

    Resumes from `state` when given (ValueError if it does not fit the model
    and config) and records `config` in it; metrics cover only the episodes
    run by this call. The loop is deterministic given the model, config, and
    seed. After every `CHUNK` episodes, and after the last, raises
    FloatingPointError naming the episode count if the critic tables, theta
    or the multipliers have gone non-finite.
    """
    if state is None:
        state = make_trainer(model, config)
    else:
        _check_resumable(state, model, config)
        state.config = config
    H, A, M = model.horizon, model.num_actions, model.num_constraints
    schedules = config.schedules
    count = max(config.episodes - state.episode, 0)
    metrics = TrainingMetrics(
        returns=np.zeros(count),
        constraint_totals=np.zeros((count, M)),
        multipliers=np.zeros((count, M)),
        gap_estimates=np.zeros((count, M)),
        theta_clipped=np.zeros(count, dtype=bool),
        multiplier_floor_clipped=np.zeros(count, dtype=bool),
    )

    # The actor moves only the H rows (h, s_h) of an episode, so the
    # distribution table and its running sums are built once and refreshed
    # through the (H*S, A) row views that the episode's cells index.
    policy, critic, rng = state.policy, state.critic, state.rng
    tau, bound = policy.temperature, policy.param_bound
    table = policy.distribution_table()
    running = np.cumsum(table, axis=-1)
    draw = sampler(model, table, running)
    theta_rows = flat_view(policy.stage_params).reshape(-1, A)
    table_rows, running_rows = table.reshape(-1, A), running.reshape(-1, A)
    critic_flat, visits = flat_view(critic), flat_view(state.visits)
    offsets = channel_offsets(critic)
    action_base = np.arange(H) * A  # row h of an episode's (H, A) probabilities
    # The realized reward and costs of the steps are one gather from the
    # model's costs at (h, s_h, a_h, s_{h+1}) through a channel-last view:
    # an (H, 1+M) C-contiguous block, whose transpose is `rollout`'s
    # `Episode.costs`. The M >= 2 products and sums take their bits from
    # that layout.
    step_costs, stages = np.moveaxis(model.costs, 0, -1), np.arange(H)
    cell_base = np.arange(H + 1) * model.num_states
    terminal_gaps = model.channel_terminal[1:].T.copy()  # row s: g_H(s) - alpha, (S, M)
    terminal_rewards = model.terminal_costs[0].tolist()
    # The one TD step's inputs, rewritten in place each episode: channel 0
    # is the penalized critic, channels 1..M the constraint critics, and the
    # last column of the costs holds the terminal costs.
    td_costs, steps = np.empty((1 + M, H + 1)), np.empty((1 + M, H + 1))
    penalized_costs, constraint_costs = td_costs[0, :-1], td_costs[1:, :-1]
    constraint_terminal = td_costs[1:, -1]
    penalized_steps, constraint_steps = steps[0], steps[1:]
    if M:
        # A visit count grows by at most one per episode.
        step_table = schedules.critic_step(np.arange(state.visits.max() + count + 1))
    chunk_costs = np.empty((CHUNK, H, 1 + M))
    for start in range(0, count, CHUNK):
        stop = min(start + CHUNK, count)
        lasts = []
        for i in range(start, stop):
            n = state.episode
            lam = state.multipliers
            cells, actions, last = draw(rng)
            moved = cells[:-1]
            ids = cells + offsets
            states = cells - cell_base
            realized = step_costs[stages, states[:-1], actions, states[1:]]
            g = realized[:, 1:]
            gap_h = terminal_gaps[last]
            # .dot gives the bits of lam @ with less call overhead
            penalized_costs[:] = realized[:, 0] + g.dot(lam)
            constraint_costs[:] = g.T
            td_costs[0, -1] = terminal_rewards[last] + lam.dot(gap_h)
            constraint_terminal[:] = gap_h
            penalized_steps[:] = schedules.critic_step(n)
            if M:
                gaps = critic_flat[ids[1:, 0]]  # a gather, so a copy: td_step moves the table
                seen = visits[cells]
                visits[cells] = seen + 1
                constraint_steps[:] = step_table[seen]
            deltas = td_step(critic_flat, ids, td_costs, steps)
            picked = action_base + actions
            score = score_rows(table_rows.take(moved, axis=0), picked, tau)
            proposed, clipped = actor_step(
                theta_rows, moved, score, deltas[0, :-1], schedules.actor_step(n), bound
            )
            rows = _gibbs(proposed / tau)
            table_rows[moved] = rows
            running_rows[moved] = np.add.accumulate(rows, axis=-1)  # what rows.cumsum runs
            if M:
                c_n = schedules.multiplier_step(n)
                state.multipliers, floor_hit, _ = multiplier_update(lam, gaps, c_n, config)
                metrics.multiplier_floor_clipped[i] = floor_hit
                metrics.gap_estimates[i] = gaps
                metrics.multipliers[i] = state.multipliers

            chunk_costs[i - start] = realized
            lasts.append(last)
            metrics.theta_clipped[i] = clipped
            state.episode = n + 1
            if progress_every and progress is not None and (n + 1) % progress_every == 0:
                progress(n + 1, config.episodes)
        # Summed over H in the order of an episode's costs[0].sum() and
        # costs[1:].sum(axis=1), whose rows have the same strides.
        done = chunk_costs[: stop - start]
        metrics.returns[start:stop] = done[:, :, 0].sum(axis=1) + model.terminal_costs[0, lasts]
        metrics.constraint_totals[start:stop] = (
            done[:, :, 1:].sum(axis=1) + model.terminal_costs[1:, lasts].T
        )
        _check_finite(state)
    return state, metrics


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
    penalty_floor: float = dp_oracle.PENALTY_FLOOR,
) -> StationarityReport:
    """Stationarity and multiplier-drift check at (theta, lambda) from one exact evaluation."""
    lam = dp_oracle._coerce_multipliers(model, multipliers)
    solution = dp_oracle.backward_induction(model, policy, lam)
    grads = dp_oracle._gradient(model, solution, policy.temperature)
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
    `load_policy` still reads the policy inside it.
    """
    with open(path) as f:
        doc = json.load(f)
    if "critic_tables" not in doc:
        raise ValueError(
            f"{path}: no critic tables; a checkpoint with the older padded \"critic\" "
            "layout cannot be resumed (load_policy still reads its policy)"
        )
    cfg = dict(doc["config"])
    cfg["schedules"] = StepSizeSchedules(**cfg["schedules"])
    tables = doc["critic_tables"]
    v = np.asarray(tables["v"], dtype=float)
    w = np.asarray(tables["w"], dtype=float).reshape((-1,) + v.shape)
    rng = np.random.default_rng()
    rng.bit_generator.state = doc["rng_state"]
    return TrainerState(
        config=TrainerConfig(**cfg),
        policy=policy_from_doc(doc["policy"]),
        critic=np.concatenate([v[None], w]),
        visits=np.asarray(tables["visits"], dtype=np.int64),
        multipliers=np.asarray(doc["multipliers"], dtype=float),
        episode=int(doc["episode"]),
        rng=rng,
    )
