"""Three-timescale training loop: linear critics, Gibbs actor, multiplier ascent.

Every episode applies, in order: TD updates to the penalized critic, one
projected gradient step per stage of the actor driven by the same temporal
differences, one TD step of all constraint critics together, and a clamped
update of the Lagrange multipliers driven by the constraint critics'
initial-stage estimates. The multipliers are the non-positive penalties
lambda in [penalty_floor, 0] that enter the costs r + lambda . g. All
updates within an episode read the weights held at episode start. The three
step-size sequences decay at separated rates so the critics equilibrate
fastest, the actor next, and the multipliers slowest.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import dp_oracle
from .critic import (
    CriticState,
    tabular_basis,
    update_constraint_critic,
    update_penalized_critic,
    zero_critic,
)
from .mdp_model import FiniteHorizonCMDP, ValidationReport, rollout, write_json
from .policy import NonStationaryPolicy, policy_from_doc, policy_to_doc, tabular_policy


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
    of consecutive step sizes vanish.
    """
    violations = []
    notes = []
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
    if not violations:
        for n in (10**2, 10**4, 10**6):
            ratio_ba = schedules.actor_step(n) / schedules.critic_step(n)
            ratio_cb = schedules.multiplier_step(n) / schedules.actor_step(n)
            notes.append(f"n={n}: actor/critic={ratio_ba:.3e} multiplier/actor={ratio_cb:.3e}")
    return ValidationReport(not violations, violations, notes)


@dataclass(frozen=True)
class TrainerConfig:
    episodes: int
    seed: int = 0
    temperature: float = 1.0
    param_bound: float = 10.0
    penalty_floor: float = -100.0
    schedules: StepSizeSchedules = field(default_factory=StepSizeSchedules)

    def __post_init__(self):
        if self.penalty_floor >= 0:
            raise ValueError("penalty_floor must be negative")


@dataclass
class TrainerState:
    """Everything the loop mutates, sufficient to stop and resume exactly; the
    critics' features are the model's tabular basis, which `train` rebuilds."""

    config: TrainerConfig
    policy: NonStationaryPolicy
    critic: CriticState
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
        critic=zero_critic(tabular_basis(model), model.num_constraints),
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
        ("critic v shape", state.critic.v.shape, fresh.critic.v.shape),
        ("critic w shape", state.critic.w.shape, fresh.critic.w.shape),
        ("multipliers shape", state.multipliers.shape, fresh.multipliers.shape),
        ("temperature", state.policy.temperature, fresh.policy.temperature),
        ("param_bound", state.policy.param_bound, fresh.policy.param_bound),
    ]:
        if got != want:
            raise ValueError(f"cannot resume: the state's {name} is {got}, need {want}")


def actor_update(policy: NonStationaryPolicy, episode, deltas, step: float) -> bool:
    """theta[h, s_h] <- theta[h, s_h] + step * delta_h * psi_h(s_h, a_h) for all h < H,
    clamped into the box; True if any coordinate was clamped.

    The score psi_h is zero outside row (h, s_h), and these H rows are
    distinct, so one fancy-indexed step equals H separate stage updates. Every
    other coordinate already lies in the box, so only these rows can move or
    be clamped. The scores use `episode.action_probs`, the rows mu_h(s_h, .)
    the actions were drawn from; `deltas` are the penalized critic's H+1
    temporal differences, the terminal one drives no actor step.
    """
    moved = (np.arange(policy.horizon), episode.states[:-1])
    score = policy.score(*moved, episode.actions, episode.action_probs)
    proposed = policy.stage_params[moved] + (step * deltas[:-1])[:, None] * score
    bound = policy.param_bound
    clipped = bool(np.abs(proposed).max(initial=0.0) > bound)
    if clipped:
        np.clip(proposed, -bound, bound, out=proposed)
    policy.stage_params[moved] = proposed
    return clipped


def multiplier_update(stored: np.ndarray, estimates: np.ndarray, step: float, config: TrainerConfig):
    """Clamped multiplier step; returns (new multipliers, floor hit, zero hit).

    Each multiplier moves by -step * estimate and is clamped into
    [penalty_floor, 0].
    """
    proposed = stored - step * estimates
    floor_hit = bool((proposed < config.penalty_floor).any())
    zero_hit = bool((proposed > 0.0).any())
    if floor_hit or zero_hit:  # the clamp is the identity otherwise
        np.clip(proposed, config.penalty_floor, 0.0, out=proposed)
    return proposed, floor_hit, zero_hit


@dataclass
class TrainingMetrics:
    """Per-episode observables recorded by `train`, oldest first."""

    returns: np.ndarray              # realized total reward, (N,)
    constraint_totals: np.ndarray    # realized total constraint costs, (N, M)
    multipliers: np.ndarray          # after each episode's update, (N, M)
    value_estimates: np.ndarray      # v_0 . phi_0(s_0) at episode start, (N,)
    gap_estimates: np.ndarray        # w_0^k . phi_0(s_0) at episode start, (N, M)
    theta_clipped: np.ndarray        # any actor coordinate clamped, (N,) bool
    multiplier_floor_clipped: np.ndarray  # penalty floor hit, (N,) bool
    multiplier_zero_clipped: np.ndarray   # zero bound hit, (N,) bool


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
    run by this call. The loop is deterministic given the model, config, and seed.
    """
    if state is None:
        state = make_trainer(model, config)
    else:
        _check_resumable(state, model, config)
        state.config = config
    H, M = model.horizon, model.num_constraints
    schedules = config.schedules
    count = max(config.episodes - state.episode, 0)
    metrics = TrainingMetrics(
        returns=np.zeros(count),
        constraint_totals=np.zeros((count, M)),
        multipliers=np.zeros((count, M)),
        value_estimates=np.zeros(count),
        gap_estimates=np.zeros((count, M)),
        theta_clipped=np.zeros(count, dtype=bool),
        multiplier_floor_clipped=np.zeros(count, dtype=bool),
        multiplier_zero_clipped=np.zeros(count, dtype=bool),
    )

    policy, critic, basis = state.policy, state.critic, tabular_basis(model)
    # The actor moves only the H rows (h, s_h) of each episode, so the
    # distribution table is built once and refreshed row by row.
    table = policy.distribution_table()
    stages = np.arange(H)
    for i in range(count):
        n = state.episode
        lam = state.multipliers
        episode = rollout(model, table, state.rng)
        phi0 = basis.row(0, episode.states[0])
        metrics.value_estimates[i] = critic.v[0] @ phi0
        gaps = critic.w[:, 0] @ phi0

        a_n = schedules.critic_step(n)
        deltas = update_penalized_critic(model, basis, critic, episode, lam, a_n)
        clipped = actor_update(policy, episode, deltas, schedules.actor_step(n))
        moved = (stages, episode.states[:-1])
        table[moved] = policy.distribution_rows(*moved)
        if M:
            update_constraint_critic(model, basis, critic, episode, a_n)
            c_n = schedules.multiplier_step(n)
            state.multipliers, floor_hit, zero_hit = multiplier_update(
                state.multipliers, gaps, c_n, config
            )
            metrics.multiplier_floor_clipped[i] = floor_hit
            metrics.multiplier_zero_clipped[i] = zero_hit
            metrics.gap_estimates[i] = gaps
            metrics.multipliers[i] = state.multipliers

        metrics.returns[i] = episode.total_reward()
        metrics.constraint_totals[i] = episode.total_constraint_costs()
        metrics.theta_clipped[i] = clipped
        state.episode = n + 1
        if progress_every and progress is not None and (n + 1) % progress_every == 0:
            progress(n + 1, config.episodes)
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
    penalty_floor: float = -100.0,
) -> StationarityReport:
    """Exact-gradient stationarity and multiplier-drift check at (theta, lambda)."""
    lam = dp_oracle._coerce_multipliers(model, multipliers)
    grads = dp_oracle.exact_gradient(model, policy, lam, use_baseline=True)
    theta, bound = policy.stage_params, policy.param_bound
    upper = theta >= bound
    lower = theta <= -bound
    proj = grads.copy()
    proj[upper] = np.minimum(proj[upper], 0.0)
    proj[lower] = np.maximum(proj[lower], 0.0)
    raw_norms = np.array([np.linalg.norm(g) for g in grads])
    proj_norms = np.array([np.linalg.norm(g) for g in proj])
    at_bound = int(np.count_nonzero(upper | lower))

    expected_return, totals = dp_oracle.evaluate_policy(model, policy)
    gaps = totals - model.thresholds
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
        expected_return=expected_return,
        constraint_totals=totals,
        multipliers=lam,
    )


def save_checkpoint(state: TrainerState, path) -> None:
    """Write the full trainer state as JSON; `load_checkpoint` resumes exactly."""
    doc = {
        "config": asdict(state.config),
        "episode": state.episode,
        "multipliers": state.multipliers.tolist(),
        "policy": policy_to_doc(state.policy),
        "critic": {"v": state.critic.v.tolist(), "w": state.critic.w.tolist()},
        "rng_state": state.rng.bit_generator.state,
    }
    write_json(path, doc)


def load_checkpoint(path) -> TrainerState:
    with open(path) as f:
        doc = json.load(f)
    cfg = dict(doc["config"])
    cfg["schedules"] = StepSizeSchedules(**cfg["schedules"])
    config = TrainerConfig(**cfg)
    policy = policy_from_doc(doc["policy"])
    v = np.asarray(doc["critic"]["v"], dtype=float)
    critic = CriticState(v, np.asarray(doc["critic"]["w"], dtype=float).reshape((-1,) + v.shape))
    rng = np.random.default_rng()
    rng.bit_generator.state = doc["rng_state"]
    return TrainerState(
        config=config,
        policy=policy,
        critic=critic,
        multipliers=np.asarray(doc["multipliers"], dtype=float),
        episode=int(doc["episode"]),
        rng=rng,
    )
