"""Per-stage linear TD critics for the penalized and constraint value functions.

Each stage h = 0..H owns an independent weight vector over stage features
phi_h; episodes update every stage once. The limiting weights solve a
backward chain of weighted least-squares projections, computed here exactly
for diagnostics and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dp_oracle
from .mdp_model import FiniteHorizonCMDP, ValidationReport, reachable_sets
from .policy import NonStationaryPolicy

SINGULAR_TOL = 1e-10


class StageFeatureBasis:
    """H+1 stage feature matrices phi_h of shape (S, x_h), in one padded tensor.

    `features` is (H+1, S, X) with X the widest stage; stage h fills its first
    x_h columns and the rest stay zero, so the TD step of every stage is one
    gather, one multiply-sum and one add over padded (H+1, X) weights. Rows
    for states outside the stage's reachable set are zero by construction;
    those states carry no occupation mass, so they never enter updates or the
    limiting equations.
    """

    def __init__(self, matrices, reachable):
        matrices = [np.asarray(m, dtype=float) for m in matrices]
        self.reachable = [np.asarray(r, dtype=np.int64) for r in reachable]
        if len(matrices) != len(self.reachable):
            raise ValueError("need one reachable set per stage matrix")
        if not matrices or any(m.ndim != 2 or len(m) != len(matrices[0]) for m in matrices):
            raise ValueError("stage feature matrices must be 2-D with one row per state")
        self.dims = [m.shape[1] for m in matrices]
        self.features = np.zeros((len(matrices), len(matrices[0]), max(self.dims)))
        for h, m in enumerate(matrices):
            self.features[h, :, : self.dims[h]] = m
        self.stages = np.arange(len(matrices))

    @property
    def horizon(self) -> int:
        return len(self.dims) - 1

    def dim(self, h: int) -> int:
        return self.dims[h]

    def feature_matrix(self, h: int) -> np.ndarray:
        """phi_h without padding, shape (S, x_h), as a view."""
        return self.features[h, :, : self.dims[h]]

    @property
    def matrices(self) -> list:
        return [self.feature_matrix(h) for h in range(self.horizon + 1)]

    def row(self, h: int, s: int) -> np.ndarray:
        """phi_h(s) padded to X, the layout of the critic weights."""
        return self.features[h, s]


def tabular_basis(model: FiniteHorizonCMDP) -> StageFeatureBasis:
    """One indicator feature per reachable state at each stage; x_h = |S_h|."""
    sets = reachable_sets(model)
    matrices = []
    for r in sets:
        mat = np.zeros((model.num_states, len(r)))
        mat[r, np.arange(len(r))] = 1.0
        matrices.append(mat)
    return StageFeatureBasis(matrices, sets)


def random_basis(
    model: FiniteHorizonCMDP, rng: np.random.Generator, dims=None
) -> StageFeatureBasis:
    """Dense Gaussian features on each reachable set, full column rank.

    `dims` may be an int, a per-stage sequence, or None for full dimension
    |S_h| at every stage.
    """
    sets = reachable_sets(model)
    if dims is None:
        stage_dims = [len(r) for r in sets]
    elif np.isscalar(dims):
        stage_dims = [min(int(dims), len(r)) for r in sets]
    else:
        stage_dims = [int(x) for x in dims]
    matrices = []
    for r, x in zip(sets, stage_dims):
        if not 1 <= x <= len(r):
            raise ValueError(f"stage dimension {x} outside [1, {len(r)}]")
        mat = np.zeros((model.num_states, x))
        for _ in range(100):
            block = rng.normal(size=(len(r), x))
            if np.linalg.matrix_rank(block) == x:
                break
        else:  # pragma: no cover - probability zero
            raise np.linalg.LinAlgError("could not draw full-rank features")
        mat[r] = block
        matrices.append(mat)
    return StageFeatureBasis(matrices, sets)


def validate_basis(basis: StageFeatureBasis, model: FiniteHorizonCMDP) -> ValidationReport:
    """Check stage count, shapes, finiteness, and rank on the reachable sets."""
    violations = []
    notes = []
    sets = reachable_sets(model)
    if basis.horizon != model.horizon:
        violations.append(
            f"basis covers {basis.horizon + 1} stages, model needs {model.horizon + 1}"
        )
        return ValidationReport(False, violations, notes)
    for h, r in enumerate(sets):
        mat = basis.feature_matrix(h)
        if mat.shape[0] != model.num_states:
            violations.append(f"stage {h}: feature matrix shape {mat.shape} invalid")
            continue
        x = mat.shape[1]
        if x < 1:
            violations.append(f"stage {h}: zero feature dimension")
            continue
        if not np.all(np.isfinite(mat)):
            violations.append(f"stage {h}: non-finite feature entries")
            continue
        if x > len(r):
            violations.append(
                f"stage {h}: dimension {x} exceeds {len(r)} reachable states"
            )
            continue
        rank = np.linalg.matrix_rank(mat[r])
        if rank < x:
            violations.append(
                f"stage {h}: features have rank {rank} < {x} on the reachable set"
            )
    notes.append(f"stage dimensions: {[basis.dim(h) for h in range(basis.horizon + 1)]}")
    return ValidationReport(not violations, violations, notes)


@dataclass
class CriticState:
    """Mutable weights padded to the widest stage: `v` (H+1, X) for the penalized
    critic, `w` (M, H+1, X) for the constraint critics; `v[h, :x_h]` and
    `w[k, h, :x_h]` are stage h's weights and the padding stays zero."""

    v: np.ndarray
    w: np.ndarray

    def copy(self) -> "CriticState":
        return CriticState(self.v.copy(), self.w.copy())


def zero_critic(basis: StageFeatureBasis, num_constraints: int) -> CriticState:
    stages, _, width = basis.features.shape
    return CriticState(np.zeros((stages, width)), np.zeros((num_constraints, stages, width)))


def _td_errors(basis, weights, episode, stage_costs, terminal_cost):
    """All H+1 temporal differences of critics with padded `weights` (..., H+1, X).

    Leading axes stack critics: `stage_costs` is (..., H) and `terminal_cost`
    (...). Returns the deltas (..., H+1) and the gathered features
    phi_h(s_h), (H+1, X), which every stacked critic shares.
    """
    phi = basis.features[basis.stages, episode.states]
    vals = (weights * phi).sum(axis=-1)
    deltas = np.empty(vals.shape)
    deltas[..., :-1] = stage_costs + vals[..., 1:] - vals[..., :-1]
    deltas[..., -1] = terminal_cost - vals[..., -1]
    return deltas, phi


def _td_step(basis, weights, episode, costs, step) -> np.ndarray:
    """Move `weights` in place by step * delta_h * phi_h(s_h) at every stage;
    returns the deltas."""
    deltas, phi = _td_errors(basis, weights, episode, *costs)
    weights += (step * deltas)[..., None] * phi
    return deltas


def _penalized_costs(model, episode, multipliers):
    """Realized penalized stage costs and the penalized terminal cost."""
    lam = np.asarray(multipliers, dtype=float)
    costs = episode.rewards + lam @ episode.constraint_costs
    cterm = episode.terminal_reward + lam @ (
        episode.terminal_constraint_costs - model.thresholds
    )
    return costs, cterm


def _constraint_costs(model, episode):
    """Realized stage costs of every constraint (M, H) and the terminal costs
    minus the thresholds (M,)."""
    return episode.constraint_costs, episode.terminal_constraint_costs - model.thresholds


def td_errors_penalized(model, basis, critic, episode, multipliers) -> np.ndarray:
    """All H+1 temporal differences of the penalized critic, at current weights.

    Stage h < H compares the realized penalized cost plus the next stage's
    estimate against stage h's estimate; the terminal entry compares the
    penalized terminal cost against the terminal estimate.
    """
    costs = _penalized_costs(model, episode, multipliers)
    return _td_errors(basis, critic.v, episode, *costs)[0]


def td_errors_constraint(model, basis, critic, episode) -> np.ndarray:
    """The H+1 temporal differences of all M constraint critics, (M, H+1), at
    current weights."""
    return _td_errors(basis, critic.w, episode, *_constraint_costs(model, episode))[0]


def update_penalized_critic(model, basis, critic, episode, multipliers, step) -> np.ndarray:
    """One episode of TD updates on the penalized critic; returns the deltas.

    Every delta reads the weights held at episode start, and then
    v[h] += step * delta_h * phi_h(s_h) at every stage in one add. That equals
    the in-order sweep over stages, because each stage's weights are touched
    once and delta_h reads only stages h and h+1 before their own updates.
    """
    return _td_step(basis, critic.v, episode, _penalized_costs(model, episode, multipliers), step)


def update_constraint_critic(model, basis, critic, episode, step) -> np.ndarray:
    """One episode of TD updates on all M constraint critics in one step, each
    as `update_penalized_critic` does; returns the (M, H+1) deltas."""
    return _td_step(basis, critic.w, episode, _constraint_costs(model, episode), step)


def _solve_gram(gram: np.ndarray, rhs: np.ndarray, h: int) -> np.ndarray:
    u, sig, vt = np.linalg.svd(gram)
    if sig.size == 0 or sig.min() <= SINGULAR_TOL:
        raise np.linalg.LinAlgError(
            f"feature Gram matrix at stage {h} is numerically singular "
            f"(smallest singular value {0.0 if sig.size == 0 else sig.min():.3e})"
        )
    return vt.T @ ((u.T @ rhs) / sig[:, None])


@dataclass(frozen=True)
class FixedPointWeights:
    """Limiting critic weights at fixed policy and multipliers."""

    penalized: list           # H+1 weight vectors
    constraints: list         # M lists of H+1 weight vectors


def fixed_points(
    model: FiniteHorizonCMDP,
    policy: NonStationaryPolicy,
    multipliers,
    basis: StageFeatureBasis,
) -> FixedPointWeights:
    """Solve the backward least-squares chain the TD iterates converge to.

    At the terminal stage the weights are the occupation-weighted projection
    of the terminal cost; below, each stage projects its expected one-step
    target built from the next stage's already-solved approximation. The
    penalized and the M constraint critics share the stage Gram matrices, so
    one chain solves all 1+M of them. Raises `LinAlgError` when a stage's
    feature Gram matrix is singular under the policy's occupation measure.
    """
    lam = dp_oracle._coerce_multipliers(model, multipliers)
    H = model.horizon
    mus = dp_oracle._distribution_matrices(model, policy)
    d = dp_oracle.occupation_measures(model, policy)
    steps = np.einsum("hij,hijk->hik", mus, model.kernels)
    # Expected one-step costs under the policy, (1+M, H, S): the penalized
    # channel first, then the M constraint channels.
    expected = np.sum(mus * model.channel_costs, axis=-1)
    terminal = model.channel_terminal
    stage_costs = np.concatenate([dp_oracle._penalize(expected, lam)[None], expected[1:]])
    terminal = np.concatenate([dp_oracle._penalize(terminal, lam)[None], terminal[1:]])

    weights = [None] * (H + 1)   # stage h: (x_h, 1+M), one column per critic
    target = terminal.T
    for h in range(H, -1, -1):
        if h < H:
            next_values = basis.feature_matrix(h + 1) @ weights[h + 1]
            target = stage_costs[:, h].T + steps[h] @ next_values
        phi = basis.feature_matrix(h)
        gram = phi.T @ (d[h][:, None] * phi)
        weights[h] = _solve_gram(gram, phi.T @ (d[h][:, None] * target), h)
    return FixedPointWeights(
        penalized=[w[:, 0] for w in weights],
        constraints=[list(stages) for stages in zip(*(w.T[1:] for w in weights))],
    )
