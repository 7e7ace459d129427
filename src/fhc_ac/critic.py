"""Tabular TD critics for the penalized and constraint value functions.

The critics are one C-contiguous float64 array `critic` (1+M, H+1, S),
stacked like the model's and the episode's (1+M, ...) channel costs:
channel 0 is the penalized critic v, which reads the reward channel and
the multipliers, and channels 1..M the constraint critics w, one per
constraint channel. An episode moves the entry of every stage's visited
state once; entries of states a stage cannot reach stay zero.
`fixed_points` keeps the general per-stage linear-feature ground truth: the
limit the TD iterates converge to for any stage features phi_h, computed
exactly for diagnostics and tests. The tabular critics are its case of one
indicator feature per reachable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dp_oracle
from .mdp_model import FiniteHorizonCMDP
from .policy import NonStationaryPolicy

SINGULAR_TOL = 1e-10


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
    realized stage costs r_h + lambda . g_h and the terminal cost
    r_H + lambda . (g_H - alpha), read from the episode's channel costs;
    returns the H+1 deltas. `step` is a scalar or an (H+1,) array of
    per-stage steps."""
    lam = np.asarray(multipliers, dtype=float)
    gaps = episode.terminal_costs[1:] - model.thresholds
    costs = np.append(
        episode.costs[0] + lam @ episode.costs[1:], episode.terminal_costs[0] + lam @ gaps
    )
    return td_step(flat_view(critic[0]), episode.cells, costs, step)


def channel_offsets(critic: np.ndarray) -> np.ndarray:
    """Where each channel's (H+1, S) table starts in the flat critic table, as
    a (1+M, 1) column: adding an episode's cells gives its (1+M, H+1) entry
    ids."""
    return np.arange(len(critic))[:, None] * critic[0].size


def update_constraint_critic(model, critic, episode, step) -> np.ndarray:
    """One episode of TD updates on all M constraint critics in one step, each
    as `update_penalized_critic` does with the constraint's stage costs and
    its terminal cost minus the threshold; returns the (M, H+1) deltas.
    `step` is a scalar or an (H+1,) array of per-stage steps shared by the M
    critics."""
    terminal = episode.terminal_costs[1:] - model.thresholds
    costs = np.concatenate([episode.costs[1:], terminal[:, None]], axis=1)
    ids = episode.cells + channel_offsets(critic)[1:]
    return td_step(flat_view(critic), ids, costs, step)


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
    features,
) -> FixedPointWeights:
    """Solve the backward least-squares chain the linear TD iterates converge to.

    `features` holds the H+1 stage matrices phi_h, arrays of shape (S, x_h).
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
    d = dp_oracle._occupation(model, mus)
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
            target = stage_costs[:, h].T + steps[h] @ (features[h + 1] @ weights[h + 1])
        phi = features[h]
        gram = phi.T @ (d[h][:, None] * phi)
        weights[h] = _solve_gram(gram, phi.T @ (d[h][:, None] * target), h)
    return FixedPointWeights(
        penalized=[w[:, 0] for w in weights],
        constraints=[list(stages) for stages in zip(*(w.T[1:] for w in weights))],
    )
