"""Time-varying grid world built as a finite-horizon constrained MDP.

Cells are indexed row-major. The nine actions are the displacement pairs
(drow, dcol) in {-1, 0, 1} x {-1, 0, 1}, also row-major, so action 4 is
"stay". A move lands on the intended displacement with probability 1 - slip
and on each of the other eight displacements with probability slip / 8;
every landing cell is clamped to the grid, which merges probability mass at
the walls. Rewards and constraint costs live on cells and change by stage:
a transition at stage h pays the stage-h value of the cell it lands on, and
the stage-H row of each schedule is paid once on the final state.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import dp_oracle
from .mdp_model import (
    FiniteHorizonCMDP,
    json_count,
    json_integer,
    json_real,
    json_table,
    make_cmdp,
    read_document,
    write_json,
)

DISPLACEMENTS = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
NUM_ACTIONS = len(DISPLACEMENTS)


@dataclass(frozen=True, eq=False)
class GridWorldConfig:
    rows: int
    cols: int
    horizon: int
    slip: float
    start: tuple
    stage_rewards: np.ndarray   # (H+1, rows*cols)
    stage_costs: np.ndarray     # (M, H+1, rows*cols)
    thresholds: np.ndarray      # (M,)

    @property
    def num_cells(self) -> int:
        return self.rows * self.cols


def cell_index(row: int, col: int, cols: int) -> int:
    return row * cols + col


def step_kernel(rows: int, cols: int, slip: float) -> np.ndarray:
    """Single-stage transition kernel (S, 9, S) with clamped slips.

    `np.add.at` visits the (state, action, displacement) triples in row-major
    order, so each landing cell sums its displacements' probabilities in
    displacement order."""
    if not 0.0 <= slip < 1.0:
        raise ValueError("slip must lie in [0, 1)")
    n = rows * cols
    r, c = np.divmod(np.arange(n), cols)
    dr, dc = np.array(DISPLACEMENTS).T
    rr = np.clip(r[:, None] + dr, 0, rows - 1)
    cc = np.clip(c[:, None] + dc, 0, cols - 1)
    targets = rr * cols + cc  # (S, 9): the landing cell of each displacement
    probs = np.full((NUM_ACTIONS, NUM_ACTIONS), slip / (NUM_ACTIONS - 1))  # [action, displacement]
    np.fill_diagonal(probs, 1.0 - slip)
    kernel = np.zeros((n, NUM_ACTIONS, n))
    index = (np.arange(n)[:, None, None], np.arange(NUM_ACTIONS)[:, None], targets[:, None, :])
    np.add.at(kernel, index, probs)
    return kernel


def build_gridworld(config: GridWorldConfig) -> FiniteHorizonCMDP:
    """Expand a grid-world description into stage-indexed model tables.

    The (H, S, A, S) kernels and the (1+M, H, S, A, S) costs are read-only
    `np.broadcast_to` views of the one step kernel and of the config's
    schedules, stacked once into (1+M, H+1, S), so no table is copied
    H-fold: every stage shares the kernel, and a transition's reward and
    costs are the stage values of the cell it lands on. Raises ValueError
    for a horizon below 1, a start cell outside the grid or schedules of the
    wrong shape.
    """
    rows, cols, H = config.rows, config.cols, config.horizon
    if H < 1:
        raise ValueError(f"horizon must be at least 1, got {H}")
    n = rows * cols
    rewards_sched = np.asarray(config.stage_rewards, dtype=float)
    costs_sched = np.asarray(config.stage_costs, dtype=float)
    M = costs_sched.shape[0]
    if rewards_sched.shape != (H + 1, n):
        raise ValueError(f"stage_rewards must have shape {(H + 1, n)}")
    if costs_sched.shape != (M, H + 1, n):
        raise ValueError(f"stage_costs must have shape {(M, H + 1, n)}")
    r0, c0 = config.start
    if not (0 <= r0 < rows and 0 <= c0 < cols):
        raise ValueError(f"start cell {config.start} outside the grid")

    shape = (H, n, NUM_ACTIONS, n)
    schedules = np.concatenate([rewards_sched[None], costs_sched])  # (1+M, H+1, n)
    kernel = step_kernel(rows, cols, config.slip)
    beta = np.zeros(n)
    beta[cell_index(r0, c0, cols)] = 1.0
    return make_cmdp(
        kernels=np.broadcast_to(kernel, shape),
        costs=np.broadcast_to(schedules[:, :H, None, None, :], (1 + M,) + shape),
        terminal_costs=schedules[:, H],
        thresholds=np.asarray(config.thresholds, dtype=float),
        initial_distribution=beta,
    )


def random_schedule(
    rng: np.random.Generator,
    num_cells: int,
    horizon: int,
    cells_per_stage: int,
    low: float,
    high: float,
) -> np.ndarray:
    """Per-stage sparse cell values: `cells_per_stage` cells drawn per stage."""
    if not 0 <= cells_per_stage <= num_cells:
        raise ValueError("cells_per_stage outside [0, num_cells]")
    if not np.isfinite([low, high]).all():
        raise ValueError(f"cell value range ({low}, {high}) is not finite")
    out = np.zeros((horizon + 1, num_cells))
    for h in range(horizon + 1):
        chosen = rng.choice(num_cells, size=cells_per_stage, replace=False)
        out[h, chosen] = rng.uniform(low, high, size=cells_per_stage)
    return out


def random_gridworld(rows: int, cols: int, horizon: int, seed: int) -> GridWorldConfig:
    """Draw stagewise reward and cost placements; threshold starts at zero.

    Slip 0.1 from the top-left cell; per stage, 2 reward cells with values
    in [2, 4) and 3 cost cells with values in [2, 5). Raises ValueError
    unless rows, cols and horizon are at least 1 and the grid has the 3
    distinct cells a stage's costs are drawn on.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"rows and cols must be at least 1, got rows={rows} cols={cols}")
    n = rows * cols
    if n < 3:
        raise ValueError(f"a {rows}x{cols} grid has {n} cells; each stage places 3 cost cells")
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    rng = np.random.default_rng(seed)
    stage_rewards = random_schedule(rng, n, horizon, 2, 2.0, 4.0)
    stage_costs = random_schedule(rng, n, horizon, 3, 2.0, 5.0)[None]
    return GridWorldConfig(
        rows=rows,
        cols=cols,
        horizon=horizon,
        slip=0.1,
        start=(0, 0),
        stage_rewards=stage_rewards,
        stage_costs=stage_costs,
        thresholds=np.zeros(1),
    )


def benchmark_gridworld() -> GridWorldConfig:
    """Fixed benchmark layout on a 4x4 grid with H=10 and slip 0.1: a lit
    central block with one costly cell.

    Every stage after the first landing pays the same reward (4.0 plus a
    small stage-dependent wiggle) on each of the four central cells and -1
    everywhere else, and the
    top-left cell of the block additionally carries one unit of constraint
    cost per landing plus a 1e-6 reward nudge. The nudge only pins the exact
    solver's tie-break — without it, backward induction picks between the
    otherwise identical block cells on float-rounding noise — so the
    reward-greedy policy parks on the costly cell and the threshold, 0.6 of
    its cost, reflects a policy that ignores the constraint. At stochastic-
    gradient scale the nudge is invisible, so a learner feels no pull toward
    the costly cell and can satisfy the constraint at no cost in return.
    Episodes start on the block's cost-free far corner, so every stage offers
    several equally good actions, and the outside penalty makes even a
    freshly initialized critic grade exits as bad, so early actor steps push
    toward the block on every seed; both keep run-to-run variance low.
    """
    rows, cols, horizon = 4, 4, 10
    n = rows * cols
    mid_r, mid_c = rows // 2, cols // 2
    block = [
        cell_index(r, c, cols)
        for r in (mid_r - 1, mid_r)
        for c in (mid_c - 1, mid_c)
    ]
    costly = block[0]
    rewards = np.zeros((horizon + 1, n))
    costs = np.zeros((1, horizon + 1, n))
    for h in range(1, horizon + 1):
        rewards[h, :] = -1.0
        rewards[h, block] = 4.0 + 0.1 * (h % 3)
        rewards[h, costly] += 1e-6
        costs[0, h, costly] = 1.0
    config = GridWorldConfig(
        rows=rows,
        cols=cols,
        horizon=horizon,
        slip=0.1,
        start=(mid_r, mid_c),
        stage_rewards=rewards,
        stage_costs=costs,
        thresholds=np.ones(1),
    )
    return calibrate_threshold(config, 0.6)


def calibrate_threshold(config: GridWorldConfig, fraction: float) -> GridWorldConfig:
    """Set each threshold to `fraction` of the unconstrained policy's cost.

    The reward-greedy policy ignores the constraints, so its expected total
    costs measure how expensive unconstrained behavior is; scaling them down
    produces thresholds that actually bind. Raises ValueError unless
    `fraction` is positive and finite.
    """
    if not (math.isfinite(fraction) and fraction > 0):
        raise ValueError(f"threshold fraction must be positive and finite, got {fraction}")
    model = build_gridworld(config)
    actions = dp_oracle.greedy_response(model, np.zeros(model.num_constraints))
    _, unconstrained_costs = dp_oracle.evaluate_deterministic(model, actions)
    return dataclasses.replace(config, thresholds=fraction * unconstrained_costs)


def save_gridworld_config(config: GridWorldConfig, path) -> None:
    write_json(path, gridworld_config_to_doc(config))


def load_gridworld_config(path) -> GridWorldConfig:
    return read_document(path, gridworld_config_from_doc)


def gridworld_config_from_doc(doc: dict) -> GridWorldConfig:
    """The grid world a `save_gridworld_config` document describes. Raises
    ValueError unless rows, cols and horizon are non-negative JSON integers,
    start a list of two JSON integers, slip a JSON number, thresholds a list
    and every table holds only JSON numbers."""
    rows, cols, horizon = (json_count(doc, key) for key in ("rows", "cols", "horizon"))
    n = rows * cols
    start = doc["start"]
    if not (type(start) is list and len(start) == 2 and all(map(json_integer, start))):
        raise ValueError(f"'start' must be a list of two integers, got {start!r}")
    if not json_real(doc["slip"]):
        raise ValueError(f"'slip' must be a number, got {doc['slip']!r}")
    thresholds = json_table(doc, "thresholds")
    if thresholds.ndim != 1:
        raise ValueError(f"'thresholds' must be a list of numbers, got {doc['thresholds']!r}")
    return GridWorldConfig(
        rows=rows,
        cols=cols,
        horizon=horizon,
        slip=float(doc["slip"]),
        start=tuple(start),
        stage_rewards=json_table(doc, "stage_rewards"),
        stage_costs=json_table(doc, "stage_costs").reshape(
            len(thresholds), horizon + 1, n
        ),
        thresholds=thresholds,
    )


def gridworld_config_to_doc(config: GridWorldConfig) -> dict:
    return {
        "rows": config.rows,
        "cols": config.cols,
        "horizon": config.horizon,
        "slip": config.slip,
        "start": list(config.start),
        "stage_rewards": config.stage_rewards.tolist(),
        "stage_costs": config.stage_costs.tolist(),
        "thresholds": config.thresholds.tolist(),
    }
