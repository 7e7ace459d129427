"""Finite-horizon constrained MDP: dense stage-indexed tables plus episode sampling.

States and actions are global integer ids; every action is feasible in every
state. Decisions happen at stages 0..H-1 and the process terminates at stage H.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

PROB_TOL = 1e-12


@dataclass
class ValidationReport:
    """Outcome of a non-throwing validity check: `ok` plus one line per violation."""

    ok: bool
    violations: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class FiniteHorizonCMDP:
    """Stage-indexed CMDP tables.

    Shapes: kernels and rewards are (H, S, A, S); constraint_costs is
    (M, H, S, A, S); terminal_reward (S,); terminal_constraint_costs (M, S);
    thresholds (M,); initial_distribution (S,). Immutable after construction
    and safe to share across concurrent runs: no array is changed in place,
    so the derived tables below are computed once, on first use, and cached.
    `channel_costs` is (1+M, H, S, A) and `channel_terminal` (1+M, S), both
    read by the oracle; `train` reads its terminal gaps from the latter.
    `successor_cdf` is read only by `sampler`: 12 bytes
    per nonzero kernel entry plus 8 per kernel row, about 2.0 MB for the
    152,100 nonzero entries of the 5x5 H=100 grid world.
    """

    kernels: np.ndarray
    rewards: np.ndarray
    terminal_reward: np.ndarray
    constraint_costs: np.ndarray
    terminal_constraint_costs: np.ndarray
    thresholds: np.ndarray
    initial_distribution: np.ndarray

    @property
    def horizon(self) -> int:
        return self.kernels.shape[0]

    @property
    def num_states(self) -> int:
        return self.kernels.shape[1]

    @property
    def num_actions(self) -> int:
        return self.kernels.shape[2]

    @property
    def num_constraints(self) -> int:
        return self.thresholds.shape[0]

    @cached_property
    def channel_costs(self) -> np.ndarray:
        """sum_s' p_h(s, a, s') c_h(s, a, s') of every channel, (1+M, H, S, A):
        channel 0 is the reward and channel k the k-th constraint cost."""
        costs = np.empty((1 + self.num_constraints,) + self.kernels.shape[:-1])
        costs[0] = np.einsum("hijk,hijk->hij", self.kernels, self.rewards)
        costs[1:] = np.einsum("hijk,chijk->chij", self.kernels, self.constraint_costs)
        return costs

    @cached_property
    def channel_terminal(self) -> np.ndarray:
        """Terminal cost of every channel, shape (1+M, S); the constraint rows
        already subtract their thresholds."""
        gaps = self.terminal_constraint_costs - self.thresholds[:, None]
        return np.concatenate([self.terminal_reward[None], gaps])

    @cached_property
    def successor_cdf(self) -> tuple[memoryview, memoryview, memoryview]:
        """Sparse running sums of the kernel rows, as flat (offsets, successors, sums).

        Row r = (h*S + s)*A + a owns entries offsets[r] to offsets[r+1]: its
        nonzero successors in increasing order, and the running sum of the
        row up to and including each of them. The sums are `np.cumsum`'s,
        which adds left to right, so they equal a running total taken one
        entry at a time bit for bit; the zero entries left out add nothing to
        it. Raises ValueError on a negative or non-finite kernel entry, where
        the sums would not be non-decreasing and bisection would not find the
        first of them above a uniform.
        """
        kernels = self.kernels
        if not np.isfinite(kernels).all() or (kernels < 0).any():
            raise ValueError("successor_cdf needs finite, non-negative kernel entries")
        stage_rows = self.num_states * self.num_actions
        nonzero = kernels != 0
        offsets = np.zeros(self.horizon * stage_rows + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(nonzero, axis=-1), out=offsets[1:])
        successor_ids = np.arange(self.num_states, dtype=np.int32)
        successors = np.broadcast_to(successor_ids, kernels.shape)[nonzero]
        sums = np.empty(offsets[-1])
        for h, stage in enumerate(kernels):  # stage by stage keeps the temporaries small
            lo, hi = offsets[h * stage_rows], offsets[(h + 1) * stage_rows]
            sums[lo:hi] = np.cumsum(stage, axis=-1)[nonzero[h]]
        return memoryview(offsets), memoryview(successors), memoryview(sums)


def make_cmdp(
    kernels,
    rewards,
    terminal_reward,
    initial_distribution,
    constraint_costs=None,
    terminal_constraint_costs=None,
    thresholds=None,
) -> FiniteHorizonCMDP:
    """Build a FiniteHorizonCMDP from array-likes, checking shape consistency.

    Constraint arguments may be omitted together for an unconstrained model
    (M = 0). Raises ValueError on inconsistent shapes; numeric invariants
    (row sums, finiteness) are checked by `validate`, not here.
    """
    kernels = np.asarray(kernels, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    terminal_reward = np.asarray(terminal_reward, dtype=float)
    initial_distribution = np.asarray(initial_distribution, dtype=float)
    if kernels.ndim != 4 or kernels.shape[1] != kernels.shape[3]:
        raise ValueError(f"kernels must have shape (H, S, A, S), got {kernels.shape}")
    horizon, num_states, num_actions, _ = kernels.shape
    if rewards.shape != kernels.shape:
        raise ValueError(f"rewards shape {rewards.shape} != kernels shape {kernels.shape}")
    if terminal_reward.shape != (num_states,):
        raise ValueError(f"terminal_reward must have shape ({num_states},)")
    if initial_distribution.shape != (num_states,):
        raise ValueError(f"initial_distribution must have shape ({num_states},)")

    if constraint_costs is None:
        constraint_costs = np.zeros((0,) + kernels.shape)
        terminal_constraint_costs = np.zeros((0, num_states))
        thresholds = np.zeros(0)
    else:
        constraint_costs = np.asarray(constraint_costs, dtype=float)
        terminal_constraint_costs = np.asarray(terminal_constraint_costs, dtype=float)
        thresholds = np.asarray(thresholds, dtype=float)
        if constraint_costs.ndim != 5 or constraint_costs.shape[1:] != kernels.shape:
            raise ValueError(
                f"constraint_costs must have shape (M, {horizon}, {num_states}, "
                f"{num_actions}, {num_states}), got {constraint_costs.shape}"
            )
        num_constraints = constraint_costs.shape[0]
        if terminal_constraint_costs.shape != (num_constraints, num_states):
            raise ValueError("terminal_constraint_costs shape mismatch")
        if thresholds.shape != (num_constraints,):
            raise ValueError("thresholds length must equal the number of constraints")

    return FiniteHorizonCMDP(
        kernels=kernels,
        rewards=rewards,
        terminal_reward=terminal_reward,
        constraint_costs=constraint_costs,
        terminal_constraint_costs=terminal_constraint_costs,
        thresholds=thresholds,
        initial_distribution=initial_distribution,
    )


def validate(model: FiniteHorizonCMDP) -> ValidationReport:
    """Check the model invariants, reporting every violation instead of raising."""
    violations = []
    row_sums = model.kernels.sum(axis=3)
    bad = np.argwhere(np.abs(row_sums - 1.0) > PROB_TOL)
    for h, s, a in bad:
        violations.append(
            f"kernel row (h={h}, s={s}, a={a}) sums to {row_sums[h, s, a]:.12g}, expected 1"
        )
    neg = np.argwhere(model.kernels < 0)
    for h, s, a, s2 in neg:
        violations.append(f"kernel entry (h={h}, s={s}, a={a}, s'={s2}) is negative")

    beta_sum = model.initial_distribution.sum()
    if abs(beta_sum - 1.0) > PROB_TOL:
        violations.append(f"initial distribution sums to {beta_sum:.12g}, expected 1")
    if (model.initial_distribution < 0).any():
        violations.append("initial distribution has negative entries")

    for name, table in [
        ("kernels", model.kernels),
        ("rewards", model.rewards),
        ("terminal_reward", model.terminal_reward),
        ("constraint_costs", model.constraint_costs),
        ("terminal_constraint_costs", model.terminal_constraint_costs),
        ("thresholds", model.thresholds),
        ("initial_distribution", model.initial_distribution),
    ]:
        if not np.isfinite(table).all():
            violations.append(f"{name} contains non-finite values")

    return ValidationReport(ok=not violations, violations=violations)


@dataclass(frozen=True)
class Episode:
    """One sampled trajectory with realized rewards and constraint costs."""

    states: np.ndarray
    actions: np.ndarray
    cells: np.ndarray  # (H+1,): h*S + s_h, the row of (h, s_h) in any stage-by-state table
    rewards: np.ndarray
    terminal_reward: float
    constraint_costs: np.ndarray
    terminal_constraint_costs: np.ndarray
    action_probs: np.ndarray  # (H, A): the rows mu_h(s_h, .) the actions were drawn from

    def total_reward(self) -> float:
        return float(self.rewards.sum() + self.terminal_reward)

    def total_constraint_costs(self) -> np.ndarray:
        return self.constraint_costs.sum(axis=1) + self.terminal_constraint_costs


def sampler(model: FiniteHorizonCMDP, table: np.ndarray, running: np.ndarray):
    """Prepare the flat views an episode draw reads; returns
    draw(rng) -> (cells, transitions, last).

    `table` holds the action distributions of every stage and state, shape
    (H, S, A), e.g. `NonStationaryPolicy.distribution_table()`, and `running`
    is `np.cumsum(table, axis=-1)`. Both are read through views, so rows the
    caller rewrites in place between draws are seen by the next draw. Each
    draw takes 2H+1 uniforms from `rng` in one block: one for s_0 from the
    model's initial distribution, then an action and a successor per stage.

    A draw returns a lean record, no `Episode`: `cells` (H+1,), the ids
    h*S + s_h of (h, s_h) in any stage-by-state table and so the (H*S, A)
    rows of `table`; `transitions` (H,), the flat ids
    ((h*S + s_h)*A + a_h)*S + s_{h+1} of the (H, S, A, S) reward and cost
    tables, of which transitions // S are the flat ids of `table`; and `last`,
    the terminal state s_H as an int. `rollout` builds the `Episode`.

    Every draw is a bisection on running sums computed before the episode:
    s_0 is the first index of the initial distribution's running sums above
    s_0's uniform, the action the first index of running[h, s_h] above the
    action's uniform, and the successor the first nonzero successor in the
    model's `successor_cdf` row whose running sum is above the successor's
    uniform. When no sum is above it (the row sums to less than the uniform
    by round-off) the draw is the last state, or the last action. Each is
    the rule of an inverse-CDF scan of the row (the tests keep one,
    `sample_index`) on the same sums: np.cumsum adds left to right as the
    scan does, bisect_right finds the first sum above the uniform, and the
    kernel entries left out are zeros, whose sums repeat the one before them
    (or are 0 at the front), so none of them can be the first above a
    uniform in [0, 1). Every draw is thus the index the scan returns from
    the same uniform.

    Raises ValueError unless `table` and `running` have shape (H, S, A) and
    are C-contiguous float64 arrays, the layout the flat ids address, and
    unless the initial distribution is finite and non-negative, so that its
    running sums do not decrease.
    """
    horizon, num_states, num_actions = model.horizon, model.num_states, model.num_actions
    shape = (horizon, num_states, num_actions)
    if table.shape != shape or running.shape != shape:
        raise ValueError(
            f"distribution table {table.shape} and running sums {running.shape} "
            f"must both have the model's shape {shape}"
        )
    for name, array in [("distribution table", table), ("running sums", running)]:
        if array.dtype != np.float64 or not array.flags.c_contiguous:
            raise ValueError(f"{name} must be a C-contiguous float64 array")
    initial = model.initial_distribution
    if not np.isfinite(initial).all() or (initial < 0).any():
        raise ValueError("sampling needs a finite, non-negative initial distribution")
    initial_sums = np.cumsum(initial).tolist()
    offsets, successors, sums = model.successor_cdf
    action_sums = memoryview(running.reshape(-1))
    next_bases = range(num_states, (horizon + 1) * num_states, num_states)
    last_action, last_state = num_actions - 1, num_states - 1
    count = 2 * horizon + 1

    def draw(rng: np.random.Generator):
        # One block draw yields the same uniforms, in the same order, as
        # drawing them one at a time: s_0's, then an (action, successor) pair
        # per stage.
        uniforms = rng.random(count).tolist()
        cell = s = min(bisect_right(initial_sums, uniforms[0]), last_state)
        cells = [cell]
        transitions = []
        for next_base, u_action, u_state in zip(next_bases, uniforms[1::2], uniforms[2::2]):
            # Bisecting the first A-1 sums gives the last action when none of
            # them is above the uniform, whether or not the last sum is.
            lo = cell * num_actions
            row = bisect_right(action_sums, u_action, lo, lo + last_action)
            end = offsets[row + 1]
            j = bisect_right(sums, u_state, offsets[row], end)
            s = successors[j] if j < end else last_state
            transitions.append(row * num_states + s)
            cell = next_base + s
            cells.append(cell)
        return np.array(cells, dtype=np.int64), np.array(transitions, dtype=np.int64), s

    return draw


def rollout(
    model: FiniteHorizonCMDP, table: np.ndarray, running: np.ndarray, rng: np.random.Generator
) -> Episode:
    """Sample a full episode: s_0 ~ beta, a_h ~ table[h, s_h], s_{h+1} ~ p_h(s_h, a_h, .).

    The `Episode` of one draw of `sampler(model, table, running)`, which says
    how each step is drawn and what the arguments must be.
    """
    cells, transitions, last = sampler(model, table, running)(rng)
    num_states, num_actions = model.num_states, model.num_actions
    rewards = model.rewards.reshape(-1)
    costs = model.constraint_costs.reshape(model.num_constraints, rewards.size)
    return Episode(
        states=cells - np.arange(model.horizon + 1) * num_states,
        actions=transitions // num_states % num_actions,
        cells=cells,
        rewards=rewards[transitions],
        terminal_reward=float(model.terminal_reward[last]),
        constraint_costs=costs[:, transitions],
        terminal_constraint_costs=model.terminal_constraint_costs[:, last].copy(),
        action_probs=table.reshape(-1, num_actions)[cells[:-1]],
    )


def reachable_sets(model: FiniteHorizonCMDP) -> list[np.ndarray]:
    """Per-stage reachable state ids S_h, h = 0..H, by kernel support propagation.

    Under strictly positive policies these coincide with the supports of the
    occupation measures, so the sets are policy-independent.
    """
    mask = model.initial_distribution > 0
    sets = [np.flatnonzero(mask)]
    for h in range(model.horizon):
        rows = model.kernels[h][mask]
        mask = (rows > 0).any(axis=(0, 1))
        sets.append(np.flatnonzero(mask))
    return sets


def save_model(model: FiniteHorizonCMDP, path) -> None:
    """Write the model as JSON; finite doubles round-trip bit-exactly."""
    doc = {
        "num_states": model.num_states,
        "num_actions": model.num_actions,
        "horizon": model.horizon,
        "num_constraints": model.num_constraints,
        "kernels": model.kernels,
        "rewards": model.rewards,
        "terminal_reward": model.terminal_reward,
        "constraint_costs": model.constraint_costs,
        "terminal_constraint_costs": model.terminal_constraint_costs,
        "thresholds": model.thresholds,
        "initial_distribution": model.initial_distribution,
    }
    write_json(path, doc)


def write_json(path, doc) -> None:
    """Write `doc` to `path` as exactly the bytes `json.dump(doc, f)` writes,
    where every numpy array in `doc` stands for its `tolist()`.

    `json.dump` streams through the pure-Python encoder. Here each innermost
    row or matrix (a list of scalars, or a list of such lists) is one
    `json.dumps` call, which runs the C encoder, and the text is written
    piece by piece, never held whole. An array is written block by block over
    its leading axes, one `json.dumps(block.tolist())` per trailing 2-D block
    (an array of ndim <= 2 is one block), so no list of the whole array is
    built. Dict keys must be str: any other key raises TypeError.
    """
    with open(path, "w") as f:
        f.writelines(_json_chunks(doc))


def _nested(item) -> bool:
    """A dict, an array, or a list or tuple holding a container or an array:
    not encoded in one call."""
    return isinstance(item, (dict, np.ndarray)) or (
        isinstance(item, (list, tuple))
        and any(isinstance(x, (dict, list, tuple, np.ndarray)) for x in item)
    )


def _json_chunks(obj):
    if isinstance(obj, dict):
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield (", " if i else "") + json.dumps(key) + ": "
            yield from _json_chunks(value)
        yield "}"
    elif (isinstance(obj, np.ndarray) and obj.ndim > 2) or (
        isinstance(obj, (list, tuple)) and any(map(_nested, obj))
    ):
        yield "["
        for i, item in enumerate(obj):
            if i:
                yield ", "
            yield from _json_chunks(item)
        yield "]"
    else:
        yield json.dumps(obj.tolist() if isinstance(obj, np.ndarray) else obj)


def load_model(path) -> FiniteHorizonCMDP:
    with open(path) as f:
        return model_from_doc(json.load(f))


def model_from_doc(doc: dict) -> FiniteHorizonCMDP:
    num_states = int(doc["num_states"])
    horizon = int(doc["horizon"])
    num_actions = int(doc["num_actions"])
    num_constraints = int(doc["num_constraints"])
    constraint_costs = np.asarray(doc["constraint_costs"], dtype=float).reshape(
        num_constraints, horizon, num_states, num_actions, num_states
    )
    terminal_constraint_costs = np.asarray(
        doc["terminal_constraint_costs"], dtype=float
    ).reshape(num_constraints, num_states)
    return make_cmdp(
        kernels=doc["kernels"],
        rewards=doc["rewards"],
        terminal_reward=doc["terminal_reward"],
        initial_distribution=doc["initial_distribution"],
        constraint_costs=constraint_costs,
        terminal_constraint_costs=terminal_constraint_costs,
        thresholds=np.asarray(doc["thresholds"], dtype=float).reshape(num_constraints),
    )
