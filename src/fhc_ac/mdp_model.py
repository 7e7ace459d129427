"""Finite-horizon constrained MDP: dense stage-indexed tables plus episode sampling.

States and actions are global integer ids; every action is feasible in every
state. Decisions happen at stages 0..H-1 and the process terminates at stage H.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

PROB_TOL = 1e-12


@dataclass
class ValidationReport:
    """Outcome of a non-throwing validity check: `ok` plus one line per violation."""

    ok: bool
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class FiniteHorizonCMDP:
    """Stage-indexed CMDP tables.

    Shapes: kernels and rewards are (H, S, A, S); constraint_costs is
    (M, H, S, A, S); terminal_reward (S,); terminal_constraint_costs (M, S);
    thresholds (M,); initial_distribution (S,). Immutable after construction
    and safe to share across concurrent runs: no array is changed in place,
    so the derived channel tables below are computed once and cached.
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
    rewards: np.ndarray
    terminal_reward: float
    constraint_costs: np.ndarray
    terminal_constraint_costs: np.ndarray
    action_probs: np.ndarray  # (H, A): the rows mu_h(s_h, .) the actions were drawn from

    def total_reward(self) -> float:
        return float(self.rewards.sum() + self.terminal_reward)

    def total_constraint_costs(self) -> np.ndarray:
        return self.constraint_costs.sum(axis=1) + self.terminal_constraint_costs


def sample_index(probs: list, u: float) -> int:
    """Inverse-CDF draw: the first index whose running sum of `probs` exceeds u.

    Returns the last index when no running sum does (round-off below 1). This
    is min(searchsorted(cumsum(probs), u, side="right"), len - 1) on plain
    floats, which on short rows is several times cheaper than the array calls.
    A NaN running sum counts as exceeding u, as it does in searchsorted.
    """
    total = 0.0
    for i, p in enumerate(probs):
        total += p
        if not total <= u:
            return i
    return len(probs) - 1


def rollout(model: FiniteHorizonCMDP, table: np.ndarray, rng: np.random.Generator) -> Episode:
    """Sample a full episode: s_0 ~ beta, a_h ~ table[h, s_h], s_{h+1} ~ p_h(s_h, a_h, .).

    `table` holds the action distributions of every stage and state, shape
    (H, S, A), e.g. `NonStationaryPolicy.distribution_table()`. The episode
    draws 2H+1 uniforms from `rng`: one for s_0 from the model's initial
    distribution, then an action and a successor per stage. Raises ValueError
    when the table does not cover the model's horizon.
    """
    horizon = model.horizon
    if table.shape[0] != horizon:
        raise ValueError(
            f"distribution table has {table.shape[0]} stages, model horizon {horizon}"
        )
    # One block draw yields the same uniforms, in the same order, as drawing
    # them one at a time.
    uniforms = iter(rng.random(2 * horizon + 1).tolist())
    s = sample_index(model.initial_distribution.tolist(), next(uniforms))

    kernels = model.kernels
    visited = [s]
    chosen = []
    for h in range(horizon):
        a = sample_index(table[h, s].tolist(), next(uniforms))
        s = sample_index(kernels[h, s, a].tolist(), next(uniforms))
        chosen.append(a)
        visited.append(s)

    states = np.array(visited, dtype=np.int64)
    actions = np.array(chosen, dtype=np.int64)
    steps = (np.arange(horizon), states[:-1], actions, states[1:])
    return Episode(
        states=states,
        actions=actions,
        rewards=np.asarray(model.rewards[steps], dtype=float),
        terminal_reward=float(model.terminal_reward[s]),
        constraint_costs=np.asarray(model.constraint_costs[(slice(None),) + steps], dtype=float),
        terminal_constraint_costs=model.terminal_constraint_costs[:, s].copy(),
        action_probs=table[steps[:2]],
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
        "kernels": model.kernels.tolist(),
        "rewards": model.rewards.tolist(),
        "terminal_reward": model.terminal_reward.tolist(),
        "constraint_costs": model.constraint_costs.tolist(),
        "terminal_constraint_costs": model.terminal_constraint_costs.tolist(),
        "thresholds": model.thresholds.tolist(),
        "initial_distribution": model.initial_distribution.tolist(),
    }
    write_json(path, doc)


def write_json(path, doc) -> None:
    """Write `doc` to `path` as exactly the bytes `json.dump(doc, f)` writes.

    `json.dump` streams through the pure-Python encoder. Here each innermost
    row or matrix (a list of scalars, or a list of such lists) is one
    `json.dumps` call, which runs the C encoder, and the text is written
    piece by piece, never held whole. Dict keys must be str: any other key
    raises TypeError.
    """
    with open(path, "w") as f:
        f.writelines(_json_chunks(doc))


def _nested(item) -> bool:
    """A dict, or a list or tuple holding a container: not encoded in one call."""
    return isinstance(item, dict) or (
        isinstance(item, (list, tuple)) and any(isinstance(x, (dict, list, tuple)) for x in item)
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
    elif isinstance(obj, (list, tuple)) and any(map(_nested, obj)):
        yield "["
        for i, item in enumerate(obj):
            if i:
                yield ", "
            yield from _json_chunks(item)
        yield "]"
    else:
        yield json.dumps(obj)


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
