"""Finite-horizon constrained MDP: stage-indexed tables plus episode sampling.

States and actions are global integer ids; every action is feasible in every
state. Decisions happen at stages 0..H-1 and the process terminates at stage H.
"""

from __future__ import annotations

import json
import sys
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

    Shapes: kernels (H, S, A, S); costs (1+M, H, S, A, S), the 1+M channels
    of the Lagrangian r + lambda . g: channel 0 is the reward and channel k
    the k-th constraint cost; terminal_costs (1+M, S) in the same order;
    thresholds (M,); initial_distribution (S,). The kernels and costs may be
    read-only broadcast views, as `build_gridworld`'s are; their readers take
    stages, or reshapes that stay views, and never a dense copy.
    Immutable after construction and safe to share across concurrent runs:
    no array is changed in place, so the derived tables below are computed
    once, on first use, and cached. `channel_costs` is (1+M, H, S, A) and
    `channel_terminal` (1+M, S), both read by the oracle; `train` reads its
    terminal gaps from the latter. `kernel_sums` is read by `sampler`: 8
    bytes per kernel entry, for the rows of one stage when the kernels have
    a zero stage stride and of all H stages otherwise. That is 18.4 KB for
    the 4x4 grid world, 45 KB for the 5x5 H=100 one, and the size of the
    kernels for a dense model. `rollout` and `train` read the realized
    reward and costs of each step from `costs` itself.
    """

    kernels: np.ndarray
    costs: np.ndarray
    terminal_costs: np.ndarray
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
        """sum_s' p_h(s, a, s') c_h(s, a, s') of every channel, (1+M, H, S, A)."""
        return np.einsum("hijk,chijk->chij", self.kernels, self.costs)

    @cached_property
    def channel_terminal(self) -> np.ndarray:
        """Terminal cost of every channel, shape (1+M, S); the constraint rows
        already subtract their thresholds."""
        terminal = self.terminal_costs.copy()
        terminal[1:] -= self.thresholds[:, None]
        return terminal

    @cached_property
    def kernel_sums(self) -> memoryview:
        """The running sums of every kernel row, `np.cumsum(kernels, axis=-1)`
        as one flat float64 memoryview.

        Row r = (h*S + s)*A + a owns entries r*S to r*S + S-1. np.cumsum adds
        left to right, so each sum equals a running total taken one entry at
        a time bit for bit. When every stage reads one kernel array (a zero
        stage stride, as `build_gridworld`'s view has), only the S*A rows of
        that array are summed, and row s*A + a stands for (h, s, a) at every
        stage h. Raises ValueError on a negative or non-finite kernel entry,
        where the sums would not be non-decreasing and bisection would not
        find the first of them above a uniform.
        """
        kernels = self.kernels
        if kernels.strides[0] == 0:
            kernels = kernels[:1]
        if not np.isfinite(kernels).all() or (kernels < 0).any():
            raise ValueError("kernel_sums needs finite, non-negative kernel entries")
        return memoryview(np.cumsum(kernels, axis=-1).reshape(-1))


def make_cmdp(
    kernels, costs, terminal_costs, thresholds, initial_distribution
) -> FiniteHorizonCMDP:
    """Build a FiniteHorizonCMDP from array-likes, checking shape consistency.

    The M thresholds fix the number of channels, 1+M: a model with no
    constraint has one channel, its reward, and no thresholds. Raises
    ValueError on inconsistent shapes; numeric invariants (row sums,
    finiteness) are checked by `validate`, not here.
    """
    kernels = np.asarray(kernels, dtype=float)
    costs = np.asarray(costs, dtype=float)
    terminal_costs = np.asarray(terminal_costs, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    initial_distribution = np.asarray(initial_distribution, dtype=float)
    if kernels.ndim != 4 or kernels.shape[1] != kernels.shape[3]:
        raise ValueError(f"kernels must have shape (H, S, A, S), got {kernels.shape}")
    if thresholds.ndim != 1:
        raise ValueError(f"thresholds must have shape (M,), got {thresholds.shape}")
    channels, num_states = len(thresholds) + 1, kernels.shape[1]
    if costs.shape != (channels,) + kernels.shape:
        raise ValueError(
            f"costs must have shape {(channels,) + kernels.shape}, got {costs.shape}"
        )
    if terminal_costs.shape != (channels, num_states):
        raise ValueError(
            f"terminal_costs must have shape {(channels, num_states)}, got {terminal_costs.shape}"
        )
    if initial_distribution.shape != (num_states,):
        raise ValueError(f"initial_distribution must have shape ({num_states},)")
    return FiniteHorizonCMDP(
        kernels=kernels,
        costs=costs,
        terminal_costs=terminal_costs,
        thresholds=thresholds,
        initial_distribution=initial_distribution,
    )


def validate(model: FiniteHorizonCMDP) -> ValidationReport:
    """Check the model invariants, reporting every violation instead of raising.

    Kernels with a zero stage stride (`build_gridworld`'s view) repeat one
    step kernel: it is checked once, and each of its violations is reported
    at every stage h, as for a dense copy. Finiteness is checked on the
    distinct values of each table, so no check copies a broadcast view.
    """
    violations = []
    kernels, horizon = model.kernels, model.horizon
    shared = kernels.strides[0] == 0
    if shared:
        kernels = kernels[:1]

    def each_stage(hits):
        return [(h, *at) for h in range(horizon) for _, *at in hits] if shared else hits

    row_sums = kernels.sum(axis=3)
    bad = each_stage(np.argwhere(np.abs(row_sums - 1.0) > PROB_TOL))
    row_sums = np.broadcast_to(row_sums, model.kernels.shape[:3])
    for h, s, a in bad:
        violations.append(
            f"kernel row (h={h}, s={s}, a={a}) sums to {row_sums[h, s, a]:.12g}, expected 1"
        )
    for h, s, a, s2 in each_stage(np.argwhere(kernels < 0)):
        violations.append(f"kernel entry (h={h}, s={s}, a={a}, s'={s2}) is negative")

    beta_sum = model.initial_distribution.sum()
    if abs(beta_sum - 1.0) > PROB_TOL:
        violations.append(f"initial distribution sums to {beta_sum:.12g}, expected 1")
    if (model.initial_distribution < 0).any():
        violations.append("initial distribution has negative entries")

    for name, table in [
        ("kernels", model.kernels),
        ("costs", model.costs),
        ("terminal_costs", model.terminal_costs),
        ("thresholds", model.thresholds),
        ("initial_distribution", model.initial_distribution),
    ]:
        # A zero-stride axis repeats its first slice, which holds its values.
        distinct = table[tuple(slice(None) if step else slice(1) for step in table.strides)]
        if not np.isfinite(distinct).all():
            violations.append(f"{name} contains non-finite values")

    return ValidationReport(ok=not violations, violations=violations)


@dataclass(frozen=True)
class Episode:
    """One sampled trajectory with its realized reward and constraint costs."""

    states: np.ndarray
    actions: np.ndarray
    cells: np.ndarray  # (H+1,): h*S + s_h, the row of (h, s_h) in any stage-by-state table
    costs: np.ndarray  # (1+M, H): every channel's cost of each step, the reward first
    terminal_costs: np.ndarray  # (1+M,): every channel's cost of the final state s_H
    action_probs: np.ndarray  # (H, A): the rows mu_h(s_h, .) the actions were drawn from

    def total_reward(self) -> float:
        return float(self.costs[0].sum() + self.terminal_costs[0])

    def total_constraint_costs(self) -> np.ndarray:
        return self.costs[1:].sum(axis=1) + self.terminal_costs[1:]


def sampler(model: FiniteHorizonCMDP, table: np.ndarray, running: np.ndarray):
    """Prepare the flat views an episode draw reads; returns
    draw(rng) -> (states, actions).

    `table` holds the action distributions of every stage and state, shape
    (H, S, A), e.g. `NonStationaryPolicy.distribution_table()`, and `running`
    is `np.cumsum(table, axis=-1)`. Both are read through views, so rows the
    caller rewrites in place between draws are seen by the next draw. Each
    draw takes 2H+1 uniforms from `rng` in one block: one for s_0 from the
    model's initial distribution, then an action and a successor per stage.

    A draw returns a lean record, no `Episode`: two lists of ints, the states
    s_0..s_H and the actions a_0..a_{H-1}. Lists, so that `train` makes the
    (K, H+1) and (K, H) arrays of K seeds' draws with one conversion each.
    `rollout` builds the `Episode`; it and `train` read what each step pays
    from the model's `costs` at (h, s_h, a_h, s_{h+1}).

    Every draw follows one rule on running sums computed before the episode:
    bisect the first n-1 sums of a row of n, so the draw is the first index
    whose sum is above the uniform, or the last index when no earlier one's
    is, as when round-off leaves the row's sum at or below it. s_0's row is
    the initial distribution's, the action's is running[h, s_h], and the
    successor's is row (h*S + s_h)*A + a_h of the model's `kernel_sums`,
    less a per-stage shift: h*S*A when it holds one stage's rows for every
    stage, 0 when it holds each stage's own. This is the rule of an
    inverse-CDF scan of the row (the tests keep one, `sample_index`) on the
    same sums: np.cumsum adds left to right as the scan does, and
    bisect_right finds the first sum above the uniform. Every draw is thus
    the index the scan returns from the same uniform.

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
    kernel_sums = model.kernel_sums
    action_sums = memoryview(running.reshape(-1))
    next_bases = range(num_states, (horizon + 1) * num_states, num_states)
    stage_rows = num_states * num_actions
    if len(kernel_sums) == stage_rows * num_states:
        shifts = range(0, horizon * stage_rows, stage_rows)
    else:
        shifts = [0] * horizon
    last_action, last_state = num_actions - 1, num_states - 1
    count = 2 * horizon + 1

    def draw(rng: np.random.Generator):
        # One block draw yields the same uniforms, in the same order, as
        # drawing them one at a time: s_0's, then an (action, successor) pair
        # per stage.
        uniforms = rng.random(count).tolist()
        cell = s = bisect_right(initial_sums, uniforms[0], 0, last_state)
        states = [s]
        actions = []
        for next_base, shift, u_action, u_state in zip(
            next_bases, shifts, uniforms[1::2], uniforms[2::2]
        ):
            lo = cell * num_actions
            row = bisect_right(action_sums, u_action, lo, lo + last_action)
            actions.append(row - lo)
            lo = (row - shift) * num_states
            s = bisect_right(kernel_sums, u_state, lo, lo + last_state) - lo
            cell = next_base + s
            states.append(s)
        return states, actions

    return draw


def rollout(
    model: FiniteHorizonCMDP, table: np.ndarray, running: np.ndarray, rng: np.random.Generator
) -> Episode:
    """Sample a full episode: s_0 ~ beta, a_h ~ table[h, s_h], s_{h+1} ~ p_h(s_h, a_h, .).

    The `Episode` of one draw of `sampler(model, table, running)`, which says
    how each step is drawn and what the arguments must be.
    """
    H = model.horizon
    states, actions = map(np.array, sampler(model, table, running)(rng))
    cells = states + np.arange(H + 1) * model.num_states
    return Episode(
        states=states,
        actions=actions,
        cells=cells,
        costs=model.costs[:, np.arange(H), states[:-1], actions, states[1:]],
        terminal_costs=model.terminal_costs[:, states[-1]].copy(),
        action_probs=table.reshape(-1, model.num_actions)[cells[:-1]],
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
    """Write the model as JSON; finite doubles round-trip bit-exactly. The
    file keeps the reward and the constraint costs under their own keys."""
    doc = {
        "num_states": model.num_states,
        "num_actions": model.num_actions,
        "horizon": model.horizon,
        "num_constraints": model.num_constraints,
        "kernels": model.kernels,
        "rewards": model.costs[0],
        "terminal_reward": model.terminal_costs[0],
        "constraint_costs": model.costs[1:],
        "terminal_constraint_costs": model.terminal_costs[1:],
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
    return read_document(path, model_from_doc)


def read_document(path, parse):
    """parse(doc) for the JSON object in the file at `path`; every loader reads
    through it. Raises OSError when the file cannot be read, and ValueError
    naming the file when it is not JSON, its top level is not an object, or
    `parse` raises ValueError or KeyError (a missing key, which it names)."""
    with open(path) as f:
        try:
            doc = json.load(f)
            if not isinstance(doc, dict):
                raise ValueError(f"the top level must be a JSON object, got {type(doc).__name__}")
            return parse(doc)
        except KeyError as e:  # every lookup is into a JSON object
            raise ValueError(f"{path}: missing key {e.args[0]!r}") from None
        except (ValueError, RecursionError) as e:  # RecursionError: JSON nested too deep
            raise ValueError(f"{path}: {e}") from None


def json_object(doc: dict, key: str) -> dict:
    """doc[key] when it is a JSON object; raises ValueError naming the key."""
    value = doc[key]
    if not isinstance(value, dict):
        raise ValueError(f"{key!r} must be a JSON object, got {type(value).__name__}")
    return value


def json_integer(x) -> bool:
    """A JSON integer; booleans are ints in Python but not here."""
    return isinstance(x, int) and not isinstance(x, bool)


def json_real(x) -> bool:
    """A JSON number that is a finite double, booleans excluded."""
    return (json_integer(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def json_count(doc: dict, key: str) -> int:
    """doc[key] when it is a non-negative JSON integer; raises ValueError
    otherwise. `int()` would parse "3" and truncate 3.9, and a reshape to
    a count of -1 would infer it."""
    value = doc[key]
    if not (json_integer(value) and value >= 0):
        raise ValueError(f"{key!r} must be a non-negative integer, got {value!r}")
    return value


def _json_numbers(value, kinds=frozenset({int, float})) -> bool:
    """A JSON number, or nested lists whose leaves are all JSON numbers; the
    leaves' Python types must lie in `kinds`."""
    if type(value) is not list:
        return type(value) in kinds
    found = set(map(type, value))
    if list in found:
        return found == {list} and all(_json_numbers(x, kinds) for x in value)
    return found <= kinds


def json_table(doc: dict, key: str) -> np.ndarray:
    """doc[key] as a float array when it is a JSON number or nested lists of
    them; raises ValueError on a string, boolean or null anywhere in it, which
    `np.asarray(..., dtype=float)` would parse ("0.5") or read as a number
    (true as 1.0, null as NaN), and on an int too large for it (OverflowError)."""
    value = doc[key]
    if not _json_numbers(value):
        raise ValueError(f"{key!r} must hold only JSON numbers")
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError(f"{key!r} holds an integer beyond the float range") from None


def json_counts(doc: dict, key: str) -> np.ndarray:
    """doc[key] as an int64 array when it holds only non-negative JSON
    integers; raises ValueError otherwise, where an int64 conversion would
    truncate 2.9 to 2."""
    value = doc[key]
    table = np.asarray(value) if _json_numbers(value, {int}) else None
    if table is None or table.dtype != np.int64 or (table < 0).any():
        raise ValueError(f"{key!r} must hold only non-negative JSON integers")
    return table


def model_from_doc(doc: dict) -> FiniteHorizonCMDP:
    """The model a `save_model` document describes: the reward and constraint
    cost keys are stacked into its channel tables. Raises ValueError unless
    the four counts are non-negative JSON integers and every table holds
    only JSON numbers."""
    num_states, horizon, num_actions, num_constraints = (
        json_count(doc, key) for key in ("num_states", "horizon", "num_actions", "num_constraints")
    )

    def channels(reward_key, cost_key, shape):
        constraint = json_table(doc, cost_key).reshape((num_constraints,) + shape)
        return np.concatenate([json_table(doc, reward_key)[None], constraint])

    return make_cmdp(
        kernels=json_table(doc, "kernels"),
        costs=channels(
            "rewards", "constraint_costs", (horizon, num_states, num_actions, num_states)
        ),
        terminal_costs=channels("terminal_reward", "terminal_constraint_costs", (num_states,)),
        thresholds=json_table(doc, "thresholds").reshape(num_constraints),
        initial_distribution=json_table(doc, "initial_distribution"),
    )
