"""Non-stationary Gibbs policies: one softmax per stage over a dense preference table."""

from __future__ import annotations

import json
from bisect import bisect_right

import numpy as np

from .mdp_model import FiniteHorizonCMDP, write_json


def gibbs(prefs: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the row maximum for stability."""
    # The ufunc reductions are what ndarray.max and .sum call, without the
    # Python wrapper around them.
    z = np.exp(prefs - np.maximum.reduce(prefs, axis=-1, keepdims=True))
    return z / np.add.reduce(z, axis=-1, keepdims=True)


def score_rows(probs: np.ndarray, picked, temperature: float) -> np.ndarray:
    """Scores (e_a - mu) / tau of the distribution rows `probs`, (A,) or (n, A);
    `picked` is the flat position of each row's action in `probs`, i * A + a_i."""
    out = np.negative(probs, order="C")  # C order: the flat positions address it
    out.reshape(-1)[picked] += 1.0
    return out / temperature


class NonStationaryPolicy:
    """A tuple of H per-stage Gibbs distributions mu_h(s, .) over actions.

    `stage_params` is a dense (H, S, A) table theta and action probabilities are
    proportional to exp(theta[h, s, a] / tau), hence strictly positive for
    every bounded table. Rows of states that are never reached stay zero, which
    is the uniform distribution. Parameters are kept inside the box
    [-param_bound, param_bound] by `project_params`.
    """

    def __init__(self, stage_params, temperature: float = 1.0, param_bound: float = 10.0):
        if not (np.isfinite(temperature) and temperature > 0):
            raise ValueError(f"temperature must be positive and finite, got {temperature}")
        if not (np.isfinite(param_bound) and param_bound > 0):
            raise ValueError(f"param_bound must be positive and finite, got {param_bound}")
        self.temperature = float(temperature)
        self.param_bound = float(param_bound)
        params = np.asarray(stage_params, dtype=float)
        if params.ndim != 3:
            raise ValueError(f"stage_params must have shape (H, S, A), got {params.shape}")
        if not np.isfinite(params).all():
            raise ValueError("stage_params must be finite")
        self.stage_params = self.project_params(params)

    @property
    def horizon(self) -> int:
        return self.stage_params.shape[0]

    def _check_stage(self, h: int) -> None:
        if not 0 <= h < self.horizon:
            raise ValueError(f"stage {h} out of range for horizon {self.horizon}")

    def action_distribution(self, h: int, s: int) -> np.ndarray:
        """The Gibbs distribution over actions at (h, s); entries sum to 1."""
        self._check_stage(h)
        return gibbs(self.stage_params[h, s] / self.temperature)

    def distribution_table(self) -> np.ndarray:
        """Action distributions of every stage and state, shape (H, S, A).

        Row (h, s) equals `action_distribution(h, s)` bit for bit; one batched
        softmax replaces H * S row-by-row ones.
        """
        return gibbs(self.stage_params / self.temperature)

    def distribution_rows(self, stages, states) -> np.ndarray:
        """Action distributions of the (stage, state) pairs given as two index
        arrays, shape (len, A); equal to `distribution_table()[stages, states]`
        bit for bit at a fraction of its cost."""
        return gibbs(self.stage_params[stages, states] / self.temperature)

    def sample_action(self, rng: np.random.Generator, h: int, s: int) -> int:
        """Inverse-CDF draw from mu_h(s, .): the first action whose running sum
        is above one uniform, or the last action when none is (round-off
        below 1); the rule of `sampler`'s action draw."""
        sums = np.cumsum(self.action_distribution(h, s)).tolist()
        return min(bisect_right(sums, rng.random()), len(sums) - 1)

    def score(self, h, s, a, probs=None) -> np.ndarray:
        """Gradient of log mu_h(s, a) in the row theta[h, s]: (e_a - mu_h(s, .)) / tau.

        The gradient in every other row of the table is zero. `h`, `s` and `a`
        may also be index arrays of one length n; row i of the (n, A) result
        is then the score of (h[i], s[i], a[i]). `probs` holds the rows
        mu_h(s, .) when the caller already has them, e.g. a rollout's
        `action_probs`.
        """
        if probs is None:
            probs = self.distribution_rows(h, s)
        picked = a if probs.ndim == 1 else np.arange(len(probs)) * probs.shape[-1] + a
        return score_rows(probs, picked, self.temperature)

    def project_params(self, proposed: np.ndarray) -> np.ndarray:
        """Coordinate-wise clamp onto the parameter box; idempotent."""
        return np.clip(proposed, -self.param_bound, self.param_bound)

    def copy(self) -> "NonStationaryPolicy":
        return NonStationaryPolicy(self.stage_params.copy(), self.temperature, self.param_bound)


def tabular_policy(
    model: FiniteHorizonCMDP, temperature: float = 1.0, param_bound: float = 10.0
) -> NonStationaryPolicy:
    """Uniform-initialized Gibbs policy with a zero (H, S, A) table."""
    shape = (model.horizon, model.num_states, model.num_actions)
    return NonStationaryPolicy(np.zeros(shape), temperature, param_bound)


def policy_to_doc(policy: NonStationaryPolicy) -> dict:
    """The JSON layout of a policy, shared by policy files and checkpoints.

    "stage_params" is the policy's own (H, S, A) array, not a copy, so the
    document is for `write_json`, which writes an array as its `tolist()`.
    """
    return {
        "temperature": policy.temperature,
        "param_bound": policy.param_bound,
        "stage_params": policy.stage_params,
    }


def policy_from_doc(doc: dict) -> NonStationaryPolicy:
    return NonStationaryPolicy(
        doc["stage_params"], float(doc["temperature"]), float(doc["param_bound"])
    )


def save_policy(policy: NonStationaryPolicy, path) -> None:
    """Write the policy as JSON; round-trips exactly."""
    write_json(path, policy_to_doc(policy))


def load_policy(path) -> NonStationaryPolicy:
    """Read a policy file, or the policy inside a trainer checkpoint."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError("a policy file must hold a JSON object")
    return policy_from_doc(doc.get("policy", doc))
