"""One evaluation per policy: the oracle's readers share one backward pass.

Each reader must give the bits of its `unshared_*` counterpart in helpers.py,
which evaluates the policy on its own as many times as it needs, and must
build one distribution table and run at most one channel recursion per call.
`fixed_points` evaluates along the policy's chain, another order than
`backward_induction`'s, so its counterpart is that evaluation to round-off.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from fhc_ac import (
    NonStationaryPolicy,
    exact_gradient,
    finite_difference_gradient,
    fixed_points,
    occupation_measures,
    reachable_sets,
    stationarity_diagnostics,
)
from fhc_ac import dp_oracle
from fhc_ac.experiment_cli import load_any_model

from helpers import (
    assert_exact_critic_limit,
    cut_off_last_state,
    random_cmdp,
    random_policy,
    random_sparse_cmdp,
    unshared_exact_gradient,
    unshared_finite_difference_gradient,
    unshared_occupation_measures,
    unshared_stationarity_diagnostics,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PENALTY_FLOOR = -5.0


def _instance(name):
    """(model, policy, multipliers) for one case. Every policy has entries at
    both ends of its parameter box; with two or more constraints the first
    multiplier sits at zero and the second at the floor."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "grid5x5":
        model = load_any_model(CONFIGS / "gridworld_5x5_h100.json")
    elif name == "sparse":
        model = cut_off_last_state(random_sparse_cmdp(rng, 5, 3, 6, 2))
        assert all(model.num_states - 1 not in states for states in reachable_sets(model))
    else:
        model = random_cmdp(rng, 4, 3, 5, int(name[1:]))
    policy = random_policy(model, rng, scale=3.0, param_bound=2.5)
    policy.stage_params[...] = policy.project_params(policy.stage_params)
    lam = -rng.uniform(0.0, 4.0, size=model.num_constraints)
    if len(lam) > 1:
        lam[:2] = [0.0, PENALTY_FLOOR]
    return model, policy, lam


CASES = ["M0", "M1", "M3", "sparse", "grid5x5"]


@pytest.mark.parametrize("case", CASES)
def test_exact_gradient_and_occupations_equal_the_unshared_readers(case):
    model, policy, lam = _instance(case)
    assert np.array_equal(exact_gradient(model, policy, lam),
                          unshared_exact_gradient(model, policy, lam))
    assert np.array_equal(occupation_measures(model, policy),
                          unshared_occupation_measures(model, policy))


@pytest.mark.parametrize("case", CASES)
def test_stationarity_report_equals_the_two_pass_report(case):
    model, policy, lam = _instance(case)
    report = stationarity_diagnostics(model, policy, lam, penalty_floor=PENALTY_FLOOR)
    expected = unshared_stationarity_diagnostics(model, policy, lam, PENALTY_FLOOR)
    assert report.theta_bound_active > 0
    for field in dataclasses.fields(report):
        got, want = getattr(report, field.name), getattr(expected, field.name)
        assert type(got) is type(want), field.name
        assert np.array_equal(got, want), field.name


@pytest.mark.parametrize("case", CASES)
def test_finite_difference_gradient_equals_the_unshared_reader(case):
    model, policy, lam = _instance(case)
    assert np.array_equal(finite_difference_gradient(model, policy, lam),
                          unshared_finite_difference_gradient(model, policy, lam))


@pytest.mark.parametrize("case", CASES)
def test_fixed_points_equal_the_unshared_reader(case):
    model, policy, lam = _instance(case)
    assert_exact_critic_limit(model, policy, lam, fixed_points(model, policy, lam))


def test_each_reader_builds_one_table_and_runs_at_most_one_recursion(monkeypatch):
    counts = {"tables": 0, "recursions": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(NonStationaryPolicy, "distribution_table",
                        counted("tables", NonStationaryPolicy.distribution_table))
    monkeypatch.setattr(dp_oracle, "_channel_values",
                        counted("recursions", dp_oracle._channel_values))
    model, policy, lam = _instance("M1")
    readers = [
        (lambda: exact_gradient(model, policy, lam), 1),
        (lambda: stationarity_diagnostics(model, policy, lam), 1),
        (lambda: finite_difference_gradient(model, policy, lam), 1),
        (lambda: fixed_points(model, policy, lam), 0),
        (lambda: occupation_measures(model, policy), 0),
    ]
    for call, recursions in readers:
        counts.update(tables=0, recursions=0)
        call()
        assert counts == {"tables": 1, "recursions": recursions}
