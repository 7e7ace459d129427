"""Model container, validation, sampling, and serialization."""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fhc_ac import (
    constrained_reference,
    evaluate_policy,
    exact_gradient,
    fixed_points,
    load_model,
    make_cmdp,
    reachable_sets,
    rollout,
    save_model,
    tabular_policy,
    validate,
)
from fhc_ac.mdp_model import sampler, write_json

from helpers import (
    random_cmdp,
    random_policy,
    random_sparse_cmdp,
    reference_rollout,
    sample_episode,
    sample_index,
)


def test_make_cmdp_shapes_and_counts():
    model = random_cmdp(np.random.default_rng(0), 4, 3, 5, 2)
    assert model.num_states == 4
    assert model.num_actions == 3
    assert model.horizon == 5
    assert model.num_constraints == 2
    assert model.kernels.shape == (5, 4, 3, 4)
    assert model.costs.shape == (3, 5, 4, 3, 4)
    assert model.terminal_costs.shape == (3, 4)


def test_make_cmdp_rejects_shape_mismatch():
    model = random_cmdp(np.random.default_rng(0), 3, 2, 2, 0)
    shapes = {
        "kernels": model.kernels,
        "costs": model.costs,
        "terminal_costs": model.terminal_costs,
        "thresholds": model.thresholds,
        "initial_distribution": model.initial_distribution,
    }
    make_cmdp(**shapes)
    for name, bad in [
        ("costs", model.costs[:, :1]),
        ("terminal_costs", np.zeros((1, 4))),
        # a channel count that is not len(thresholds) + 1
        ("costs", np.concatenate([model.costs, model.costs])),
        ("thresholds", np.zeros(1)),
        ("thresholds", np.zeros(())),
        # a terminal table of the wrong shape
        ("terminal_costs", model.terminal_costs[0]),
        ("terminal_costs", np.concatenate([model.terminal_costs, model.terminal_costs])),
        # trailing axes that differ from the kernels'
        ("costs", model.costs[:, :, :, :1]),
        ("costs", model.costs[..., :2]),
        # a reward table with no channel axis
        ("costs", model.costs[0]),
    ]:
        with pytest.raises(ValueError):
            make_cmdp(**{**shapes, name: bad})


def test_validate_accepts_random_instance():
    report = validate(random_cmdp(np.random.default_rng(1), 4, 2, 3, 1))
    assert report.ok
    assert not report.violations
    assert bool(report)


def test_validate_flags_bad_rows_and_negative_mass():
    model = random_cmdp(np.random.default_rng(2), 3, 2, 2, 0)
    kernels = model.kernels.copy()
    kernels[1, 2, 0] *= 0.5
    broken = make_cmdp(
        kernels=kernels,
        costs=model.costs,
        terminal_costs=model.terminal_costs,
        thresholds=model.thresholds,
        initial_distribution=model.initial_distribution,
    )
    report = validate(broken)
    assert not report.ok
    assert any("h=1, s=2, a=0" in v for v in report.violations)

    bad_kernels = model.kernels.copy()
    bad_kernels[0, 0, 0] = [-0.2, 0.6, 0.6]  # sums to one but has negative mass
    negative = make_cmdp(
        kernels=bad_kernels,
        costs=model.costs,
        terminal_costs=model.terminal_costs,
        thresholds=model.thresholds,
        initial_distribution=model.initial_distribution,
    )
    report = validate(negative)
    assert not report.ok


def test_validate_flags_bad_initial_distribution():
    model = random_cmdp(np.random.default_rng(3), 3, 2, 2, 0)
    beta = model.initial_distribution.copy()
    object.__setattr__(model, "initial_distribution", beta * 2.0)
    assert not validate(model).ok


def test_validate_flags_non_finite_kernels_and_initial_distribution():
    # A NaN row sums to NaN, and every comparison with NaN is false, so the
    # row-sum and sign checks alone let it through.
    model = random_cmdp(np.random.default_rng(4), 3, 2, 2, 1)
    for bad in (np.nan, np.inf):
        kernels = model.kernels.copy()
        kernels[1, 0, 1, 0] = bad
        report = validate(make_cmdp(
            kernels, model.costs, model.terminal_costs, model.thresholds,
            model.initial_distribution,
        ))
        assert not report.ok
        assert "kernels contains non-finite values" in report.violations

        beta = model.initial_distribution.copy()
        beta[0] = bad
        report = validate(make_cmdp(
            model.kernels, model.costs, model.terminal_costs, model.thresholds, beta,
        ))
        assert not report.ok
        assert "initial_distribution contains non-finite values" in report.violations


def test_rollout_first_transition_matches_kernel_frequencies():
    model = random_cmdp(np.random.default_rng(5), 4, 2, 1, 0)
    model = dataclasses.replace(model, initial_distribution=np.eye(4)[2])  # start at state 2
    # preferences (-20, 20) make action 1 certain up to exp(-40) at state 2
    policy = tabular_policy(model, param_bound=20.0)
    policy.stage_params[0, 2] = -20.0, 20.0
    table = policy.distribution_table()
    running = np.cumsum(table, axis=-1)
    rng = np.random.default_rng(9)
    counts = np.zeros(4)
    trials = 40_000
    for _ in range(trials):
        episode = rollout(model, table, running, rng)
        assert episode.states[0] == 2 and episode.actions[0] == 1
        counts[episode.states[1]] += 1
    assert np.abs(counts / trials - model.kernels[0, 2, 1]).max() < 0.01


def test_sample_index_matches_searchsorted_on_the_cumulative_sum():
    def reference(probs, u):
        cdf = np.cumsum(probs)
        return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)

    rng = np.random.default_rng(12)
    rows = []
    for size in (1, 2, 5, 9, 25):
        for _ in range(40):
            row = rng.exponential(size=size) * (rng.random(size) < 0.6)
            if row.sum() > 0:
                rows.append(row / row.sum())
    rows.append(np.full(3, 0.1))             # sums to 0.3: draws above it take the last index
    rows.append(np.array([0.5, np.nan, 0.5]))  # a NaN running sum counts as exceeding u
    for row in rows:
        cdf = np.cumsum(row)
        draws = np.concatenate([rng.random(20), cdf[np.isfinite(cdf)], [0.0, 0.999999]])
        for u in draws:
            assert sample_index(row.tolist(), float(u)) == reference(row, u)


def test_rollout_records_the_distributions_it_sampled_from():
    model = random_cmdp(np.random.default_rng(13), 4, 9, 5, 1)
    policy = random_policy(model, np.random.default_rng(14), scale=3.0)
    episode = sample_episode(model, policy, np.random.default_rng(15))
    assert episode.action_probs.shape == (model.horizon, model.num_actions)
    for h in range(model.horizon):
        expected = policy.action_distribution(h, episode.states[h])
        assert np.array_equal(episode.action_probs[h], expected)


def test_rollout_bookkeeping_matches_tables():
    model = random_cmdp(np.random.default_rng(6), 3, 2, 4, 2)
    policy = random_policy(model, np.random.default_rng(7))
    episode = sample_episode(model, policy, np.random.default_rng(8))
    H = model.horizon
    assert episode.states.shape == (H + 1,)
    assert episode.actions.shape == (H,)
    assert np.array_equal(episode.cells, np.arange(H + 1) * model.num_states + episode.states)
    for h in range(H):
        s, a, nxt = episode.states[h], episode.actions[h], episode.states[h + 1]
        assert np.all(episode.costs[:, h] == model.costs[:, h, s, a, nxt])
    assert np.all(episode.terminal_costs == model.terminal_costs[:, episode.states[-1]])
    assert episode.total_reward() == pytest.approx(
        episode.costs[0].sum() + episode.terminal_costs[0]
    )
    assert episode.total_constraint_costs() == pytest.approx(
        episode.costs[1:].sum(axis=1) + episode.terminal_costs[1:]
    )


def test_rollout_is_deterministic_given_seed():
    model = random_cmdp(np.random.default_rng(10), 3, 2, 3, 1)
    policy = random_policy(model, np.random.default_rng(11))
    table = policy.distribution_table()
    running = np.cumsum(table, axis=-1)
    first = rollout(model, table, running, np.random.default_rng(42))
    second = rollout(model, table, running, np.random.default_rng(42))
    assert np.array_equal(first.states, second.states)
    assert np.array_equal(first.actions, second.actions)


def test_rollout_rejects_a_table_of_another_horizon():
    # ... or of another state or action count, or a table or running sums in
    # a layout the flat row offsets would misread
    model = random_cmdp(np.random.default_rng(10), 3, 2, 3, 1)
    table = random_policy(model, np.random.default_rng(11)).distribution_table()
    running = np.cumsum(table, axis=-1)
    for bad_table, bad_running in [
        (table[:-1], running[:-1]),
        (table, running[:-1]),
        (table[:, :-1], running[:, :-1]),
        (table[..., :1], running[..., :1]),
        (table, np.asfortranarray(running)),
        (np.asfortranarray(table), running),
        (table, running[..., ::-1]),
        (table, running.astype(np.float32)),
    ]:
        with pytest.raises(ValueError):
            rollout(model, bad_table, bad_running, np.random.default_rng(0))


def assert_same_episode(got, want):
    for f in dataclasses.fields(got):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


def test_rollout_draws_what_the_row_scan_draws():
    rng = np.random.default_rng(30)
    # The edge shapes come last, so the first three draw their models as
    # before. At H = 1 a model's kernel sums and its zero-stride view's have
    # one length, which is how the sampler tells their layouts apart; both
    # layouts then have the one stage shift 0, so the draws must agree.
    for shapes in [[(25, 9, 4), (6, 3, 7), (2, 1, 3)], [(1, 1, 1), (1, 3, 2), (4, 1, 1)]]:
        for num_constraints in (0, 1, 2):
            for num_states, num_actions, horizon in shapes:
                model = random_sparse_cmdp(rng, num_states, num_actions, horizon, num_constraints)
                table = random_policy(model, rng, scale=3.0).distribution_table()
                running = np.cumsum(table, axis=-1)
                shared = dataclasses.replace(
                    model, kernels=np.broadcast_to(model.kernels[:1], model.kernels.shape)
                )
                for world in (model, shared):
                    fast = np.random.default_rng(num_constraints)
                    slow = np.random.default_rng(num_constraints)
                    for _ in range(200):
                        assert_same_episode(
                            rollout(world, table, running, fast),
                            reference_rollout(world, table, slow),
                        )


class FixedUniforms:
    """Stands in for a Generator whose next block of uniforms is `values`."""

    def __init__(self, values):
        self.values = np.array(values)

    def random(self, size):
        assert size == len(self.values)
        return self.values.copy()


def test_rollout_falls_back_to_the_last_index_like_the_row_scan():
    # Every kernel row and table row sums to 0.1 + 0.2 (about 0.3) and gives
    # its last index probability 0: a uniform above the sum takes that index.
    S = A = H = 3
    row = [0.1, 0.2, 0.0]
    model = make_cmdp(
        kernels=np.tile(row, (H, S, A, 1)),
        costs=np.arange(H * S * A * S, dtype=float).reshape(1, H, S, A, S),
        terminal_costs=[[1.0, 2.0, 3.0]],
        thresholds=[],
        initial_distribution=[1.0, 0.0, 0.0],
    )
    table = np.tile(row, (H, S, 1))
    running = np.cumsum(table, axis=-1)
    cases = {
        (0.0, 0.9, 0.9, 0.9, 0.9, 0.9, 0.95): ([0, 2, 2, 2], [2, 2, 2]),
        (0.0, 0.05, 0.35, 0.1, 0.2, 0.31, 0.29): ([0, 2, 1, 1], [0, 1, 2]),
    }
    for uniforms, (states, actions) in cases.items():
        got = rollout(model, table, running, FixedUniforms(uniforms))
        assert got.states.tolist() == states and got.actions.tolist() == actions
        assert_same_episode(got, reference_rollout(model, table, FixedUniforms(uniforms)))


def test_sampler_draws_s0_by_bisection_like_the_row_scan():
    # The initial distribution sums to 0.1 + 0.2 (about 0.3) with a zero last
    # entry: a uniform above the sum takes the last state, as the scan does.
    # A negative or non-finite entry would break the bisection's ordered sums.
    model = random_cmdp(np.random.default_rng(12), 3, 2, 2, 1)
    model = dataclasses.replace(model, initial_distribution=np.array([0.1, 0.2, 0.0]))
    table = tabular_policy(model).distribution_table()
    running = np.cumsum(table, axis=-1)
    draw = sampler(model, table, running)
    for u0, s0 in [(0.0, 0), (0.1, 1), (0.29, 1), (0.35, 2), (0.99, 2)]:
        uniforms = [u0] + [0.5] * (2 * model.horizon)
        states, actions = draw(FixedUniforms(uniforms))
        assert states[0] == s0
        want = reference_rollout(model, table, FixedUniforms(uniforms))
        assert states == want.states.tolist() and actions == want.actions.tolist()
        assert all(type(x) is int for x in states + actions)
    for bad in (-0.1, np.nan, np.inf):
        beta = np.array([0.5, 0.5, 0.0])
        beta[2] = bad
        with pytest.raises(ValueError, match="initial distribution"):
            sampler(dataclasses.replace(model, initial_distribution=beta), table, running)


def test_kernel_sums_hold_each_rows_running_sums():
    rng = np.random.default_rng(31)
    for shape in [(1, 1, 1, 0), (4, 3, 5, 1), (25, 9, 3, 2), (7, 2, 4, 0)]:
        dense = random_sparse_cmdp(rng, *shape)
        # kernels with a zero stage stride: the sums hold one stage's rows
        shared = dataclasses.replace(
            dense, kernels=np.broadcast_to(dense.kernels[:1], dense.kernels.shape)
        )
        for model, stages in [(dense, dense.horizon), (shared, 1)]:
            sums = model.kernel_sums
            assert sums.format == "d"
            S = model.num_states
            rows = model.kernels[:stages].reshape(-1, S)
            assert len(sums) == rows.size
            for r, row in enumerate(rows):
                got = sums[r * S : (r + 1) * S]
                assert bytes(got) == np.cumsum(row).tobytes()
                # the running total sample_index accumulates, one float add at a time
                assert got.tolist() == list(itertools.accumulate(row.tolist()))


def test_kernel_sums_refuse_negative_and_non_finite_kernels():
    model = random_cmdp(np.random.default_rng(32), 3, 2, 2, 1)
    for bad in (-0.1, np.nan, np.inf):
        kernels = model.kernels.copy()
        kernels[1, 0, 1, 2] = bad
        with pytest.raises(ValueError):
            dataclasses.replace(model, kernels=kernels).kernel_sums


def test_the_oracle_leaves_the_kernel_sums_unbuilt():
    model = random_cmdp(np.random.default_rng(33), 3, 2, 3, 1)
    policy = random_policy(model, np.random.default_rng(34))
    lam = np.array([-0.5])
    constrained_reference(model)
    evaluate_policy(model, policy)
    exact_gradient(model, policy, lam)
    fixed_points(model, policy, lam)
    assert "kernel_sums" not in model.__dict__
    sample_episode(model, policy, np.random.default_rng(0))
    assert "kernel_sums" in model.__dict__


def test_reachable_sets_follow_kernel_support():
    # Deterministic right-moving chain: state i -> i+1, from a point start.
    S, H = 4, 3
    kernels = np.zeros((H, S, 1, S))
    for h in range(H):
        for s in range(S):
            kernels[h, s, 0, min(s + 1, S - 1)] = 1.0
    beta = np.zeros(S)
    beta[0] = 1.0
    model = make_cmdp(
        kernels=kernels,
        costs=np.zeros((1, H, S, 1, S)),
        terminal_costs=np.zeros((1, S)),
        thresholds=np.zeros(0),
        initial_distribution=beta,
    )
    sets = reachable_sets(model)
    assert [list(r) for r in sets] == [[0], [1], [2], [3]]


def test_save_load_round_trip_is_exact(tmp_path):
    model = random_cmdp(np.random.default_rng(12), 3, 2, 3, 2)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.kernels, model.kernels)
    assert np.array_equal(loaded.costs, model.costs)
    assert np.array_equal(loaded.terminal_costs, model.terminal_costs)
    assert np.array_equal(loaded.thresholds, model.thresholds)
    assert np.array_equal(loaded.initial_distribution, model.initial_distribution)


def test_save_load_round_trip_without_constraints(tmp_path):
    model = random_cmdp(np.random.default_rng(13), 3, 2, 2, 0)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.num_constraints == 0
    assert np.array_equal(loaded.kernels, model.kernels)


JSON_SCALARS = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")])
    | st.integers()
    | st.booleans()
    | st.none()
    | st.text()
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(doc=JSON_DOCS)
def test_write_json_writes_the_bytes_of_json_dumps(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == json.dumps(doc).encode()


# 0-d arrays, zero-length axes and an M = 0 constraint_costs table (M, H, S, A, S)
ARRAY_SHAPES = st.sampled_from([(), (0,), (2, 0, 3), (3, 0), (0, 2, 3, 2, 3)]) | hnp.array_shapes(
    min_dims=0, max_dims=4, min_side=0, max_side=3
)
ARRAYS = (
    hnp.arrays(
        np.float64,
        ARRAY_SHAPES,
        elements=st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    )
    | hnp.arrays(np.int64, ARRAY_SHAPES)
    | hnp.arrays(np.bool_, ARRAY_SHAPES)
)
ARRAY_DOCS = st.recursive(
    JSON_SCALARS | ARRAYS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=10,
)


def as_lists(doc):
    """`doc` with every numpy array replaced by its `tolist()`."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: as_lists(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [as_lists(item) for item in doc]
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=ARRAY_DOCS)
def test_write_json_writes_arrays_as_the_bytes_of_their_tolist(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == json.dumps(as_lists(doc)).encode()


@settings(max_examples=100, deadline=None)
@given(doc=ARRAY_DOCS, key=st.integers() | st.floats() | st.booleans() | st.none())
def test_write_json_rejects_non_str_keys_at_any_depth(tmp_path_factory, doc, key):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    beside = np.zeros((2, 1, 3))
    with pytest.raises(TypeError):
        write_json(path, [doc, beside, {"outer": [beside, {"array": beside, key: doc}]}])

