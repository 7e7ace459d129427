"""Training loop: schedules, updates, determinism, checkpoints, diagnostics."""

import dataclasses
import inspect
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fhc_ac import (
    StepSizeSchedules,
    TrainerConfig,
    actor_update,
    check_schedules,
    evaluate_policy,
    exact_gradient,
    fixed_points,
    load_checkpoint,
    load_policy,
    make_trainer,
    moving_average,
    multiplier_update,
    reachable_sets,
    save_checkpoint,
    save_model,
    save_policy,
    stationarity_diagnostics,
    tabular_policy,
    train,
    update_constraint_critic,
    update_penalized_critic,
)
from fhc_ac.experiment_cli import load_any_model, main

from helpers import (
    cut_off_last_state,
    random_cmdp,
    random_policy,
    random_sparse_cmdp,
    reference_train,
    sample_episode,
    unreachable_mask,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_check_schedules_accepts_the_default_trio():
    report = check_schedules(StepSizeSchedules())
    assert report.ok


def test_check_schedules_rejects_out_of_range_exponents():
    report = check_schedules(StepSizeSchedules(critic_exponent=0.4))
    assert not report.ok
    assert any("(0.5, 1]" in v for v in report.violations)
    assert not check_schedules(StepSizeSchedules(multiplier_exponent=1.2)).ok
    for name in ("critic_scale", "actor_scale", "multiplier_scale"):
        for bad in (float("nan"), float("inf")):
            report = check_schedules(StepSizeSchedules(**{name: bad}))
            assert not report.ok, (name, bad)
            assert any("positive and finite" in v for v in report.violations), (name, bad)


def test_check_schedules_rejects_unseparated_timescales():
    report = check_schedules(
        StepSizeSchedules(critic_exponent=0.8, actor_exponent=0.7)
    )
    assert not report.ok
    assert any("strictly increase" in v for v in report.violations)
    assert not check_schedules(StepSizeSchedules(actor_scale=0.0)).ok


def test_step_sizes_follow_the_power_law():
    s = StepSizeSchedules(critic_scale=2.0)
    assert s.critic_step(0) == 2.0
    assert s.critic_step(99) == pytest.approx(2.0 * 100.0**-0.6)
    assert s.actor_step(99) == pytest.approx(100.0**-0.8)
    assert s.multiplier_step(99) == pytest.approx(0.01)


def test_trainer_config_rejects_bad_settings():
    for floor in (0.0, float("nan"), float("-inf")):
        with pytest.raises(ValueError):
            TrainerConfig(episodes=1, penalty_floor=floor)
    with pytest.raises(ValueError):
        make_trainer(
            random_cmdp(np.random.default_rng(0)),
            TrainerConfig(episodes=1, schedules=StepSizeSchedules(critic_exponent=0.4)),
        )


def test_moving_average_matches_direct_windowed_means():
    rng = np.random.default_rng(1)
    values = rng.normal(size=57)
    for window in (1, 3, 7, 57, 80):
        expected = np.array(
            [values[max(0, i - window + 1) : i + 1].mean() for i in range(len(values))]
        )
        assert np.allclose(moving_average(values, window), expected, atol=1e-12)
    with pytest.raises(ValueError):
        moving_average(values, 0)
    with pytest.raises(ValueError):
        moving_average(values.reshape(-1, 1), 3)


def moved_rows(model, episode):
    mask = np.zeros((model.horizon, model.num_states), dtype=bool)
    mask[np.arange(model.horizon), episode.states[:-1]] = True
    return mask


def test_actor_update_applies_the_scaled_score():
    rng = np.random.default_rng(2)
    model = random_cmdp(rng, 3, 2, 5, 1)
    policy = random_policy(model, rng)
    reference = policy.copy()
    episode = sample_episode(model, policy, np.random.default_rng(3))
    deltas = rng.normal(size=model.horizon + 1)
    clipped = actor_update(policy, episode, deltas, step=0.2)
    assert clipped is False
    # every moved row gets exactly the update of its own stage step
    for h in range(model.horizon):
        s, a = episode.states[h], episode.actions[h]
        expected = reference.stage_params[h, s] + (0.2 * deltas[h]) * reference.score(h, s, a)
        assert np.array_equal(policy.stage_params[h, s], expected)
    mask = moved_rows(model, episode)
    assert not np.array_equal(policy.stage_params[mask], reference.stage_params[mask])
    assert np.array_equal(policy.stage_params[~mask], reference.stage_params[~mask])


def test_actor_update_clamps_into_the_parameter_box():
    rng = np.random.default_rng(3)
    model = random_cmdp(rng, 3, 2, 4, 1)
    policy = tabular_policy(model, param_bound=0.5)
    policy.stage_params[:] = 0.49
    episode = sample_episode(model, policy, np.random.default_rng(4))
    deltas = np.full(model.horizon + 1, 50.0)
    deltas[1] = 0.0  # this stage's row stays put and inside the box
    clipped = actor_update(policy, episode, deltas, step=1.0)
    assert clipped is True
    theta = policy.stage_params
    assert theta.max() <= 0.5 and theta.min() >= -0.5
    mask = moved_rows(model, episode)
    for h in range(model.horizon):
        row = theta[h, episode.states[h]]
        if h == 1:
            assert np.all(row == 0.49)
        else:
            assert np.any(np.abs(row) == 0.5)
    assert np.all(theta[~mask] == 0.49)


def test_multiplier_update_moves_against_the_gap_and_clamps():
    cfg = TrainerConfig(episodes=1, penalty_floor=-2.0)
    new, floor_hit, zero_hit = multiplier_update(
        np.array([-1.0]), np.array([0.3]), 0.5, cfg
    )
    assert np.allclose(new, [-1.15])
    assert not floor_hit and not zero_hit

    new, floor_hit, zero_hit = multiplier_update(
        np.array([-1.9]), np.array([0.5]), 1.0, cfg
    )
    assert new[0] == -2.0 and floor_hit and not zero_hit

    new, floor_hit, zero_hit = multiplier_update(
        np.array([-0.1]), np.array([-0.5]), 1.0, cfg
    )
    assert new[0] == 0.0 and zero_hit and not floor_hit


def numpy_multiplier_update(stored, estimates, step, floor):
    """The array form of the multiplier step: the reference `multiplier_update` keeps."""
    proposed = stored - step * estimates
    floor_hit, zero_hit = bool((proposed < floor).any()), bool((proposed > 0.0).any())
    if floor_hit or zero_hit:
        np.clip(proposed, floor, 0.0, out=proposed)
    return proposed, floor_hit, zero_hit


def test_multiplier_update_has_the_bits_of_the_numpy_clamp():
    # every (multiplier, estimate) pair of these values, one and two at a
    # time, and random triples: signed zeros, NaN, infinities, and values at,
    # inside and beyond both bounds
    floor = -2.0
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, -1.0, 1.0, floor,
              math.nextafter(floor, -math.inf)]
    pairs = list(itertools.product(values, values))
    rng = np.random.default_rng(0)
    cases = [*itertools.product(pairs, repeat=1), *itertools.product(pairs, repeat=2)]
    cases += [[pairs[i] for i in rng.integers(len(pairs), size=3)] for _ in range(2000)]
    cfg = TrainerConfig(episodes=1, penalty_floor=floor)
    for case in cases:
        stored, estimates = np.array(case).T
        for step in (0.0, 0.37, 1.0):
            with np.errstate(invalid="ignore"):
                want = numpy_multiplier_update(stored, estimates, step, floor)
            got = multiplier_update(stored, estimates, step, cfg)
            assert got[0].dtype == np.float64 and got[0].tobytes() == want[0].tobytes(), case
            assert got[1:] == want[1:], case


def test_training_is_deterministic_for_a_fixed_seed():
    rng = np.random.default_rng(5)
    model = random_cmdp(rng, 3, 2, 2, 1)
    config = TrainerConfig(episodes=150, seed=9)
    state_a, metrics_a = train(model, config)
    state_b, metrics_b = train(model, config)
    assert np.array_equal(metrics_a.returns, metrics_b.returns)
    assert np.array_equal(metrics_a.multipliers, metrics_b.multipliers)
    assert np.array_equal(state_a.multipliers, state_b.multipliers)
    for h in range(model.horizon):
        assert np.array_equal(state_a.policy.stage_params[h], state_b.policy.stage_params[h])
    # the critics start at zero, so the first recorded estimate is zero
    assert np.array_equal(metrics_a.gap_estimates[0], [0.0])


def test_training_runs_without_constraints():
    model = random_cmdp(np.random.default_rng(7), 3, 2, 2, 0)
    state, metrics = train(model, TrainerConfig(episodes=50, seed=1))
    assert metrics.multipliers.shape == (50, 0)
    assert state.multipliers.shape == (0,)
    assert not metrics.multiplier_floor_clipped.any()


def test_constraint_critics_step_on_per_state_visit_clocks():
    rng = np.random.default_rng(6)
    model = random_cmdp(rng, 3, 2, 4, 2)
    schedules = StepSizeSchedules(critic_scale=0.5)
    state = make_trainer(model, TrainerConfig(episodes=41, seed=3, schedules=schedules))
    state.episode = 40
    state.multipliers = np.array([-0.7, -0.2])
    state.critic[0][:] = rng.normal(size=state.critic[0].shape)
    state.critic[1:][:] = rng.normal(size=state.critic[1:].shape)
    state.visits[0] = 8  # stage 0 is revisited, every later stage is new
    start = state.critic.copy()
    visits = state.visits.copy()

    replay = np.random.default_rng()
    replay.bit_generator.state = state.rng.bit_generator.state
    episode = sample_episode(model, state.policy, replay)
    visited = (np.arange(model.horizon + 1), episode.states)
    # the TD errors at the tables held at episode start, from a zero-step update
    gaps = update_constraint_critic(model, start.copy(), episode, 0.0)
    deltas = update_penalized_critic(model, start.copy(), episode, state.multipliers, 0.0)

    state, _ = train(model, state.config, state=state)
    local = np.full(model.horizon + 1, 0.5)
    local[0] = schedules.critic_step(8)  # the ninth visit
    expected_w = start[1:].copy()
    expected_w[:, visited[0], visited[1]] += local * gaps
    assert np.array_equal(state.critic[1:], expected_w)
    # the penalized critic keeps the global clock a_n at n = 40
    expected_v = start[0].copy()
    expected_v[visited] += schedules.critic_step(40) * deltas
    assert np.array_equal(state.critic[0], expected_v)
    visits[visited] += 1
    assert np.array_equal(state.visits, visits)


def test_unreachable_entries_stay_untouched_by_training():
    # Stage 0 of the 4x4 grid world reaches 1 of its 16 states; the tables
    # and the visit clock must stay exactly zero off every reachable set.
    # The oracle's limit of the critics has the critic's layout and the same
    # zeros.
    model = load_any_model(CONFIGS / "gridworld_4x4.json")
    assert len(reachable_sets(model)[0]) < model.num_states
    config = TrainerConfig(episodes=300, seed=2)
    state, _ = train(model, config)
    off = unreachable_mask(model)
    assert state.visits[~off].sum() == 300 * (model.horizon + 1)
    assert not state.critic[0][off].any()
    assert not state.critic[1:, off].any()
    assert not state.visits[off].any()
    limit = fixed_points(model, state.policy, state.multipliers)
    assert limit.shape == make_trainer(model, config).critic.shape
    assert not limit[:, off].any()
    assert limit[:, ~off].all()


def with_constraints(model, num_constraints):
    """`model` with its first constraint dropped (0), kept (1) or joined by a
    second one at twice its costs and threshold (2)."""
    keep = min(num_constraints, 1)
    costs, terminal = model.costs[: 1 + keep], model.terminal_costs[: 1 + keep]
    thresholds = model.thresholds[:keep]
    if num_constraints == 2:
        costs = np.concatenate([costs, 2.0 * costs[1:]])
        terminal = np.concatenate([terminal, 2.0 * terminal[1:]])
        thresholds = np.concatenate([thresholds, 2.0 * thresholds])
    return dataclasses.replace(model, costs=costs, terminal_costs=terminal, thresholds=thresholds)


def assert_same_training(got, want):
    (state, metrics), (ref_state, ref_metrics) = got, want
    for f in dataclasses.fields(metrics):
        assert np.array_equal(getattr(metrics, f.name), getattr(ref_metrics, f.name)), f.name
    assert np.array_equal(state.policy.stage_params, ref_state.policy.stage_params)
    assert np.array_equal(state.critic[0], ref_state.critic[0])
    assert np.array_equal(state.critic[1:], ref_state.critic[1:])
    assert np.array_equal(state.visits, ref_state.visits)
    assert np.array_equal(state.multipliers, ref_state.multipliers)
    assert state.rng.bit_generator.state == ref_state.rng.bit_generator.state
    assert state.episode == ref_state.episode


@pytest.mark.parametrize("num_constraints", [0, 1, 2])
def test_train_equals_the_loop_of_public_one_episode_functions(num_constraints):
    M = num_constraints
    rng = np.random.default_rng(40 + M)
    grid = load_any_model(CONFIGS / "gridworld_5x5_h100.json")
    schedules = StepSizeSchedules(actor_scale=2.5, critic_scale=0.5, multiplier_scale=30.0)
    cases = [
        # (model, episodes, resume after, config settings)
        (random_cmdp(rng, 4, 3, 6, M), 300, None, {}),
        # a box so small that the actor clamps theta, and a floor it hits
        (random_cmdp(rng, 3, 2, 9, M), 300, None,
         {"param_bound": 0.3, "penalty_floor": -0.05, "schedules": schedules}),
        (cut_off_last_state(random_sparse_cmdp(rng, 5, 3, 12, M)), 300, 170, {}),
        (with_constraints(grid, M), 30, 12, {"schedules": schedules}),
        # resumed with visit counts far above the episodes left: the resumed
        # call's table of visit-clock steps must start from the largest count
        (random_cmdp(rng, 3, 2, 3, M), 400, 395, {}),
    ]
    clamped = floored = resumed_past_count = False
    for model, episodes, split, settings in cases:
        config = TrainerConfig(episodes=episodes, seed=M, **settings)
        want = reference_train(model, config)
        if split is None:
            got = train(model, config)
        else:
            state, head = train(model, dataclasses.replace(config, episodes=split))
            resumed_past_count |= bool(state.visits.max() > 10 * (episodes - split))
            state, tail = train(model, config, state=state)
            joined = {
                f.name: np.concatenate([getattr(head, f.name), getattr(tail, f.name)])
                for f in dataclasses.fields(head)
            }
            got = state, type(head)(**joined)
        assert_same_training(got, want)
        clamped |= bool(want[1].theta_clipped.any())
        floored |= bool(want[1].multiplier_floor_clipped.any())
    assert clamped
    assert floored == (M > 0)
    assert resumed_past_count == (M > 0)  # visits are counted only with constraints


@pytest.mark.parametrize("num_constraints", [0, 1, 2])
def test_lockstep_seeds_equal_one_seed_calls(num_constraints):
    # One call steps K seeds as (K, ...) arrays; each seed must end with the
    # state, Generator and metrics rows of its own one-seed call, bit for bit,
    # also when K states of a split run resume together. The 4x4 case runs
    # past a 1,024-episode chunk and several blocks of summed costs.
    M = num_constraints
    rng = np.random.default_rng(60 + M)
    grid = load_any_model(CONFIGS / "gridworld_4x4.json")
    schedules = StepSizeSchedules(actor_scale=2.5, critic_scale=0.5, multiplier_scale=30.0)
    cases = [
        # (model, episodes, resume after, config settings)
        (random_cmdp(rng, 4, 3, 6, M), 300, None, {}),
        (random_cmdp(rng, 3, 2, 9, M), 300, 170,
         {"param_bound": 0.3, "penalty_floor": -0.05, "schedules": schedules}),
        (with_constraints(grid, M), 1100, 700, {}),
    ]
    seeds = [4, 0, 9]
    clamped = floored = False
    for model, episodes, split, settings in cases:
        configs = [TrainerConfig(episodes=episodes, seed=seed, **settings) for seed in seeds]
        want = [train(model, config) for config in configs]
        if split is None:
            states, metrics = train(model, configs)
            rows = metrics.per_seed(len(seeds))
        else:
            states, head = train(model, [dataclasses.replace(c, episodes=split) for c in configs])
            states, tail = train(model, configs, state=states)
            rows = [
                type(head)(**{
                    f.name: np.concatenate([getattr(h, f.name), getattr(t, f.name)])
                    for f in dataclasses.fields(head)
                })
                for h, t in zip(head.per_seed(len(seeds)), tail.per_seed(len(seeds)))
            ]
        assert len(states) == len(seeds)
        for got, one_seed in zip(zip(states, rows), want, strict=True):
            assert_same_training(got, one_seed)
            clamped |= bool(one_seed[1].theta_clipped.any())
            floored |= bool(one_seed[1].multiplier_floor_clipped.any())
    assert clamped
    assert floored == (M > 0)


def test_make_trainer_takes_only_the_model_and_the_config():
    assert list(inspect.signature(make_trainer).parameters) == ["model", "config"]


def test_checkpoint_resume_reproduces_the_straight_run(tmp_path):
    # The resumed call rebuilds its distribution table and running sums from
    # the policy, so equal metrics show that refreshing them row by row gives
    # the sums a fresh np.cumsum gives; the 5x5 H=100 grid world has sparse
    # kernel rows and 100 draws per episode. M = 0 and M = 2 check that the
    # checkpoint's "v" and "w" rebuild the stacked (1+M, H+1, S) critic that
    # `train` takes a flat view of.
    cases = [
        (random_cmdp(np.random.default_rng(8), 3, 2, 2, 1), 200, 120),
        (random_cmdp(np.random.default_rng(9), 3, 2, 3, 0), 200, 120),
        (random_cmdp(np.random.default_rng(10), 4, 2, 3, 2), 200, 120),
        (load_any_model(CONFIGS / "gridworld_5x5_h100.json"), 40, 25),
    ]
    for model, episodes, split in cases:
        full = TrainerConfig(episodes=episodes, seed=5)
        state_full, metrics_full = train(model, full)

        state_half, metrics_head = train(model, TrainerConfig(episodes=split, seed=5))
        path = tmp_path / "ckpt.json"
        save_checkpoint(state_half, path)
        loaded = load_checkpoint(path)
        shape = (1 + model.num_constraints, model.horizon + 1, model.num_states)
        assert loaded.critic.shape == shape
        assert loaded.critic.dtype == np.float64 and loaded.critic.flags.c_contiguous
        assert loaded.critic.tobytes() == state_half.critic.tobytes()
        assert loaded.episode == split
        assert loaded.config == state_half.config
        state_resumed, metrics_tail = train(model, full, state=loaded)

        assert state_resumed.episode == episodes
        assert state_resumed.config == full
        for name in ("returns", "constraint_totals", "multipliers", "gap_estimates"):
            joined = np.concatenate([getattr(metrics_head, name), getattr(metrics_tail, name)])
            assert np.array_equal(getattr(metrics_full, name), joined), name
        assert np.array_equal(state_full.multipliers, state_resumed.multipliers)
        assert np.array_equal(state_full.policy.stage_params, state_resumed.policy.stage_params)
        assert np.array_equal(state_full.critic[0], state_resumed.critic[0])
        assert np.array_equal(state_full.critic[1:], state_resumed.critic[1:])
        assert np.array_equal(state_full.visits, state_resumed.visits)

    # Numbers of the wrong JSON type are refused, naming their key, where a
    # conversion would parse "20", truncate a visit count of 2.9 or keep NaN,
    # and where numpy's Generator would resume from a float state, keep a
    # has_uint32 of 1.5, or raise TypeError or OverflowError.
    good = path.read_text()
    for *where, value in [
        ("episode", "20"),
        ("multipliers", ["-0.5"]),
        ("critic_tables", "visits", 0, 0, 2.9),
        ("critic_tables", "visits", 0, 0, -1),
        ("critic_tables", "v", 0, 0, "0.5"),
        ("critic_tables", "w", 0, 0, 0, None),
        ("config", "episodes", "30000"),
        ("config", "seed", True),
        ("config", "temperature", float("nan")),
        ("config", "param_bound", "10"),
        ("config", "penalty_floor", float("-inf")),
        ("config", "schedules", "actor_scale", "2.5"),
        ("rng_state", "bit_generator", "MT19937"),
        ("rng_state", "state", "state", 3.5),
        ("rng_state", "state", "state", -1),
        ("rng_state", "state", "state", 2**128),
        ("rng_state", "state", "inc", "7"),
        ("rng_state", "has_uint32", 1.5),
        ("rng_state", "has_uint32", True),
        ("rng_state", "has_uint32", 2),
        ("rng_state", "uinteger", 2**32),
    ]:
        doc = json.loads(good)
        inner = doc
        for step in where[:-1]:
            inner = inner[step]
        inner[where[-1]] = value
        path.write_text(json.dumps(doc))
        key = [step for step in where if isinstance(step, str)][-1]
        with pytest.raises(ValueError, match=f"'{key}'"):
            load_checkpoint(path)


def test_saving_the_5x5_h100_world_copies_no_whole_table(tmp_path):
    # The writer encodes one 2-D block at a time, so the peak allocation of
    # a save stays far below the size of its tables (the model's dense
    # tables alone are several MB).
    model = load_any_model(CONFIGS / "gridworld_5x5_h100.json")
    state, _ = train(model, TrainerConfig(episodes=300, seed=0))
    saves = [
        (save_model, model, 0.5e6),
        (save_policy, state.policy, 0.5e6),
        (save_checkpoint, state, 1e6),
    ]
    for save, obj, bound in saves:
        tracemalloc.start()
        try:
            save(obj, tmp_path / "doc.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (save.__name__, peak)


def test_load_checkpoint_refuses_the_padded_critic_layout(tmp_path, capsys):
    # The older layout stored each stage's critic weights padded by position
    # in the stage's reachable set. On the 4x4 grid world the widest stage
    # covers every state, so its arrays have the shapes of the dense tables
    # and only the layout tells them apart. Such a checkpoint cannot be
    # resumed, but its policy is still read.
    model_path = CONFIGS / "gridworld_4x4.json"
    model = load_any_model(model_path)
    state, _ = train(model, TrainerConfig(episodes=50, seed=1))
    path = tmp_path / "ckpt.json"
    save_checkpoint(state, path)
    doc = json.loads(path.read_text())
    tables = doc.pop("critic_tables")
    sets = reachable_sets(model)
    width = max(len(r) for r in sets)
    assert width == model.num_states
    v = np.zeros((model.horizon + 1, width))
    w = np.zeros((model.num_constraints,) + v.shape)
    for h, r in enumerate(sets):
        v[h, : len(r)] = state.critic[0, h, r]
        w[:, h, : len(r)] = state.critic[1:, h, r]
    doc["critic"] = {"v": v.tolist(), "w": w.tolist(), "visits": tables["visits"]}
    padded = tmp_path / "padded.json"
    padded.write_text(json.dumps(doc))
    del doc["critic"]["visits"]  # the layout before the visit counts were stored
    without_visits = tmp_path / "padded-without-visits.json"
    without_visits.write_text(json.dumps(doc))

    for checkpoint in (padded, without_visits):
        with pytest.raises(ValueError, match='"critic" layout cannot be resumed'):
            load_checkpoint(checkpoint)
        policy = load_policy(checkpoint)
        assert np.array_equal(policy.stage_params, state.policy.stage_params)
        capsys.readouterr()
        assert main(["oracle", "evaluate", "--model", str(model_path),
                     "--policy", str(checkpoint)]) == 0
        assert "expected return" in capsys.readouterr().out


def test_resume_rejects_a_state_that_does_not_fit_the_model_or_config():
    rng = np.random.default_rng(8)
    model = random_cmdp(rng, 3, 2, 2, 1)
    config = TrainerConfig(episodes=20, seed=5)
    state, _ = train(model, TrainerConfig(episodes=10, seed=5))

    more_states = random_cmdp(np.random.default_rng(8), 4, 2, 2, 1)
    more_actions = random_cmdp(np.random.default_rng(8), 3, 3, 2, 1)
    longer = random_cmdp(np.random.default_rng(8), 3, 2, 3, 1)
    two_constraints = random_cmdp(np.random.default_rng(8), 3, 2, 2, 2)
    for other in (more_states, more_actions, longer, two_constraints):
        with pytest.raises(ValueError, match="cannot resume"):
            train(other, config, state=state)

    def altered(**changes):
        return dataclasses.replace(state, **changes)

    table = state.critic
    for bad in (
        altered(critic=table[:, :, :-1].copy()),  # a state short
        altered(critic=table[:, :-1].copy()),  # a stage short
        altered(critic=table[:-1].copy()),  # a channel short
        altered(visits=state.visits[:-1]),
        altered(multipliers=np.zeros(2)),
        altered(policy=tabular_policy(more_actions)),
    ):
        with pytest.raises(ValueError, match="cannot resume"):
            train(model, config, state=bad)
    for settings in ({"temperature": 0.5}, {"param_bound": 3.0}):
        with pytest.raises(ValueError, match="cannot resume"):
            train(model, dataclasses.replace(config, **settings), state=state)
    assert state.episode == 10  # nothing was trained

    # Seeds stepped in lock-step share every step size: their states must sit
    # at one episode count and their configs differ only in the seed.
    configs = [config, dataclasses.replace(config, seed=6)]
    ahead, _ = train(model, dataclasses.replace(configs[1], episodes=15))
    with pytest.raises(ValueError, match="lock-step: the states are at episodes"):
        train(model, configs, state=[state, ahead])
    with pytest.raises(ValueError, match="only in their seed"):
        train(model, [config, dataclasses.replace(configs[1], temperature=0.5)])
    with pytest.raises(ValueError, match="2 states for 1 configs"):
        train(model, configs[:1], state=[state, ahead])
    assert (state.episode, ahead.episode) == (10, 15)
    assert train(model, config, state=state)[0].episode == 20


def test_stationarity_reports_exact_drift_for_interior_multipliers():
    rng = np.random.default_rng(9)
    model = random_cmdp(rng, 3, 2, 2, 1)
    policy = random_policy(model, rng)
    report = stationarity_diagnostics(model, policy, [-1.0])
    expected_return, totals = evaluate_policy(model, policy)
    assert report.expected_return == pytest.approx(expected_return)
    assert np.allclose(report.constraint_totals, totals)
    assert np.allclose(report.multiplier_drifts, -(totals - model.thresholds))
    assert report.multiplier_bound_active == 0
    grads = exact_gradient(model, policy, np.array([-1.0]))
    assert np.allclose(
        report.stage_gradient_norms, [np.linalg.norm(g) for g in grads]
    )
    # no parameter sits at the box edge, so projection changes nothing
    assert np.allclose(report.projected_gradient_norms, report.stage_gradient_norms)


def test_stationarity_drift_vanishes_for_slack_constraint_at_zero_multiplier():
    rng = np.random.default_rng(10)
    model = random_cmdp(rng, 3, 2, 2, 1)
    policy = random_policy(model, rng)
    _, totals = evaluate_policy(model, policy)
    slack = dataclasses.replace(model, thresholds=totals + 1.0)
    report = stationarity_diagnostics(slack, policy, [0.0])
    assert report.max_multiplier_drift == 0.0
    assert report.multiplier_bound_active == 1

    violated = dataclasses.replace(model, thresholds=totals - 0.5)
    report = stationarity_diagnostics(violated, policy, [0.0])
    assert report.max_multiplier_drift == pytest.approx(0.5)


def test_stationarity_drift_vanishes_for_violation_at_the_penalty_floor():
    rng = np.random.default_rng(11)
    model = random_cmdp(rng, 3, 2, 2, 1)
    policy = random_policy(model, rng)
    _, totals = evaluate_policy(model, policy)
    violated = dataclasses.replace(model, thresholds=totals - 1.0)
    report = stationarity_diagnostics(violated, policy, [-100.0], penalty_floor=-100.0)
    assert report.max_multiplier_drift == 0.0
    assert report.multiplier_bound_active == 1


def test_stationarity_projects_gradients_at_the_parameter_box():
    rng = np.random.default_rng(12)
    model = random_cmdp(rng, 3, 2, 2, 1)
    policy = random_policy(model, rng)
    bound = policy.param_bound
    policy.stage_params[0][:] = bound
    report = stationarity_diagnostics(model, policy, [-0.5])
    grads = exact_gradient(model, policy, np.array([-0.5]))
    assert report.projected_gradient_norms[0] == pytest.approx(
        np.linalg.norm(np.minimum(grads[0], 0.0))
    )
    assert report.projected_gradient_norms[0] <= report.stage_gradient_norms[0]
    assert report.theta_bound_active == policy.stage_params[0].size
