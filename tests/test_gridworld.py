"""Grid-world construction: kernels, schedules, calibration, serialization."""

import dataclasses
import hashlib
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fhc_ac import (
    DISPLACEMENTS,
    GridWorldConfig,
    TrainerConfig,
    benchmark_gridworld,
    build_gridworld,
    calibrate_threshold,
    cell_index,
    constrained_reference,
    evaluate_deterministic,
    exact_gradient,
    finite_difference_gradient,
    fixed_points,
    gridworld_config_from_doc,
    gridworld_config_to_doc,
    greedy_response,
    load_gridworld_config,
    random_gridworld,
    random_schedule,
    save_gridworld_config,
    stationarity_diagnostics,
    step_kernel,
    train,
    validate,
)
from fhc_ac.mdp_model import sampler

from helpers import random_policy, reference_step_kernel

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_displacements_are_row_major_with_stay_in_the_middle():
    assert len(DISPLACEMENTS) == 9
    assert DISPLACEMENTS[0] == (-1, -1)
    assert DISPLACEMENTS[4] == (0, 0)
    assert DISPLACEMENTS[5] == (0, 1)
    assert DISPLACEMENTS[8] == (1, 1)


def test_step_kernel_rows_are_distributions():
    for rows, cols, slip in ((2, 3, 0.1), (4, 4, 0.3), (1, 5, 0.0)):
        kernel = step_kernel(rows, cols, slip)
        n = rows * cols
        assert kernel.shape == (n, 9, n)
        assert kernel.min() >= 0.0
        assert np.allclose(kernel.sum(axis=-1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        step_kernel(2, 2, 1.0)
    with pytest.raises(ValueError):
        step_kernel(2, 2, -0.1)


def test_step_kernel_has_the_bytes_of_the_loop_reference():
    shapes = ((1, 3), (3, 1), (2, 2), (4, 4), (5, 5), (3, 7), (10, 10))
    for (rows, cols), slip in itertools.product(shapes, (0.0, 0.1, 0.2, 1 / 3, 0.999)):
        kernel = step_kernel(rows, cols, slip)
        reference = reference_step_kernel(rows, cols, slip)
        assert kernel.dtype == reference.dtype and kernel.shape == reference.shape
        assert kernel.tobytes() == reference.tobytes(), (rows, cols, slip)


def test_step_kernel_is_deterministic_without_slip():
    kernel = step_kernel(3, 3, 0.0)
    # moving right from the top-left corner lands exactly one cell over
    right = DISPLACEMENTS.index((0, 1))
    expected = np.zeros(9)
    expected[cell_index(0, 1, 3)] = 1.0
    assert np.array_equal(kernel[cell_index(0, 0, 3), right], expected)
    # walking off the top edge stays on the grid
    up = DISPLACEMENTS.index((-1, 0))
    assert kernel[cell_index(0, 1, 3), up, cell_index(0, 1, 3)] == 1.0


def test_step_kernel_merges_slip_mass_at_the_walls():
    # 2x2 grid, slip 0.1: each stray displacement carries 0.0125. From the
    # top-left corner, "stay" keeps 0.9 plus the three displacements that
    # clamp back onto the corner.
    kernel = step_kernel(2, 2, 0.1)
    stay = DISPLACEMENTS.index((0, 0))
    assert np.allclose(kernel[0, stay], [0.9375, 0.025, 0.025, 0.0125], atol=1e-15)
    diag = DISPLACEMENTS.index((1, 1))
    assert np.allclose(kernel[0, diag], [0.05, 0.025, 0.025, 0.9], atol=1e-15)


def test_build_gridworld_attaches_cell_values_to_the_landing_state():
    config = dataclasses.replace(random_gridworld(rows=2, cols=3, horizon=3, seed=0), slip=0.2)
    model = build_gridworld(config)
    n = config.num_cells
    assert model.num_states == n
    assert model.num_actions == 9
    assert model.horizon == 3
    for h in range(3):
        # the reward of a transition depends only on the stage and the cell
        # it lands on, never on the origin or the action
        for sp in range(n):
            assert np.all(model.costs[0, h, :, :, sp] == config.stage_rewards[h, sp])
            assert np.all(model.costs[1, h, :, :, sp] == config.stage_costs[0, h, sp])
    assert np.array_equal(model.terminal_costs[0], config.stage_rewards[3])
    assert np.array_equal(model.terminal_costs[1:], config.stage_costs[:, 3])
    # same physics at every stage
    for h in range(1, 3):
        assert np.array_equal(model.kernels[h], model.kernels[0])
    beta = np.zeros(n)
    beta[cell_index(*config.start, config.cols)] = 1.0
    assert np.array_equal(model.initial_distribution, beta)
    assert validate(model).ok


def test_build_gridworld_rejects_bad_start_and_shapes():
    config = random_gridworld(rows=2, cols=2, horizon=2, seed=1)
    with pytest.raises(ValueError):
        build_gridworld(dataclasses.replace(config, start=(2, 0)))
    with pytest.raises(ValueError):
        build_gridworld(
            dataclasses.replace(config, stage_rewards=config.stage_rewards[:-1])
        )
    with pytest.raises(ValueError):
        build_gridworld(
            dataclasses.replace(config, stage_costs=config.stage_costs[:, :-1])
        )


def test_random_schedule_places_the_requested_number_of_cells():
    rng = np.random.default_rng(2)
    sched = random_schedule(rng, num_cells=12, horizon=4, cells_per_stage=3, low=2.0, high=5.0)
    assert sched.shape == (5, 12)
    for h in range(5):
        nonzero = sched[h][sched[h] != 0.0]
        assert len(nonzero) == 3
        assert np.all((nonzero >= 2.0) & (nonzero <= 5.0))
    with pytest.raises(ValueError):
        random_schedule(rng, 4, 2, cells_per_stage=5, low=0.0, high=1.0)
    # a cell value range that is not finite cannot be drawn from
    for low, high in ((2.0, math.nan), (-math.inf, 4.0), (2.0, math.inf), (math.nan, 5.0)):
        with pytest.raises(ValueError):
            random_schedule(rng, 12, 4, cells_per_stage=3, low=low, high=high)


def test_random_gridworld_is_reproducible_by_seed():
    a = random_gridworld(3, 3, 5, seed=7)
    b = random_gridworld(3, 3, 5, seed=7)
    c = random_gridworld(3, 3, 5, seed=8)
    assert np.array_equal(a.stage_rewards, b.stage_rewards)
    assert np.array_equal(a.stage_costs, b.stage_costs)
    assert not np.array_equal(a.stage_rewards, c.stage_rewards)
    assert np.array_equal(a.thresholds, np.zeros(1))


def test_calibrate_threshold_scales_the_unconstrained_policy_cost():
    config = random_gridworld(3, 3, 4, seed=3)
    calibrated = calibrate_threshold(config, fraction=0.6)
    model = build_gridworld(config)
    actions = greedy_response(model, np.zeros(1))
    _, unconstrained_costs = evaluate_deterministic(model, actions)
    assert np.allclose(calibrated.thresholds, 0.6 * unconstrained_costs)
    assert calibrated.thresholds[0] > 0.0
    # everything but the thresholds is untouched
    assert np.array_equal(calibrated.stage_rewards, config.stage_rewards)
    for fraction in (0.0, -0.6, math.nan, math.inf):
        with pytest.raises(ValueError):
            calibrate_threshold(config, fraction=fraction)


def test_greedy_response_takes_the_lowest_index_among_tied_actions():
    # The reward-greedy q values of this world tie across actions at several
    # (h, s). Recomputed on the optimal values with math.fsum, the choice must
    # still be the lowest index within 1e-12 * max(1, |row max|) of the row
    # max, whatever order numpy summed them in.
    model = build_gridworld(random_gridworld(4, 4, 10, seed=3))
    actions = greedy_response(model, np.zeros(1))
    kernels, rewards = model.kernels.tolist(), model.costs[0].tolist()
    v = model.terminal_costs[0].tolist()
    ties = 0
    for h in range(model.horizon - 1, -1, -1):
        next_v = []
        for s in range(model.num_states):
            q = [
                math.fsum([p * r for p, r in zip(kernels[h][s][a], rewards[h][s][a])]
                          + [p * w for p, w in zip(kernels[h][s][a], v)])
                for a in range(model.num_actions)
            ]
            best = max(q)
            tied = [a for a, x in enumerate(q) if x >= best - 1e-12 * max(1.0, abs(best))]
            assert actions[h, s] == tied[0], (h, s, q)
            ties += len(tied) > 1
            next_v.append(best)
        v = next_v
    assert ties > 0


def test_benchmark_gridworld_lights_the_central_block_with_one_costly_cell():
    config = benchmark_gridworld()
    assert (config.rows, config.cols, config.horizon) == (4, 4, 10)
    assert config.start == (2, 2)  # inside the block, off the costly cell
    block = {cell_index(r, c, 4) for r in (1, 2) for c in (1, 2)}
    costly = cell_index(1, 1, 4)
    for h in range(1, 11):
        lit = set(np.flatnonzero(config.stage_rewards[h] > 0.0))
        assert lit == block
        outside = np.delete(config.stage_rewards[h], sorted(block))
        assert np.all(outside == -1.0)
        block_values = config.stage_rewards[h, sorted(block)]
        assert np.allclose(block_values, block_values[0], atol=1e-5)
        # ... except for the tie-break nudge that makes the costly cell the
        # strict argmax for the exact solver without moving a learner
        assert np.argmax(config.stage_rewards[h]) == costly
        assert set(np.flatnonzero(config.stage_costs[0, h])) == {costly}
    # row 0 pays on the very first landing; keeping it zero leaves the
    # opening step reward-free so nothing special happens before stage 1
    assert np.all(config.stage_rewards[0] == 0.0)
    # the reward schedule actually changes across stages
    assert not all(
        np.array_equal(config.stage_rewards[1], config.stage_rewards[h])
        for h in range(2, 11)
    )
    # threshold comes from the calibration rule used everywhere else
    model = build_gridworld(config)
    actions = greedy_response(model, np.zeros(1))
    _, unconstrained_costs = evaluate_deterministic(model, actions)
    assert np.allclose(config.thresholds, 0.6 * unconstrained_costs)
    assert config.thresholds[0] > 0.0
    # the greedy policy parks on the costly cell, so most landings pay cost
    assert unconstrained_costs[0] > 0.8 * config.horizon * (1.0 - config.slip)


def test_generators_draw_the_pinned_schedules():
    # sha256 of the schedule bytes; the thresholds are left out because
    # calibration goes through BLAS, whose summation order may vary
    pinned = [
        (
            random_gridworld(4, 4, 10, seed=3),
            (0, 0),
            "a64a74d3ec0aa638a0b25676de16f5f1a545d454777f7daa3785aa865bd9e5ba",
            "f014b0a5b49bdc7cb676ca7186f59760accbd6e11aa60b1bba08713652d5ae78",
        ),
        (
            benchmark_gridworld(),
            (2, 2),
            "00427a4e6be477d36eb185df33d167cc78c6bad87ad335379190b6ae8399ee58",
            "a719e40355e294dfd4f7b59f7ea96b23a8e36c2fe8c549097680ca028bd9f1d8",
        ),
    ]
    for config, start, rewards_digest, costs_digest in pinned:
        assert (config.rows, config.cols, config.horizon) == (4, 4, 10)
        assert config.slip == 0.1 and config.start == start
        assert config.stage_rewards.shape == (11, 16)
        assert config.stage_costs.shape == (1, 11, 16)
        assert hashlib.sha256(config.stage_rewards.tobytes()).hexdigest() == rewards_digest
        assert hashlib.sha256(config.stage_costs.tobytes()).hexdigest() == costs_digest


def test_gridworld_config_round_trips_through_json(tmp_path):
    config = calibrate_threshold(random_gridworld(2, 3, 3, seed=4), 0.5)
    path = tmp_path / "grid.json"
    save_gridworld_config(config, path)
    loaded = load_gridworld_config(path)
    assert (loaded.rows, loaded.cols, loaded.horizon) == (2, 3, 3)
    assert loaded.slip == config.slip
    assert loaded.start == config.start
    assert np.array_equal(loaded.stage_rewards, config.stage_rewards)
    assert np.array_equal(loaded.stage_costs, config.stage_costs)
    assert np.array_equal(loaded.thresholds, config.thresholds)

    doc = gridworld_config_to_doc(config)
    again = gridworld_config_from_doc(doc)
    model_a = build_gridworld(config)
    model_b = build_gridworld(again)
    assert np.array_equal(model_a.kernels, model_b.kernels)
    assert np.array_equal(model_a.costs, model_b.costs)
    assert np.array_equal(model_a.thresholds, model_b.thresholds)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "world",
    ["gridworld_4x4.json", "gridworld_5x5_h100.json"] + [f"random-{seed}" for seed in range(6)],
)
def test_build_gridworld_shares_its_tables_and_reads_like_dense_ones(world):
    if world.startswith("random-"):
        config = random_gridworld(3, 4, 5, seed=int(world.split("-")[1]))
    else:
        config = load_gridworld_config(CONFIGS / world)
    model = build_gridworld(config)
    # One kernel for every stage, and costs that repeat one stacked copy of
    # the schedules over origins and actions: a buffer of at most
    # (1+M)(H+1)S values, whose stage rows are the schedules' cell values.
    H, S = model.horizon, model.num_states
    assert model.kernels.strides[0] == 0
    assert model.costs.strides[2:4] == (0, 0)
    low, high = np.lib.array_utils.byte_bounds(model.costs)
    assert high - low <= len(model.costs) * (H + 1) * S * model.costs.itemsize
    schedules = np.concatenate([config.stage_rewards[None], config.stage_costs])
    assert same_bits(model.costs[:, :, 0, 0], schedules[:, :H])
    for table in (model.kernels, model.costs):
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1.0

    dense = dataclasses.replace(model, kernels=model.kernels.copy(), costs=model.costs.copy())
    assert dense.kernels.strides[0] != 0
    assert same_bits(model.channel_costs, dense.channel_costs)
    # The view's kernel sums are one stage block, equal to every stage block
    # of the dense copy's.
    sums, dense_sums = np.asarray(model.kernel_sums), np.asarray(dense.kernel_sums)
    entries = S * model.num_actions * S
    assert len(sums) == entries and len(dense_sums) == H * entries
    for h in range(H):
        assert same_bits(dense_sums[h * entries : (h + 1) * entries], sums)
    rng = np.random.default_rng(7)
    policy = random_policy(model, rng, scale=2.0)
    table = policy.distribution_table()
    running = np.cumsum(table, axis=-1)
    draws = sampler(model, table, running), sampler(dense, table, running)
    for seed in range(200):
        got, want = (draw(np.random.default_rng(seed)) for draw in draws)
        assert got == want
    lam = -rng.uniform(0.0, 3.0, size=model.num_constraints)
    for reader in (fixed_points, exact_gradient, finite_difference_gradient):
        assert same_bits(reader(model, policy, lam), reader(dense, policy, lam))
    got, want = constrained_reference(model), constrained_reference(dense)
    for field in dataclasses.fields(got):
        assert same_bits(getattr(got, field.name), getattr(want, field.name)), field.name


def test_training_the_h100_world_allocates_no_dense_table():
    # One dense float copy of an (H, S, A, S) table of this world is 4.29 MiB;
    # the kernel sums train builds hold one stage, 45 KB.
    config = load_gridworld_config(CONFIGS / "gridworld_5x5_h100.json")
    tracemalloc.start()
    try:
        model = build_gridworld(config)
        state, _ = train(model, TrainerConfig(episodes=50))
        stationarity_diagnostics(model, state.policy, state.multipliers)
        constrained_reference(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_validate_checks_a_shared_step_kernel_once():
    # One dense float copy of an (H, S, A, S) table of this world is 6.87 MiB.
    model = build_gridworld(random_gridworld(10, 10, 100, 0))
    tracemalloc.start()
    try:
        report = validate(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 2**20, peak

    # A bad step kernel entry breaks its row and its sign at every stage, and
    # a NaN in a schedule makes the costs non-finite: the view and its dense
    # copy report the same violations, stage by stage.
    small = build_gridworld(random_gridworld(3, 3, 4, 1))
    kernel = small.kernels[0].copy()
    kernel[4, 2, 1] = -0.25
    kernel[7, 0, 3] += 0.5
    costs = small.costs[:, :, :1, :1].copy()
    costs[1, 2, 0, 0, 5] = np.nan
    view = dataclasses.replace(
        small,
        kernels=np.broadcast_to(kernel, small.kernels.shape),
        costs=np.broadcast_to(costs, small.costs.shape),
    )
    dense = dataclasses.replace(view, kernels=view.kernels.copy(), costs=view.costs.copy())
    report = validate(view)
    assert report.violations == validate(dense).violations
    assert len(report.violations) == 3 * small.horizon + 1
    assert "kernel entry (h=3, s=4, a=2, s'=1) is negative" in report.violations
    assert "costs contains non-finite values" in report.violations
