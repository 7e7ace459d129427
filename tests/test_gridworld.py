"""Grid-world construction: kernels, schedules, calibration, serialization."""

import math

import numpy as np
import pytest

from fhc_ac import (
    DISPLACEMENTS,
    GridWorldConfig,
    benchmark_gridworld,
    build_gridworld,
    calibrate_threshold,
    cell_index,
    evaluate_deterministic,
    gridworld_config_from_doc,
    gridworld_config_to_doc,
    greedy_response,
    load_gridworld_config,
    random_gridworld,
    random_schedule,
    save_gridworld_config,
    step_kernel,
    validate,
)


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
    config = random_gridworld(rows=2, cols=3, horizon=3, seed=0, slip=0.2)
    model = build_gridworld(config)
    n = config.num_cells
    assert model.num_states == n
    assert model.num_actions == 9
    assert model.horizon == 3
    for h in range(3):
        # the reward of a transition depends only on the stage and the cell
        # it lands on, never on the origin or the action
        for sp in range(n):
            assert np.all(model.rewards[h, :, :, sp] == config.stage_rewards[h, sp])
            assert np.all(
                model.constraint_costs[0, h, :, :, sp] == config.stage_costs[0, h, sp]
            )
    assert np.array_equal(model.terminal_reward, config.stage_rewards[3])
    assert np.array_equal(model.terminal_constraint_costs, config.stage_costs[:, 3])
    # same physics at every stage
    for h in range(1, 3):
        assert np.array_equal(model.kernels[h], model.kernels[0])
    beta = np.zeros(n)
    beta[cell_index(*config.start, config.cols)] = 1.0
    assert np.array_equal(model.initial_distribution, beta)
    assert validate(model).ok


def test_build_gridworld_rejects_bad_start_and_shapes():
    config = random_gridworld(rows=2, cols=2, horizon=2, seed=1)
    import dataclasses

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


def test_random_gridworld_is_reproducible_by_seed():
    a = random_gridworld(3, 3, 5, seed=7)
    b = random_gridworld(3, 3, 5, seed=7)
    c = random_gridworld(3, 3, 5, seed=8)
    assert np.array_equal(a.stage_rewards, b.stage_rewards)
    assert np.array_equal(a.stage_costs, b.stage_costs)
    assert not np.array_equal(a.stage_rewards, c.stage_rewards)
    assert np.array_equal(a.thresholds, np.zeros(1))


def test_calibrate_threshold_scales_the_unconstrained_policy_cost():
    config = random_gridworld(3, 3, 4, seed=3, slip=0.1)
    calibrated = calibrate_threshold(config, fraction=0.6)
    model = build_gridworld(config)
    actions = greedy_response(model, np.zeros(1))
    _, unconstrained_costs = evaluate_deterministic(model, actions)
    assert np.allclose(calibrated.thresholds, 0.6 * unconstrained_costs)
    assert calibrated.thresholds[0] > 0.0
    # everything but the thresholds is untouched
    assert np.array_equal(calibrated.stage_rewards, config.stage_rewards)
    with pytest.raises(ValueError):
        calibrate_threshold(config, fraction=0.0)


def test_greedy_response_takes_the_lowest_index_among_tied_actions():
    # The reward-greedy q values of this world tie across actions at several
    # (h, s). Recomputed on the optimal values with math.fsum, the choice must
    # still be the lowest index within 1e-12 * max(1, |row max|) of the row
    # max, whatever order numpy summed them in.
    model = build_gridworld(random_gridworld(4, 4, 10, seed=3))
    actions = greedy_response(model, np.zeros(1))
    kernels, rewards = model.kernels.tolist(), model.rewards.tolist()
    v = model.terminal_reward.tolist()
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
    with pytest.raises(ValueError):
        benchmark_gridworld(rows=3)


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
    assert np.array_equal(model_a.rewards, model_b.rewards)
    assert np.array_equal(model_a.thresholds, model_b.thresholds)
