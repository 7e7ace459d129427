"""Run one `fhc-ac` command in this process with timing hooks, then save them.

Usage: python3 bench/probe.py RECORD.json TRACE -- <fhc-ac arguments>

The hooks replace public functions of `fhc_ac` at the name each caller looks
up (a module global, a module attribute or a class attribute), so nothing
under src/ changes. With TRACE 0 only the command's entry points are wrapped:
one span per call of `trainer.train` and a mark at the first call into real
work, which ends the set-up phase. TRACE 1 wraps every layer function the
benchmark reports. The exit code is the command's.
"""

from __future__ import annotations

import os
import sys

from spans import Tracer


def _count_steps(tracer, episode, args, kwargs):
    tracer.counts["mdp_model.rollout.steps"] += episode.actions.shape[0]


def _count_distribution_in_train(tracer, result, args, kwargs):
    if tracer.within("trainer.train"):
        tracer.counts["policy.action_distribution.in_train"] += 1


def _count_clipped(tracer, clipped, args, kwargs):
    tracer.counts["trainer.actor_update.clipped"] += int(clipped)


def _count_clamped(tracer, result, args, kwargs):
    _, floor_hit, zero_hit = result
    tracer.counts["trainer.multiplier_update.clamped"] += int(floor_hit or zero_hit)


def _count_episodes(tracer, result, args, kwargs):
    _, metrics = result
    tracer.counts["trainer.train.episodes"] += int(metrics.returns.shape[0])


def _checkpoint_bytes(tracer, result, args, kwargs):
    tracer.values["trainer.save_checkpoint.bytes"].append(os.path.getsize(args[1]))


def _csv_bytes_per_row(tracer, result, args, kwargs):
    path, metrics = args[0], args[1]
    rows = max(int(metrics.returns.shape[0]), 1)
    tracer.values["experiment_cli.write_run_csv.bytes_per_row"].append(
        os.path.getsize(path) / rows
    )


def _svg_bytes(tracer, result, args, kwargs):
    out_dir = args[0]
    total = sum(p.stat().st_size for p in out_dir.glob("*.svg"))
    tracer.values["experiment_cli.write_experiment_plots.bytes"].append(total)


def install(tracer: Tracer, trace: bool) -> None:
    from fhc_ac import dp_oracle, experiment_cli, gridworld_env, policy, trainer

    modules = {
        "dp_oracle": dp_oracle,
        "experiment_cli": experiment_cli,
        "trainer": trainer,
        "policy.NonStationaryPolicy": policy.NonStationaryPolicy,
    }
    # Calls that end the set-up phase: training, or the first oracle query.
    entries = [
        ("experiment_cli", "train", "trainer.train", _count_episodes),
        ("dp_oracle", "constrained_reference", "dp_oracle.constrained_reference", None),
        ("dp_oracle", "exact_gradient", "dp_oracle.exact_gradient", None),
        ("dp_oracle", "evaluate_policy", "dp_oracle.evaluate_policy", None),
        ("experiment_cli", "fixed_points", "critic.fixed_points", None),
    ]
    hooks = list(entries)
    if trace:
        hooks += [
            ("trainer", "rollout", "mdp_model.rollout", _count_steps),
            ("experiment_cli", "validate", "mdp_model.validate", None),
            ("policy.NonStationaryPolicy", "action_distribution", "policy.action_distribution",
             _count_distribution_in_train),
            ("policy.NonStationaryPolicy", "sample_action", "policy.sample_action", None),
            ("policy.NonStationaryPolicy", "score", "policy.score", None),
            ("trainer", "update_penalized_critic", "critic.update_penalized_critic", None),
            ("trainer", "update_constraint_critic", "critic.update_constraint_critic", None),
            ("trainer", "actor_update", "trainer.actor_update", _count_clipped),
            ("trainer", "multiplier_update", "trainer.multiplier_update", _count_clamped),
            ("experiment_cli", "stationarity_diagnostics", "trainer.stationarity_diagnostics",
             None),
            ("experiment_cli", "save_checkpoint", "trainer.save_checkpoint", _checkpoint_bytes),
            ("experiment_cli", "load_checkpoint", "trainer.load_checkpoint", None),
            ("dp_oracle", "backward_induction", "dp_oracle.backward_induction", None),
            ("dp_oracle", "occupation_measures", "dp_oracle.occupation_measures", None),
            ("dp_oracle", "finite_difference_gradient", "dp_oracle.finite_difference_gradient",
             None),
            ("dp_oracle", "lagrangian_value", "dp_oracle.lagrangian_value", None),
            ("dp_oracle", "greedy_response", "dp_oracle.greedy_response", None),
            ("experiment_cli", "model_from_resolved", "experiment_cli.model_from_resolved", None),
            ("experiment_cli", "run_seed", "experiment_cli.run_seed", None),
            ("experiment_cli", "write_run_csv", "experiment_cli.write_run_csv", _csv_bytes_per_row),
            ("experiment_cli", "write_aggregate_csv", "experiment_cli.write_aggregate_csv", None),
            ("experiment_cli", "write_experiment_plots", "experiment_cli.write_experiment_plots",
             _svg_bytes),
            ("experiment_cli", "cmd_plot", "experiment_cli.cmd_plot", None),
        ]
    for i, (owner, attr, name, after) in enumerate(hooks):
        target = modules[owner]
        wrapped = tracer.wrap(
            name,
            getattr(target, attr),
            after=after,
            entry=i < len(entries),
            keep_self=name == "trainer.train",
        )
        setattr(target, attr, wrapped)
    if trace:
        # The CLI imported build_gridworld by name; calibrate_threshold calls it
        # through its own module. One wrapper serves both lookups.
        wrapped = tracer.wrap("gridworld_env.build_gridworld", gridworld_env.build_gridworld)
        gridworld_env.build_gridworld = wrapped
        experiment_cli.build_gridworld = wrapped


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: probe.py RECORD.json TRACE -- <fhc-ac arguments>", file=sys.stderr)
        return 2
    record, trace = argv[0], argv[1] == "1"
    tracer = Tracer()
    install(tracer, trace)
    from fhc_ac import experiment_cli

    code = experiment_cli.main(argv[3:])
    tracer.dump(record)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
