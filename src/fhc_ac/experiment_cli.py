"""Command-line front end: run experiments, query the exact solver, make plots.

Subcommands
-----------
train       run a training experiment from a JSON config, write CSVs and plots
oracle      exact-solver utilities: gradcheck, solve, evaluate, fixedpoint
env         grid-world helpers: generate a calibrated random instance
plot        re-render the SVG charts from a finished run directory

Exit codes: 0 success; 2 unusable configuration or arguments; 3 a model or
schedule failed validation; 4 numerical failure at run time.

Per-seed CSV columns are `episode,return,cost_1..cost_M,lambda_1..lambda_M,
ma_return,ma_cost_1..ma_cost_M`, where the ma columns are trailing moving
averages over the configured window (shorter at the start of the run). The
seeds train in lock-step, one `train` call per batch of seeds. The environment
variable FHC_AC_THREADS sets how many worker processes share the seeds, one
contiguous batch each (default 1: every seed in one batch, in-process).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import dp_oracle
from .dp_oracle import fixed_points, stationarity_diagnostics
from .gridworld_env import (
    benchmark_gridworld,
    build_gridworld,
    calibrate_threshold,
    gridworld_config_from_doc,
    random_gridworld,
    save_gridworld_config,
)
from .mdp_model import json_integer, json_real, model_from_doc, reachable_sets, validate
from .plots import write_experiment_plots
from .policy import load_policy, tabular_policy
from .trainer import (
    StepSizeSchedules,
    TrainerConfig,
    check_schedules,
    load_checkpoint,  # unused here; bench/probe.py times calls at this name
    moving_average,
    save_checkpoint,
    train,
)

EXIT_BAD_CONFIG = 2
EXIT_INVALID_MODEL = 3
EXIT_NUMERICAL_FAILURE = 4

GRADCHECK_TOLERANCE = 1e-5


class CliError(Exception):
    """Carries the process exit code alongside the message."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# experiment configuration


# The one schema of an experiment config: key -> (default, accepts, what it
# must be). A None default marks a required key; any key not listed is refused.
SETTING_RULES = {
    "name": ("experiment", lambda x: isinstance(x, str), "a string"),
    "model": (None, lambda x: isinstance(x, dict), "an object"),
    "episodes": (None, lambda x: json_integer(x) and x > 0, "a positive integer"),
    "seeds": (
        None,
        lambda x: isinstance(x, list) and len(x) > 0
        and all(json_integer(s) and s >= 0 for s in x) and len(set(x)) == len(x),
        "a non-empty list of distinct non-negative integers",
    ),
    "window": (10_000, lambda x: json_integer(x) and x > 0, "a positive integer"),
    "temperature": (
        TrainerConfig.temperature, lambda x: json_real(x) and x > 0, "a positive number"
    ),
    "param_bound": (
        TrainerConfig.param_bound, lambda x: json_real(x) and x > 0, "a positive number"
    ),
    "penalty_floor": (
        TrainerConfig.penalty_floor, lambda x: json_real(x) and x < 0, "a negative number"
    ),
    "schedules": (
        {},
        lambda x: isinstance(x, dict) and all(map(json_real, x.values())),
        "an object of finite numbers",
    ),
    "plots": (True, lambda x: isinstance(x, bool), "a JSON boolean"),
}


def load_experiment_doc(path: Path) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise CliError(f"cannot read experiment config: {e}", EXIT_BAD_CONFIG)
    except json.JSONDecodeError as e:
        raise CliError(f"experiment config is not valid JSON: {e}", EXIT_BAD_CONFIG)
    if not isinstance(doc, dict):
        raise CliError("experiment config must be a JSON object", EXIT_BAD_CONFIG)
    return doc


def resolve_model_doc(model_section: dict, base_dir: Path) -> dict:
    """Inline the model content so the config hash covers what actually ran."""
    if "kind" not in model_section:
        raise CliError("model section needs a 'kind'", EXIT_BAD_CONFIG)
    kind = model_section["kind"]
    if kind == "gridworld":
        if "gridworld" not in model_section:
            raise CliError("gridworld model needs a 'gridworld' object", EXIT_BAD_CONFIG)
        return {"kind": "gridworld", "gridworld": model_section["gridworld"]}
    if kind == "file":
        path = Path(model_section.get("path", ""))
        if not path.is_absolute():
            path = base_dir / path
        try:
            with open(path) as f:
                content = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise CliError(f"cannot load model file {path}: {e}", EXIT_BAD_CONFIG)
        if isinstance(content, dict) and "rows" in content:
            return {"kind": "gridworld", "gridworld": content}
        return {"kind": "tables", "tables": content}
    raise CliError(f"unknown model kind {kind!r}", EXIT_BAD_CONFIG)


def model_from_resolved(resolved: dict):
    if resolved["kind"] == "gridworld":
        return build_gridworld(gridworld_config_from_doc(resolved["gridworld"]))
    return model_from_doc(resolved["tables"])


def checked_model(resolved: dict):
    """Build and validate a resolved model for `train` and the `oracle` commands.

    A description that cannot be built (missing keys, wrong types or shapes)
    exits 2; a model that fails validation exits 3.
    """
    try:
        model = model_from_resolved(resolved)
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(f"bad model description: {e!r}", EXIT_BAD_CONFIG)
    report = validate(model)
    if not report:
        raise CliError(
            "model failed validation: " + "; ".join(report.violations), EXIT_INVALID_MODEL
        )
    return model


def experiment_settings(doc: dict, base_dir: Path) -> dict:
    """Apply defaults, check every key and value and resolve the model;
    returns the canonical settings, one entry per SETTING_RULES key.

    An unknown key, a missing required key or a value that breaks its
    SETTING_RULES entry exits 2; the step-size exponents and scales are
    judged later by `check_schedules`. `doc` is the config with the command
    line's overrides applied, so an override can supply a required key.
    """
    unknown = set(doc) - set(SETTING_RULES)
    if unknown:
        raise CliError(f"unknown experiment keys: {sorted(unknown)}", EXIT_BAD_CONFIG)
    settings = {}
    for key, (default, accepts, what) in SETTING_RULES.items():
        if default is None and key not in doc:
            raise CliError(f"experiment config missing required key {key!r}", EXIT_BAD_CONFIG)
        settings[key] = doc.get(key, default)
        if not accepts(settings[key]):
            raise CliError(f"{key!r} must be {what}", EXIT_BAD_CONFIG)
    try:
        settings["schedules"] = dataclasses.asdict(StepSizeSchedules(**settings["schedules"]))
    except TypeError as e:
        raise CliError(f"bad schedules section: {e}", EXIT_BAD_CONFIG)
    try:
        settings["model"] = resolve_model_doc(settings["model"], base_dir)
    except (TypeError, ValueError) as e:
        raise CliError(f"bad model section: {e}", EXIT_BAD_CONFIG)
    for key in ("temperature", "param_bound", "penalty_floor"):
        settings[key] = float(settings[key])
    return settings


def config_hash(settings: dict) -> str:
    canonical = {k: v for k, v in settings.items() if k != "plots"}
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def trainer_config(settings: dict, seed: int) -> TrainerConfig:
    return TrainerConfig(
        episodes=settings["episodes"],
        seed=seed,
        temperature=settings["temperature"],
        param_bound=settings["param_bound"],
        penalty_floor=settings["penalty_floor"],
        schedules=StepSizeSchedules(**settings["schedules"]),
    )


# ---------------------------------------------------------------------------
# CSV output


def csv_header(num_constraints: int) -> str:
    cols = ["episode", "return"]
    cols += [f"cost_{k + 1}" for k in range(num_constraints)]
    cols += [f"lambda_{k + 1}" for k in range(num_constraints)]
    cols.append("ma_return")
    cols += [f"ma_cost_{k + 1}" for k in range(num_constraints)]
    return ",".join(cols)


CSV_BLOCK = 8192  # rows formatted and written at once, so a CSV is never one string


def write_columns(path: Path, header: str, columns: list) -> None:
    """Write equal-length 1-D arrays as CSV columns, each value as its exact `repr`."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for start in range(0, len(columns[0]), CSV_BLOCK):
            rows = zip(*(c[start : start + CSV_BLOCK].tolist() for c in columns))
            f.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def write_run_csv(path: Path, metrics, window: int) -> dict:
    """Write one seed's per-episode CSV; returns the ma columns for reuse."""
    n, m = metrics.constraint_totals.shape
    ma_return = moving_average(metrics.returns, window)
    ma_costs = np.array(
        [moving_average(metrics.constraint_totals[:, k], window) for k in range(m)]
    ).reshape(m, n)
    write_columns(
        path,
        csv_header(m),
        [np.arange(1, n + 1), metrics.returns, *metrics.constraint_totals.T,
         *metrics.multipliers.T, ma_return, *ma_costs],
    )
    return {"ma_return": ma_return, "ma_costs": ma_costs}


def read_run_series(run_dir: Path, seed_entries: list, num_constraints: int) -> dict:
    """Read the K seeds' curves back from the CSVs that summary.json's `{seed, csv}`
    entries name, each found by its file name in `run_dir` so that a moved run
    directory still plots: "ma_return" (K, n), "ma_costs" and "multipliers"
    (M, K, n). A CSV that cannot be read, has another header than
    `csv_header(M)`, or whose row count is 0 or not the first's exits 2.
    """
    m = num_constraints
    header = csv_header(m)
    tables = []
    for entry in seed_entries:
        csv_path = run_dir / Path(entry["csv"]).name
        try:
            with open(csv_path) as f:
                found = f.readline().rstrip("\n")
                # lambda_1..lambda_M, ma_return, ma_cost_1..ma_cost_M
                data = np.loadtxt(f, delimiter=",", usecols=range(2 + m, 3 + 3 * m), ndmin=2)
        except (OSError, ValueError) as e:
            raise CliError(f"cannot read {csv_path}: {e}", EXIT_BAD_CONFIG)
        n = data.shape[0]
        if found != header or n == 0 or (tables and n != tables[0].shape[0]):
            raise CliError(
                f"{csv_path} has header {found!r} and {n} rows; expected {header!r} and "
                "a positive row count shared by every seed",
                EXIT_BAD_CONFIG,
            )
        tables.append(data)
    curves = np.stack(tables).transpose(2, 0, 1)
    return {
        "seeds": [entry["seed"] for entry in seed_entries],
        "multipliers": curves[:m],
        "ma_return": curves[m],
        "ma_costs": curves[m + 1 :],
    }


def write_aggregate_csv(path: Path, series: dict) -> None:
    """Across-seed mean/min/max of every moving-average column, per episode."""
    names = ["episode"]
    columns = [np.arange(1, series["ma_return"].shape[1] + 1)]
    for k, curves in enumerate([series["ma_return"], *series["ma_costs"]]):
        name = f"ma_cost_{k}" if k else "ma_return"
        names += [f"{name}_mean", f"{name}_min", f"{name}_max"]
        columns += [curves.mean(axis=0), curves.min(axis=0), curves.max(axis=0)]
    write_columns(path, ",".join(names), columns)


# ---------------------------------------------------------------------------
# seed execution


def run_seed(model, settings: dict, state, metrics, out_dir: Path, train_seconds: float):
    """Write one trained seed's CSV and checkpoint from its state and its N
    metrics rows, and return its summary.json record with the exact
    stationarity diagnostics of the trained state. Its "seconds" are
    `train_seconds`, the seed's share of its batch's training time, plus the
    time its CSV and checkpoint take to write."""
    started = time.perf_counter()
    seed = state.config.seed
    run_id = f"{config_hash(settings)}-seed{seed}"
    csv_path = out_dir / f"{run_id}.csv"
    ma = write_run_csv(csv_path, metrics, settings["window"])
    checkpoint_path = out_dir / f"{run_id}.checkpoint.json"
    save_checkpoint(state, checkpoint_path)
    tail = slice(max(metrics.returns.size - 10_000, 0), None)
    record = {
        "seed": seed,
        "run_id": run_id,
        "csv": str(csv_path),
        "checkpoint": str(checkpoint_path),
        "final_ma_return": float(ma["ma_return"][-1]),
        "final_ma_costs": [float(c[-1]) for c in ma["ma_costs"]],
        "final_multipliers": state.multipliers.tolist(),
        "theta_clipped_tail": int(np.count_nonzero(metrics.theta_clipped[tail])),
        "floor_clipped_tail": int(np.count_nonzero(metrics.multiplier_floor_clipped[tail])),
        "seconds": train_seconds + time.perf_counter() - started,
    }
    diag = stationarity_diagnostics(
        model, state.policy, state.multipliers, penalty_floor=settings["penalty_floor"]
    )
    record["stationarity"] = {
        "max_projected_gradient_norm": diag.max_projected_gradient_norm,
        "max_multiplier_drift": diag.max_multiplier_drift,
        "theta_bound_active": diag.theta_bound_active,
        "expected_return": diag.expected_return,
        "constraint_totals": diag.constraint_totals.tolist(),
    }
    return record


def run_batch(model, settings: dict, seeds: list, out_dir: Path, progress_every: int = 0):
    """Train `seeds` on the checked model in one lock-step `train` call, then
    write each seed's outputs through `run_seed`; returns their records. A
    FloatingPointError from `train` names the seed that diverged, and then
    no seed of the batch writes anything."""

    def progress(done, total):
        for seed in seeds:
            print(f"  seed {seed}: episode {done}/{total}", file=sys.stderr, flush=True)

    configs = [trainer_config(settings, seed) for seed in seeds]
    started = time.perf_counter()
    states, metrics = train(model, configs, progress_every=progress_every, progress=progress)
    share = (time.perf_counter() - started) / len(seeds)
    return [
        run_seed(model, settings, state, rows, out_dir, share)
        for state, rows in zip(states, metrics.per_seed(len(seeds)))
    ]


def _batch_worker(payload):
    settings, seeds, out_dir, progress_every = payload
    model = model_from_resolved(settings["model"])
    return run_batch(model, settings, seeds, Path(out_dir), progress_every)


def worker_count(num_seeds: int) -> int:
    raw = os.environ.get("FHC_AC_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise CliError(f"FHC_AC_THREADS must be an integer, got {raw!r}", EXIT_BAD_CONFIG)
    if threads < 1:
        raise CliError("FHC_AC_THREADS must be at least 1", EXIT_BAD_CONFIG)
    return min(threads, num_seeds)


def run_experiment(settings: dict, out_dir: Path, progress_every: int = 0) -> dict:
    """Run every seed, then write the aggregate CSV, summary, and plots; the
    aggregate and the plots read the seeds' CSVs back, as `plot` does. The
    output directory is made only once the model, the schedules and
    FHC_AC_THREADS pass."""
    model = checked_model(settings["model"])
    sched_report = check_schedules(StepSizeSchedules(**settings["schedules"]))
    if not sched_report:
        raise CliError(
            "step-size schedules rejected: " + "; ".join(sched_report.violations),
            EXIT_INVALID_MODEL,
        )
    seeds = settings["seeds"]
    workers = worker_count(len(seeds))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise CliError(f"cannot create output directory {out_dir}: {e}", EXIT_BAD_CONFIG)

    started = time.perf_counter()
    if workers > 1:
        # One contiguous batch of seeds per worker. Spawned, not forked:
        # numpy's BLAS threads are already running here.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        payloads = [
            (settings, batch.tolist(), str(out_dir), progress_every)
            for batch in np.array_split(seeds, workers)
        ]
        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            records = [r for batch in pool.map(_batch_worker, payloads) for r in batch]
    else:
        records = run_batch(model, settings, seeds, out_dir, progress_every)

    M = model.num_constraints
    series = read_run_series(out_dir, records, M)
    write_aggregate_csv(out_dir / "aggregate.csv", series)

    reference = None
    if M > 0:
        ref = dp_oracle.constrained_reference(
            model, penalty_floor=settings["penalty_floor"]
        )
        reference = {
            "best_return": ref.best_return,
            "best_multipliers": ref.best_multipliers.tolist(),
            "best_costs": ref.best_costs.tolist(),
            "weights": ref.weights.tolist(),
            "feasible": ref.feasible,
            "unconstrained_return": ref.unconstrained_return,
            "unconstrained_costs": ref.unconstrained_costs.tolist(),
            "thresholds": model.thresholds.tolist(),
        }

    summary = {
        "name": settings["name"],
        "config_hash": config_hash(settings),
        "episodes": settings["episodes"],
        "window": settings["window"],
        "num_constraints": M,
        "thresholds": model.thresholds.tolist(),
        "reference": reference,
        "seeds": records,
        "wall_seconds": time.perf_counter() - started,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    if settings["plots"]:
        write_experiment_plots(out_dir, series, model.thresholds, reference, settings["window"])
    return summary


# ---------------------------------------------------------------------------
# model loading helpers shared by oracle commands


def load_any_model(path: Path):
    """Accept either dense model tables or a grid-world config JSON."""
    return checked_model(resolve_model_doc({"kind": "file", "path": str(path)}, Path()))


def load_policy_for(model, path):
    """Read a policy file or checkpoint whose (H, S, A) table fits the model."""
    try:
        policy = load_policy(path)
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise CliError(f"cannot load policy {path}: {e!r}", EXIT_BAD_CONFIG)
    shape = (model.horizon, model.num_states, model.num_actions)
    if policy.stage_params.shape != shape:
        raise CliError(
            f"policy {path} has shape {policy.stage_params.shape}, the model needs {shape}",
            EXIT_BAD_CONFIG,
        )
    return policy


def parse_multipliers(raw: str | None, model) -> np.ndarray:
    if raw is None:
        return np.zeros(model.num_constraints)
    try:
        values = np.array([float(x) for x in raw.split(",") if x.strip() != ""])
    except ValueError:
        raise CliError(f"bad multipliers {raw!r}", EXIT_BAD_CONFIG)
    if not np.all(np.isfinite(values)):
        raise CliError(f"multipliers must be finite, got {raw!r}", EXIT_BAD_CONFIG)
    if values.shape != (model.num_constraints,):
        raise CliError(
            f"expected {model.num_constraints} multipliers, got {values.size}",
            EXIT_BAD_CONFIG,
        )
    return values


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_train(args) -> int:
    if args.progress_every < 0:
        raise CliError("--progress-every must be a non-negative integer", EXIT_BAD_CONFIG)
    config_path = Path(args.config)
    doc = load_experiment_doc(config_path)
    # Overrides replace config entries before the checks, so both face the same ones.
    if args.episodes is not None:
        doc["episodes"] = args.episodes
    if args.seeds is not None:
        try:
            doc["seeds"] = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise CliError(f"bad --seeds value {args.seeds!r}", EXIT_BAD_CONFIG)
    if args.no_plots:
        doc["plots"] = False
    settings = experiment_settings(doc, config_path.parent)
    out_dir = Path(args.out_dir)
    summary = run_experiment(settings, out_dir, progress_every=args.progress_every)
    print(f"experiment {summary['name']} ({summary['config_hash']})")
    if summary["reference"] and summary["reference"]["feasible"]:
        print(
            f"  reference: J*={summary['reference']['best_return']:.4f} at "
            f"multipliers {summary['reference']['best_multipliers']}"
        )
    for seed in summary["seeds"]:
        costs = ", ".join(f"{c:.4f}" for c in seed["final_ma_costs"])
        print(
            f"  seed {seed['seed']}: ma_return={seed['final_ma_return']:.4f}"
            + (f" ma_costs=[{costs}]" if costs else "")
            + f" ({seed['seconds']:.1f}s)"
        )
    print(f"  wrote {out_dir}/aggregate.csv and summary.json")
    return 0


def cmd_oracle_gradcheck(args) -> int:
    if args.instances < 1:
        raise CliError("--instances must be at least 1", EXIT_BAD_CONFIG)
    if args.seed < 0:
        raise CliError("--seed must be a non-negative integer", EXIT_BAD_CONFIG)
    model = load_any_model(Path(args.model))
    rng = np.random.default_rng(args.seed)
    sets = reachable_sets(model)
    worst = 0.0
    for _ in range(args.instances):
        policy = tabular_policy(model)
        for h in range(model.horizon):
            policy.stage_params[h, sets[h]] = rng.uniform(
                -2.0, 2.0, size=(len(sets[h]), model.num_actions)
            )
        lam = -rng.uniform(0.0, 5.0, size=model.num_constraints)
        exact = dp_oracle.exact_gradient(model, policy, lam)
        approx = dp_oracle.finite_difference_gradient(model, policy, lam)
        rel = np.linalg.norm(exact - approx) / max(np.linalg.norm(exact), 1e-12)
        worst = max(worst, float(rel))
    ok = worst < GRADCHECK_TOLERANCE
    print(
        f"gradcheck: {args.instances} random policies, max relative error "
        f"{worst:.3e} ({'PASS' if ok else 'FAIL'} at {GRADCHECK_TOLERANCE:g})"
    )
    return 0 if ok else EXIT_NUMERICAL_FAILURE


def cmd_oracle_solve(args) -> int:
    model = load_any_model(Path(args.model))
    if model.num_constraints == 0:
        actions = dp_oracle.greedy_response(model, ())
        j, _ = dp_oracle.evaluate_deterministic(model, actions)
        print(f"unconstrained optimal return: {j:.6f}")
        return 0
    try:
        ref = dp_oracle.constrained_reference(model, penalty_floor=args.floor)
    except ValueError as e:
        raise CliError(f"bad --floor: {e}", EXIT_BAD_CONFIG)
    print(
        f"unconstrained: return={ref.unconstrained_return:.6f} "
        f"costs={np.array2string(ref.unconstrained_costs, precision=4)}"
    )
    print(f"thresholds: {np.array2string(model.thresholds, precision=4)}")
    if not ref.feasible:
        print("no mixture of policies meets the thresholds with multipliers above the floor")
        return EXIT_NUMERICAL_FAILURE
    print(
        f"best feasible greedy policy: J*={ref.best_return:.6f} at multipliers "
        f"{np.array2string(ref.best_multipliers, precision=4)} "
        f"costs={np.array2string(ref.best_costs, precision=4)}"
    )
    print(
        f"mixture of {ref.weights.size} deterministic policies, weights "
        f"{np.array2string(ref.weights, precision=6)}"
    )
    return 0


def cmd_oracle_evaluate(args) -> int:
    model = load_any_model(Path(args.model))
    policy = load_policy_for(model, args.policy)
    lam = parse_multipliers(args.multipliers, model)
    j, totals = dp_oracle.evaluate_policy(model, policy)
    print(f"expected return: {j:.6f}")
    for k in range(model.num_constraints):
        rel = "<=" if totals[k] <= model.thresholds[k] else ">"
        print(
            f"constraint {k + 1}: cost {totals[k]:.6f} {rel} threshold "
            f"{model.thresholds[k]:.6f}"
        )
    if np.any(lam != 0.0):
        value = dp_oracle.lagrangian_value(model, policy, lam)
        print(f"penalized value at multipliers {lam.tolist()}: {value:.6f}")
    return 0


def cmd_oracle_fixedpoint(args) -> int:
    model = load_any_model(Path(args.model))
    policy = load_policy_for(model, args.policy)
    lam = parse_multipliers(args.multipliers, model)
    limit = fixed_points(model, policy, lam)
    solution = dp_oracle.backward_induction(model, policy, lam)
    exact = np.concatenate([solution.values[None], solution.constraint_values])
    worst = max(
        float(np.abs(limit[:, h, r] - exact[:, h, r]).max())
        for h, r in enumerate(reachable_sets(model))
    )
    print(
        f"fixed-point weights computed for {model.horizon + 1} stages; "
        f"max |projected - exact| on reachable states = {worst:.3e}"
    )
    return 0


def _save_and_summarize_gridworld(config, out) -> int:
    model = build_gridworld(config)
    report = validate(model)
    if not report:
        raise CliError(
            "generated model failed validation: " + "; ".join(report.violations),
            EXIT_INVALID_MODEL,
        )
    try:
        save_gridworld_config(config, out)
    except OSError as e:
        raise CliError(f"cannot write {out}: {e}", EXIT_BAD_CONFIG)
    ref = dp_oracle.constrained_reference(model)
    print(f"wrote {out}")
    print(
        f"unconstrained: return={ref.unconstrained_return:.4f} "
        f"costs={np.array2string(ref.unconstrained_costs, precision=4)}"
    )
    print(f"thresholds: {np.array2string(config.thresholds, precision=4)}")
    if ref.feasible:
        print(f"reference J*: {ref.best_return:.4f}")
    else:
        print("warning: no mixture of policies meets the thresholds within the default floor")
    return 0


def cmd_env_generate(args) -> int:
    try:
        config = random_gridworld(args.rows, args.cols, args.horizon, args.seed)
        config = calibrate_threshold(config, 0.6)
    except ValueError as e:
        raise CliError(f"cannot generate grid world: {e}", EXIT_BAD_CONFIG)
    return _save_and_summarize_gridworld(config, args.out)


def cmd_env_benchmark(args) -> int:
    return _save_and_summarize_gridworld(benchmark_gridworld(), args.out)


def _check_plot_inputs(summary, summary_path: Path) -> None:
    """Exit 2 unless summary.json holds every entry `plot` reads, with its type."""

    try:
        reference = summary.get("reference")
        ok = (
            json_integer(summary["num_constraints"])
            and isinstance(summary["thresholds"], list)
            and all(map(json_real, summary["thresholds"]))
            and len(summary["thresholds"]) == summary["num_constraints"]
            and json_integer(summary["window"])
            and summary["window"] > 0
            and isinstance(summary["seeds"], list)
            and len(summary["seeds"]) > 0
            and all(json_integer(e["seed"]) and isinstance(e["csv"], str)
                    for e in summary["seeds"])
            and (reference is None or not reference["feasible"]
                 or json_real(reference["best_return"]))
        )
    except (AttributeError, KeyError, TypeError):
        ok = False
    if not ok:
        raise CliError(
            f"{summary_path} needs num_constraints, one threshold per constraint, a "
            "positive window, a non-empty seeds list of {seed, csv} and a null or "
            "well-formed reference",
            EXIT_BAD_CONFIG,
        )


def cmd_plot(args) -> int:
    run_dir = Path(args.run_dir)
    summary_path = run_dir / "summary.json"
    try:
        summary = json.loads(summary_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(f"cannot read {summary_path}: {e}", EXIT_BAD_CONFIG)
    _check_plot_inputs(summary, summary_path)
    series = read_run_series(run_dir, summary["seeds"], summary["num_constraints"])
    write_experiment_plots(
        run_dir, series, summary["thresholds"], summary.get("reference"), summary["window"]
    )
    print(f"re-rendered plots in {run_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhc-ac",
        description=(
            "Finite-horizon constrained actor-critic: train on grid worlds or "
            "dense models, query the exact solver, and render run plots."
        ),
        epilog=(
            "exit codes: 0 ok, 2 bad configuration or arguments, "
            "3 validation failure, 4 numerical failure"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training experiment from JSON config")
    p_train.add_argument("--config", required=True, help="experiment config JSON")
    p_train.add_argument("--out-dir", required=True, help="directory for CSVs and plots")
    p_train.add_argument("--episodes", type=int, default=None, help="override episode count")
    p_train.add_argument("--seeds", default=None, help="override seeds, comma separated")
    p_train.add_argument("--no-plots", action="store_true", help="skip SVG rendering")
    p_train.add_argument(
        "--progress-every", type=int, default=0, help="log every N episodes to stderr"
    )
    p_train.set_defaults(func=cmd_train)

    p_oracle = sub.add_parser("oracle", help="exact dynamic-programming utilities")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)

    p_grad = oracle_sub.add_parser("gradcheck", help="compare exact and numerical gradients")
    p_grad.add_argument("--model", required=True, help="model tables or grid-world JSON")
    p_grad.add_argument("--instances", type=int, default=20)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=cmd_oracle_gradcheck)

    p_solve = oracle_sub.add_parser(
        "solve", help="exact constrained optimum: a mixture of deterministic policies"
    )
    p_solve.add_argument("--model", required=True)
    p_solve.add_argument(
        "--floor",
        type=float,
        default=dp_oracle.PENALTY_FLOOR,
        help="lower end of every multiplier's range",
    )
    p_solve.set_defaults(func=cmd_oracle_solve)

    p_eval = oracle_sub.add_parser("evaluate", help="exact return and costs of a policy")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--policy", required=True, help="policy JSON or train checkpoint")
    p_eval.add_argument(
        "--multipliers",
        default=None,
        help="comma separated values; write --multipliers=-1.5 for negatives",
    )
    p_eval.set_defaults(func=cmd_oracle_evaluate)

    p_fix = oracle_sub.add_parser(
        "fixedpoint", help="critic limiting weights versus exact values"
    )
    p_fix.add_argument("--model", required=True)
    p_fix.add_argument("--policy", required=True)
    p_fix.add_argument("--multipliers", default=None)
    p_fix.set_defaults(func=cmd_oracle_fixedpoint)

    p_env = sub.add_parser("env", help="environment helpers")
    env_sub = p_env.add_subparsers(dest="env_command", required=True)
    p_gen = env_sub.add_parser("generate", help="write a calibrated random grid world")
    p_gen.add_argument("--rows", type=int, default=4)
    p_gen.add_argument("--cols", type=int, default=4)
    p_gen.add_argument("--horizon", type=int, default=10)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_env_generate)

    p_bench = env_sub.add_parser(
        "benchmark", help="write the fixed lit-block benchmark grid world"
    )
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_env_benchmark)

    p_plot = sub.add_parser("plot", help="re-render SVG charts for a finished run")
    p_plot.add_argument("--run-dir", required=True)
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except np.linalg.LinAlgError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except FloatingPointError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
