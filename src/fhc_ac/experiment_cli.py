"""Command-line front end: run experiments, query the exact solver, make plots.

Subcommands
-----------
train       run a training experiment from a JSON config, write CSVs and plots
oracle      exact-solver utilities: gradcheck, solve, evaluate, fixedpoint
env         grid-world helpers: generate a calibrated random instance
plot        re-render the SVG charts from a finished run directory

Exit codes: 0 success; 2 unusable configuration or arguments; 3 a model,
schedule, or basis failed validation; 4 numerical failure at run time.

Per-seed CSV columns are `episode,return,cost_1..cost_M,lambda_1..lambda_M,
ma_return,ma_cost_1..ma_cost_M`, where the ma columns are trailing moving
averages over the configured window (shorter at the start of the run). The
environment variable FHC_AC_THREADS sets how many worker processes run seeds
in parallel (default 1, sequential in-process).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import dp_oracle
from .gridworld_env import (
    benchmark_gridworld,
    build_gridworld,
    calibrate_threshold,
    gridworld_config_from_doc,
    gridworld_config_to_doc,
    random_gridworld,
    save_gridworld_config,
)
from .mdp_model import model_from_doc, reachable_sets, validate
from .policy import load_policy, tabular_policy
from .critic import fixed_points, tabular_basis, validate_basis
from .trainer import (
    StepSizeSchedules,
    TrainerConfig,
    check_schedules,
    load_checkpoint,
    moving_average,
    save_checkpoint,
    stationarity_diagnostics,
    train,
)

EXIT_BAD_CONFIG = 2
EXIT_INVALID_MODEL = 3
EXIT_NUMERICAL_FAILURE = 4

PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2"]


class CliError(Exception):
    """Carries the process exit code alongside the message."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# experiment configuration


EXPERIMENT_KEYS = {
    "name",
    "model",
    "episodes",
    "seeds",
    "window",
    "temperature",
    "param_bound",
    "penalty_floor",
    "schedules",
    "sequential_critic",
    "multiplier_sign",
    "plots",
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
    unknown = set(doc) - EXPERIMENT_KEYS
    if unknown:
        raise CliError(f"unknown experiment keys: {sorted(unknown)}", EXIT_BAD_CONFIG)
    for key in ("model", "episodes", "seeds"):
        if key not in doc:
            raise CliError(f"experiment config missing required key {key!r}", EXIT_BAD_CONFIG)
    return doc


def resolve_model_doc(model_section: dict, base_dir: Path) -> dict:
    """Inline the model content so the config hash covers what actually ran."""
    if not isinstance(model_section, dict) or "kind" not in model_section:
        raise CliError("model section must be an object with a 'kind'", EXIT_BAD_CONFIG)
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


def _integer(x) -> bool:
    """A JSON integer; booleans are ints in Python but not here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _real(x) -> bool:
    """A JSON number that is a finite double, booleans excluded."""
    return (_integer(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


# The checked experiment settings: key -> (default, accepts, what it must be).
SETTING_RULES = {
    "episodes": (None, lambda x: _integer(x) and x > 0, "a positive integer"),
    "seeds": (
        None,
        lambda x: isinstance(x, list) and len(x) > 0
        and all(_integer(s) and s >= 0 for s in x) and len(set(x)) == len(x),
        "a non-empty list of distinct non-negative integers",
    ),
    "window": (10_000, lambda x: _integer(x) and x > 0, "a positive integer"),
    "temperature": (1.0, lambda x: _real(x) and x > 0, "a positive number"),
    "param_bound": (10.0, lambda x: _real(x) and x > 0, "a positive number"),
    "penalty_floor": (-100.0, lambda x: _real(x) and x < 0, "a negative number"),
    "schedules": (
        {},
        lambda x: isinstance(x, dict) and all(map(_real, x.values())),
        "an object of finite numbers",
    ),
    "multiplier_sign": (
        "negative", lambda x: x in ("negative", "positive"), "'negative' or 'positive'"
    ),
}


def experiment_settings(doc: dict, base_dir: Path) -> dict:
    """Apply defaults, check every value and resolve the model; returns the
    canonical settings.

    A value that breaks its SETTING_RULES entry exits 2; the step-size
    exponents and scales are judged later by `check_schedules`.
    """
    values = {}
    for key, (default, accepts, what) in SETTING_RULES.items():
        values[key] = doc.get(key, default)
        if not accepts(values[key]):
            raise CliError(f"{key!r} must be {what}", EXIT_BAD_CONFIG)
    try:
        sched = StepSizeSchedules(**values["schedules"])
    except TypeError as e:
        raise CliError(f"bad schedules section: {e}", EXIT_BAD_CONFIG)
    try:
        resolved_model = resolve_model_doc(doc["model"], base_dir)
    except (TypeError, ValueError) as e:
        raise CliError(f"bad model section: {e}", EXIT_BAD_CONFIG)
    return {
        "name": doc.get("name", "experiment"),
        "model": resolved_model,
        "episodes": values["episodes"],
        "seeds": list(values["seeds"]),
        "window": values["window"],
        "temperature": float(values["temperature"]),
        "param_bound": float(values["param_bound"]),
        "penalty_floor": float(values["penalty_floor"]),
        "schedules": dataclasses.asdict(sched),
        # No effect on training; kept because config_hash digests it.
        "sequential_critic": bool(doc.get("sequential_critic", False)),
        "multiplier_sign": values["multiplier_sign"],
        "plots": bool(doc.get("plots", True)),
    }


def config_hash(settings: dict) -> str:
    canonical = {k: v for k, v in settings.items() if k not in ("plots",)}
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


def reported_multipliers(settings: dict, multipliers: np.ndarray) -> np.ndarray:
    """Multipliers as a run reports them in its CSV, summary and plots.

    The trainer keeps the non-positive penalties; the "positive" convention
    mirrors them through zero as 0.0 - lambda, which maps a zero to +0.0.
    """
    return 0.0 - multipliers if settings["multiplier_sign"] == "positive" else multipliers


# ---------------------------------------------------------------------------
# CSV output


def csv_header(num_constraints: int) -> str:
    cols = ["episode", "return"]
    cols += [f"cost_{k + 1}" for k in range(num_constraints)]
    cols += [f"lambda_{k + 1}" for k in range(num_constraints)]
    cols.append("ma_return")
    cols += [f"ma_cost_{k + 1}" for k in range(num_constraints)]
    return ",".join(cols)


def write_run_csv(path: Path, metrics, window: int) -> dict:
    """Write one seed's per-episode CSV; returns the ma columns for reuse."""
    n, m = metrics.constraint_totals.shape
    ma_return = moving_average(metrics.returns, window)
    ma_costs = [moving_average(metrics.constraint_totals[:, k], window) for k in range(m)]
    columns = [list(range(1, n + 1)), metrics.returns.tolist()]
    columns += [metrics.constraint_totals[:, k].tolist() for k in range(m)]
    columns += [metrics.multipliers[:, k].tolist() for k in range(m)]
    columns.append(ma_return.tolist())
    columns += [c.tolist() for c in ma_costs]
    lines = [csv_header(m)]
    lines.extend(",".join(map(repr, row)) for row in zip(*columns))
    path.write_text("\n".join(lines) + "\n")
    return {"ma_return": ma_return, "ma_costs": np.array(ma_costs).reshape(m, n)}


def write_aggregate_csv(path: Path, outcomes: list, num_constraints: int) -> None:
    """Across-seed mean/min/max of every moving-average column, per episode."""
    stacked_return = np.stack([o["ma_return"] for o in outcomes])
    n = stacked_return.shape[1]
    cols = ["episode,ma_return_mean,ma_return_min,ma_return_max"]
    data = [
        np.arange(1, n + 1),
        stacked_return.mean(axis=0),
        stacked_return.min(axis=0),
        stacked_return.max(axis=0),
    ]
    for k in range(num_constraints):
        stacked = np.stack([o["ma_costs"][k] for o in outcomes])
        cols[0] += f",ma_cost_{k + 1}_mean,ma_cost_{k + 1}_min,ma_cost_{k + 1}_max"
        data += [stacked.mean(axis=0), stacked.min(axis=0), stacked.max(axis=0)]
    lines = [cols[0]]
    int_first = data[0].tolist()
    float_rest = [d.tolist() for d in data[1:]]
    for i in range(n):
        lines.append(
            ",".join([repr(int_first[i])] + [repr(col[i]) for col in float_rest])
        )
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# seed execution


def run_seed(settings: dict, seed: int, out_dir: Path, progress_every: int = 0):
    """Train one seed, write its CSV and checkpoint, return a summary dict."""
    model = model_from_resolved(settings["model"])
    config = trainer_config(settings, seed)
    started = time.perf_counter()

    def progress(done, total):
        print(f"  seed {seed}: episode {done}/{total}", file=sys.stderr, flush=True)

    state, metrics = train(
        model, config, progress_every=progress_every, progress=progress
    )
    if not (
        np.all(np.isfinite(metrics.returns))
        and np.all(np.isfinite(state.policy.stage_params))
        and np.all(np.isfinite(state.multipliers))
    ):
        raise FloatingPointError(f"seed {seed}: training produced non-finite values")
    metrics = dataclasses.replace(
        metrics, multipliers=reported_multipliers(settings, metrics.multipliers)
    )
    run_id = f"{config_hash(settings)}-seed{seed}"
    csv_path = out_dir / f"{run_id}.csv"
    ma = write_run_csv(csv_path, metrics, settings["window"])
    checkpoint_path = out_dir / f"{run_id}.checkpoint.json"
    save_checkpoint(state, checkpoint_path)
    tail = slice(max(metrics.returns.size - 10_000, 0), None)
    return {
        "seed": seed,
        "run_id": run_id,
        "csv": str(csv_path),
        "checkpoint": str(checkpoint_path),
        "ma_return": ma["ma_return"],
        "ma_costs": ma["ma_costs"],
        "multipliers": metrics.multipliers,
        "final_ma_return": float(ma["ma_return"][-1]),
        "final_ma_costs": [float(c[-1]) for c in ma["ma_costs"]],
        "final_multipliers": reported_multipliers(settings, state.multipliers).tolist(),
        "theta_clipped_tail": int(np.count_nonzero(metrics.theta_clipped[tail])),
        "floor_clipped_tail": int(np.count_nonzero(metrics.multiplier_floor_clipped[tail])),
        "seconds": time.perf_counter() - started,
    }


def _seed_worker(payload):
    settings, seed, out_dir, progress_every = payload
    return run_seed(settings, seed, Path(out_dir), progress_every)


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
    """Run every seed, then write the aggregate CSV, summary, and plots."""
    out_dir.mkdir(parents=True, exist_ok=True)
    model = checked_model(settings["model"])
    sched_report = check_schedules(StepSizeSchedules(**settings["schedules"]))
    if not sched_report:
        raise CliError(
            "step-size schedules rejected: " + "; ".join(sched_report.violations),
            EXIT_INVALID_MODEL,
        )
    basis_report = validate_basis(tabular_basis(model), model)
    if not basis_report:
        raise CliError(
            "feature basis rejected: " + "; ".join(basis_report.violations),
            EXIT_INVALID_MODEL,
        )

    started = time.perf_counter()
    workers = worker_count(len(settings["seeds"]))
    if workers > 1:
        payloads = [
            (settings, seed, str(out_dir), progress_every) for seed in settings["seeds"]
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_seed_worker, payloads))
    else:
        outcomes = [
            run_seed(settings, seed, out_dir, progress_every) for seed in settings["seeds"]
        ]

    M = model.num_constraints
    write_aggregate_csv(out_dir / "aggregate.csv", outcomes, M)

    reference = None
    if M > 0:
        ref = dp_oracle.constrained_reference(
            model, penalty_floor=settings["penalty_floor"]
        )
        reference = {
            "best_return": ref.best_return,
            "best_multipliers": ref.best_multipliers.tolist(),
            "feasible": ref.feasible,
            "unconstrained_return": ref.unconstrained.expected_return,
            "unconstrained_costs": ref.unconstrained.constraint_totals.tolist(),
            "thresholds": model.thresholds.tolist(),
        }

    for outcome in outcomes:
        state = load_checkpoint(outcome["checkpoint"])
        diag = stationarity_diagnostics(
            model,
            state.policy,
            state.signed_multipliers(),
            penalty_floor=settings["penalty_floor"],
        )
        outcome["stationarity"] = {
            "max_projected_gradient_norm": diag.max_projected_gradient_norm,
            "max_multiplier_drift": diag.max_multiplier_drift,
            "theta_bound_active": diag.theta_bound_active,
            "expected_return": diag.expected_return,
            "constraint_totals": diag.constraint_totals.tolist(),
        }

    summary = {
        "name": settings["name"],
        "config_hash": config_hash(settings),
        "episodes": settings["episodes"],
        "window": settings["window"],
        "num_constraints": M,
        "thresholds": model.thresholds.tolist(),
        "reference": reference,
        "seeds": [
            {k: v for k, v in o.items() if k not in ("ma_return", "ma_costs", "multipliers")}
            for o in outcomes
        ],
        "wall_seconds": time.perf_counter() - started,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    if settings["plots"]:
        write_experiment_plots(out_dir, outcomes, model.thresholds, reference, settings["window"])
    summary["outcomes"] = outcomes
    return summary


# ---------------------------------------------------------------------------
# SVG plotting


def _nice_ticks(lo: float, hi: float, target: int = 6):
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _format_tick(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.4g}"


def render_line_chart(path: Path, series: list, title: str, xlabel: str, ylabel: str, hlines=()):
    """Write a self-contained SVG line chart.

    `series` entries are dicts with keys x, y, label, color; `hlines` entries
    are (label, value, color) reference lines.
    """
    width, height = 880, 540
    left, right, top, bottom = 80, 20, 50, 60
    plot_w, plot_h = width - left - right, height - top - bottom

    xs = np.concatenate([np.asarray(s["x"], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s["y"], dtype=float) for s in series])
    y_extra = np.array([v for _, v, _ in hlines], dtype=float)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    all_y = np.concatenate([ys, y_extra]) if y_extra.size else ys
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="28" text-anchor="middle" font-size="17">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        if not x_lo <= t <= x_hi:
            continue
        x = sx(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
            f'y2="{top + plot_h + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 20}" text-anchor="middle" '
            f'font-size="12">{_format_tick(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        if not y_lo <= t <= y_hi:
            continue
        y = sy(t)
        parts.append(
            f'<line x1="{left - 5}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="#444"/>'
        )
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
            'stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{left - 9}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="12">{_format_tick(t)}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">{xlabel}</text>'
    )
    parts.append(
        f'<text x="22" y="{top + plot_h / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 22 {top + plot_h / 2:.1f})">{ylabel}</text>'
    )
    for label, value, color in hlines:
        y = sy(value)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
            f'stroke="{color}" stroke-width="1.3" stroke-dasharray="7,5"/>'
        )
    for s in series:
        pts = " ".join(
            f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(s["x"], s["y"])
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{s["color"]}" stroke-width="1.4"/>'
        )
    legend_y = top + 14
    for entry in list(series) + [
        {"label": lbl, "color": col} for lbl, _, col in hlines
    ]:
        parts.append(
            f'<line x1="{left + plot_w - 150}" y1="{legend_y - 4}" '
            f'x2="{left + plot_w - 122}" y2="{legend_y - 4}" '
            f'stroke="{entry["color"]}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{left + plot_w - 115}" y="{legend_y}" font-size="12">'
            f'{entry["label"]}</text>'
        )
        legend_y += 17
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _downsample(x: np.ndarray, y: np.ndarray, limit: int = 2000):
    stride = max(1, len(x) // limit)
    idx = np.arange(0, len(x), stride)
    if idx[-1] != len(x) - 1:
        idx = np.append(idx, len(x) - 1)
    return x[idx], y[idx]


def write_experiment_plots(out_dir: Path, outcomes: list, thresholds, reference, window: int):
    episodes = np.arange(1, outcomes[0]["ma_return"].size + 1)
    series = []
    for i, o in enumerate(outcomes):
        x, y = _downsample(episodes, o["ma_return"])
        series.append(
            {"x": x, "y": y, "label": f"seed {o['seed']}", "color": PALETTE[i % len(PALETTE)]}
        )
    hlines = []
    if reference and reference["feasible"]:
        hlines.append(("reference J*", reference["best_return"], "#000000"))
    render_line_chart(
        out_dir / "returns.svg",
        series,
        title=f"Moving-average return (window {window})",
        xlabel="episode",
        ylabel="return",
        hlines=hlines,
    )
    for k, threshold in enumerate(thresholds):
        series = []
        for i, o in enumerate(outcomes):
            x, y = _downsample(episodes, o["ma_costs"][k])
            series.append(
                {"x": x, "y": y, "label": f"seed {o['seed']}", "color": PALETTE[i % len(PALETTE)]}
            )
        render_line_chart(
            out_dir / f"costs_{k + 1}.svg",
            series,
            title=f"Moving-average constraint cost {k + 1} (window {window})",
            xlabel="episode",
            ylabel=f"cost {k + 1}",
            hlines=[("threshold", float(threshold), "#000000")],
        )
        series = []
        for i, o in enumerate(outcomes):
            lam = o["multipliers"][:, k]
            x, y = _downsample(episodes, lam)
            series.append(
                {"x": x, "y": y, "label": f"seed {o['seed']}", "color": PALETTE[i % len(PALETTE)]}
            )
        render_line_chart(
            out_dir / f"multipliers_{k + 1}.svg",
            series,
            title=f"Lagrange multiplier {k + 1}",
            xlabel="episode",
            ylabel=f"lambda_{k + 1}",
        )


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
    if values.shape != (model.num_constraints,):
        raise CliError(
            f"expected {model.num_constraints} multipliers, got {values.size}",
            EXIT_BAD_CONFIG,
        )
    return values


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_train(args) -> int:
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
        num = math.sqrt(sum(float(np.sum((e - a) ** 2)) for e, a in zip(exact, approx)))
        den = max(math.sqrt(sum(float(np.sum(e**2)) for e in exact)), 1e-12)
        worst = max(worst, num / den)
    ok = worst < args.tolerance
    print(
        f"gradcheck: {args.instances} random policies, max relative error "
        f"{worst:.3e} ({'PASS' if ok else 'FAIL'} at {args.tolerance:g})"
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
        ref = dp_oracle.constrained_reference(
            model, penalty_floor=args.floor, num_points=args.points
        )
    except ValueError as e:
        raise CliError(f"bad multiplier grid: {e}", EXIT_BAD_CONFIG)
    u = ref.unconstrained
    print(
        f"unconstrained: return={u.expected_return:.6f} "
        f"costs={np.array2string(u.constraint_totals, precision=4)}"
    )
    print(f"thresholds: {np.array2string(model.thresholds, precision=4)}")
    if not ref.feasible:
        print("no feasible point found on the multiplier grid")
        return EXIT_NUMERICAL_FAILURE
    print(
        f"best feasible greedy policy: J*={ref.best_return:.6f} at multipliers "
        f"{np.array2string(ref.best_multipliers, precision=4)} "
        f"costs={np.array2string(ref.best_costs, precision=4)}"
    )
    if not ref.monotone_costs:
        print("note: costs were not monotone along the sweep (greedy ties)")
    return 0


def cmd_oracle_evaluate(args) -> int:
    model = load_any_model(Path(args.model))
    policy = load_policy_for(model, args.policy)
    j, totals = dp_oracle.evaluate_policy(model, policy)
    print(f"expected return: {j:.6f}")
    for k in range(model.num_constraints):
        rel = "<=" if totals[k] <= model.thresholds[k] else ">"
        print(
            f"constraint {k + 1}: cost {totals[k]:.6f} {rel} threshold "
            f"{model.thresholds[k]:.6f}"
        )
    lam = parse_multipliers(args.multipliers, model)
    if np.any(lam != 0.0):
        value = dp_oracle.lagrangian_value(model, policy, lam)
        print(f"penalized value at multipliers {lam.tolist()}: {value:.6f}")
    return 0


def cmd_oracle_fixedpoint(args) -> int:
    model = load_any_model(Path(args.model))
    policy = load_policy_for(model, args.policy)
    lam = parse_multipliers(args.multipliers, model)
    basis = tabular_basis(model)
    weights = fixed_points(model, policy, lam, basis)
    solution = dp_oracle.backward_induction(model, policy, lam)
    worst = 0.0
    for h in range(model.horizon + 1):
        approx = basis.feature_matrix(h) @ weights.penalized[h]
        r = basis.reachable[h]
        worst = max(worst, float(np.abs(approx[r] - solution.values[h][r]).max()))
    print(
        f"fixed-point weights computed for {model.horizon + 1} stages; "
        f"max |projected - exact| on reachable states = {worst:.3e}"
    )
    return 0


def _save_and_summarize_gridworld(config, out) -> int:
    save_gridworld_config(config, out)
    model = build_gridworld(config)
    report = validate(model)
    if not report:
        raise CliError(
            "generated model failed validation: " + "; ".join(report.violations),
            EXIT_INVALID_MODEL,
        )
    ref = dp_oracle.constrained_reference(model)
    print(f"wrote {out}")
    print(
        f"unconstrained: return={ref.unconstrained.expected_return:.4f} "
        f"costs={np.array2string(ref.unconstrained.constraint_totals, precision=4)}"
    )
    print(f"thresholds: {np.array2string(config.thresholds, precision=4)}")
    if ref.feasible:
        print(f"reference J*: {ref.best_return:.4f}")
    else:
        print("warning: no feasible greedy policy on the default multiplier grid")
    return 0


def cmd_env_generate(args) -> int:
    try:
        start = tuple(int(x) for x in args.start.split(","))
    except ValueError:
        raise CliError(f"bad --start value {args.start!r}", EXIT_BAD_CONFIG)
    if len(start) != 2:
        raise CliError("--start needs 'row,col'", EXIT_BAD_CONFIG)
    try:
        config = random_gridworld(
            rows=args.rows,
            cols=args.cols,
            horizon=args.horizon,
            seed=args.seed,
            slip=args.slip,
            start=start,
            reward_cells=args.reward_cells,
            reward_range=(args.reward_low, args.reward_high),
            cost_cells=args.cost_cells,
            cost_range=(args.cost_low, args.cost_high),
        )
        config = calibrate_threshold(config, args.threshold_fraction)
    except ValueError as e:
        raise CliError(f"cannot generate grid world: {e}", EXIT_BAD_CONFIG)
    return _save_and_summarize_gridworld(config, args.out)


def cmd_env_benchmark(args) -> int:
    try:
        config = benchmark_gridworld(
            rows=args.rows,
            cols=args.cols,
            horizon=args.horizon,
            slip=args.slip,
            threshold_fraction=args.threshold_fraction,
        )
    except ValueError as e:
        raise CliError(f"cannot build benchmark grid world: {e}", EXIT_BAD_CONFIG)
    return _save_and_summarize_gridworld(config, args.out)


def _check_plot_inputs(summary, summary_path: Path) -> None:
    """Exit 2 unless summary.json holds every entry `plot` reads, with its type."""

    def numbers(xs):
        return isinstance(xs, list) and all(isinstance(x, (int, float)) for x in xs)

    try:
        reference = summary.get("reference")
        ok = (
            isinstance(summary["num_constraints"], int)
            and numbers(summary["thresholds"])
            and len(summary["thresholds"]) == summary["num_constraints"]
            and isinstance(summary["window"], int)
            and summary["window"] > 0
            and isinstance(summary["seeds"], list)
            and len(summary["seeds"]) > 0
            and all(isinstance(e["seed"], int) and isinstance(e["csv"], str)
                    for e in summary["seeds"])
            and (reference is None or not reference["feasible"]
                 or numbers([reference["best_return"]]))
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
    M = summary["num_constraints"]
    outcomes = []
    for seed_info in summary["seeds"]:
        csv_path = Path(seed_info["csv"])
        if not csv_path.is_absolute():
            csv_path = run_dir / csv_path.name
        try:
            data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as e:
            raise CliError(f"cannot read {csv_path}: {e}", EXIT_BAD_CONFIG)
        n, columns = data.shape
        if n == 0 or columns != 3 + 3 * M:
            raise CliError(
                f"{csv_path} holds {n} rows of {columns} columns, "
                f"expected rows of {3 + 3 * M}",
                EXIT_BAD_CONFIG,
            )
        outcomes.append(
            {
                "seed": seed_info["seed"],
                "ma_return": data[:, 2 + 2 * M],
                "ma_costs": data[:, 3 + 2 * M : 3 + 3 * M].T.reshape(M, n),
                "multipliers": data[:, 2 + M : 2 + 2 * M].reshape(n, M),
            }
        )
    write_experiment_plots(
        run_dir, outcomes, summary["thresholds"], summary.get("reference"), summary["window"]
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
    p_grad.add_argument("--tolerance", type=float, default=1e-5)
    p_grad.set_defaults(func=cmd_oracle_gradcheck)

    p_solve = oracle_sub.add_parser("solve", help="multiplier-sweep reference solution")
    p_solve.add_argument("--model", required=True)
    p_solve.add_argument("--floor", type=float, default=-100.0)
    p_solve.add_argument("--points", type=int, default=101)
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
    p_gen.add_argument("--slip", type=float, default=0.1)
    p_gen.add_argument("--start", default="0,0", help="start cell as 'row,col'")
    p_gen.add_argument("--reward-cells", type=int, default=2)
    p_gen.add_argument("--reward-low", type=float, default=2.0)
    p_gen.add_argument("--reward-high", type=float, default=4.0)
    p_gen.add_argument("--cost-cells", type=int, default=3)
    p_gen.add_argument("--cost-low", type=float, default=2.0)
    p_gen.add_argument("--cost-high", type=float, default=5.0)
    p_gen.add_argument(
        "--threshold-fraction",
        type=float,
        default=0.6,
        help="threshold as a fraction of the unconstrained policy's cost",
    )
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_env_generate)

    p_bench = env_sub.add_parser(
        "benchmark", help="write the fixed lit-block benchmark grid world"
    )
    p_bench.add_argument("--rows", type=int, default=4)
    p_bench.add_argument("--cols", type=int, default=4)
    p_bench.add_argument("--horizon", type=int, default=10)
    p_bench.add_argument("--slip", type=float, default=0.1)
    p_bench.add_argument(
        "--threshold-fraction",
        type=float,
        default=0.6,
        help="threshold as a fraction of the unconstrained policy's cost",
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
