"""Benchmark for fhc-ac: end-to-end metrics untraced, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload train-4x4 --seed 0 --seconds 20 --trace 0

The workload's inputs are generated from --seed, then the workload's command
sequence is repeated in fresh processes until --seconds have been measured.
With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics, taken from
traced repetitions that alternate with untraced ones so the tracing overhead
can be reported too. README.md in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import spans
import stats
import workloads
from workloads import Checked, Finished

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
MIN_REPS_TRACED = 2  # one untraced, one traced
RUN_DEADLINE_S = 160  # every run ends well inside 180 s

# (metric, unit, how it is computed); see README.md for what each should move.
LAYER_METRICS = [
    ("mdp_model.rollout.us", "us", ("time", "mdp_model.rollout", 1e6)),
    ("mdp_model.rollout.calls", "count", ("calls", "mdp_model.rollout")),
    ("mdp_model.validate.ms", "ms", ("time", "mdp_model.validate", 1e3)),
    ("policy.action_distribution.us", "us", ("time", "policy.action_distribution", 1e6)),
    ("policy.action_distribution.calls_per_step", "calls/step",
     ("share", "policy.action_distribution.in_train", "mdp_model.rollout.steps")),
    ("policy.sample_action.us", "us", ("time", "policy.sample_action", 1e6)),
    ("policy.score.us", "us", ("time", "policy.score", 1e6)),
    ("critic.update_penalized_critic.us", "us", ("time", "critic.update_penalized_critic", 1e6)),
    ("critic.update_constraint_critic.us", "us", ("time", "critic.update_constraint_critic", 1e6)),
    ("critic.fixed_points.ms", "ms", ("time", "critic.fixed_points", 1e3)),
    ("trainer.actor_update.us", "us", ("time", "trainer.actor_update", 1e6)),
    ("trainer.actor_update.calls", "count", ("calls", "trainer.actor_update")),
    ("trainer.actor_update.clip_ratio", "ratio",
     ("share", "trainer.actor_update.clipped", "trainer.actor_update")),
    ("trainer.multiplier_update.us", "us", ("time", "trainer.multiplier_update", 1e6)),
    ("trainer.multiplier_update.clamp_ratio", "ratio",
     ("share", "trainer.multiplier_update.clamped", "trainer.multiplier_update")),
    ("trainer.train.self_us_per_episode", "us/episode", ("self_per_episode",)),
    ("trainer.stationarity_diagnostics.ms", "ms",
     ("time", "trainer.stationarity_diagnostics", 1e3)),
    ("trainer.save_checkpoint.ms", "ms", ("time", "trainer.save_checkpoint", 1e3)),
    ("trainer.save_checkpoint.bytes", "bytes", ("value", "trainer.save_checkpoint.bytes")),
    ("trainer.load_checkpoint.ms", "ms", ("time", "trainer.load_checkpoint", 1e3)),
    ("dp_oracle.backward_induction.ms", "ms", ("time", "dp_oracle.backward_induction", 1e3)),
    ("dp_oracle.exact_gradient.ms", "ms", ("time", "dp_oracle.exact_gradient", 1e3)),
    ("dp_oracle.occupation_measures.ms", "ms", ("time", "dp_oracle.occupation_measures", 1e3)),
    ("dp_oracle.finite_difference_gradient.ms", "ms",
     ("time", "dp_oracle.finite_difference_gradient", 1e3)),
    ("dp_oracle.lagrangian_value.calls", "count", ("calls", "dp_oracle.lagrangian_value")),
    ("dp_oracle.constrained_reference.ms", "ms", ("time", "dp_oracle.constrained_reference", 1e3)),
    ("dp_oracle.greedy_response.calls", "count", ("calls", "dp_oracle.greedy_response")),
    ("gridworld_env.build_gridworld.ms", "ms", ("time", "gridworld_env.build_gridworld", 1e3)),
    ("gridworld_env.build_gridworld.calls", "count", ("calls", "gridworld_env.build_gridworld")),
    ("gridworld_env.calibrate_threshold.ms", "ms",
     ("time", "gridworld_env.calibrate_threshold", 1e3)),
    ("experiment_cli.model_from_resolved.ms", "ms",
     ("time", "experiment_cli.model_from_resolved", 1e3)),
    ("experiment_cli.model_from_resolved.calls", "count",
     ("calls", "experiment_cli.model_from_resolved")),
    ("experiment_cli.run_seed.s", "s", ("time", "experiment_cli.run_seed", 1.0)),
    ("experiment_cli.write_run_csv.ms", "ms", ("time", "experiment_cli.write_run_csv", 1e3)),
    ("experiment_cli.write_run_csv.bytes_per_row", "bytes/row",
     ("value", "experiment_cli.write_run_csv.bytes_per_row")),
    ("experiment_cli.write_aggregate_csv.ms", "ms",
     ("time", "experiment_cli.write_aggregate_csv", 1e3)),
    ("experiment_cli.write_experiment_plots.ms", "ms",
     ("time", "experiment_cli.write_experiment_plots", 1e3)),
    ("experiment_cli.write_experiment_plots.bytes", "bytes",
     ("value", "experiment_cli.write_experiment_plots.bytes")),
    ("experiment_cli.cmd_plot.ms", "ms", ("time", "experiment_cli.cmd_plot", 1e3)),
    ("tracing.overhead_s", "s", ("overhead",)),
]

# Layer timings measured for the roadmap on a 2-core machine (Python 3.11,
# numpy 2.4): (label, workload, source, low, high, unit). "episode" is the
# untraced time inside trainer.train per seed-episode.
BASELINES = [
    ("4x4 H=10 episode", "train-4x4", ("episode", 1e6), 220.0, 257.0, "us"),
    ("constrained_reference 4x4", "train-4x4", ("dp_oracle.constrained_reference", 1e3),
     20.0, 24.0, "ms"),
    ("5x5 H=100 episode", "train-5x5-h100", ("episode", 1e3), 1.9, 2.5, "ms"),
    ("exact_gradient 5x5", "train-5x5-h100", ("dp_oracle.exact_gradient", 1e3), 28.0, 33.0, "ms"),
    ("backward_induction 5x5", "train-5x5-h100", ("dp_oracle.backward_induction", 1e3),
     3.0, 3.8, "ms"),
    ("constrained_reference 5x5", "train-5x5-h100", ("dp_oracle.constrained_reference", 1e3),
     250.0, 350.0, "ms"),
]


@dataclass
class Rep:
    """One repetition of a workload's command sequence."""

    traced: bool
    finished: list
    wall: float
    checked: Checked

    @property
    def records(self) -> list:
        return [f.record for f in self.finished if f.record is not None]


def run_command(cmd, root: Path, rep_dir: Path, index: int, trace: bool,
                deadline: float) -> Finished:
    record = rep_dir / f"{index}-{cmd.label}.trace.json"
    argv = [sys.executable, str(HERE / "probe.py"), str(record), "1" if trace else "0", "--",
            *cmd.argv]
    env = dict(os.environ)
    env.pop("FHC_AC_THREADS", None)  # one worker process
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    started = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(deadline - started, 1.0))
        code, out, err = done.returncode, done.stdout, done.stderr
    except subprocess.TimeoutExpired as e:  # the child has been killed and reaped
        code, out, err = -9, "", f"timed out after {e.timeout:.0f} s"
    wall = time.perf_counter() - started
    data = spans.load(record) if record.is_file() else None
    setup = None
    if data is not None and data["first_entry"] is not None and cmd.kind != "plot":
        setup = data["first_entry"] - started  # perf_counter is system-wide on Linux
    return Finished(cmd, code, out, err, wall, setup, data)


def run_rep(workload, root: Path, rep_dir: Path, trace: bool, deadline: float) -> Rep:
    rep_dir.mkdir(parents=True)
    commands = workload.commands(rep_dir)
    started = time.perf_counter()
    finished = [run_command(c, root, rep_dir, i, trace, deadline) for i, c in enumerate(commands)]
    wall = time.perf_counter() - started
    return Rep(trace, finished, wall, workload.check(rep_dir, finished))


def measure(workload, root: Path, work: Path, seconds: float, trace: bool) -> list:
    """Repeat the workload until `seconds` are measured; traced runs alternate."""
    reps = []
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    minimum = MIN_REPS_TRACED if trace else MIN_REPS
    while True:
        elapsed = time.perf_counter() - started
        last = reps[-1].wall if reps else 0.0
        if len(reps) >= minimum and elapsed + last > seconds:
            break
        if reps and elapsed + 2 * last > RUN_DEADLINE_S:
            break
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(workload, root, work / f"rep{len(reps)}", traced, deadline))
        if reps[-1].checked.problems:
            for problem in reps[-1].checked.problems:
                print(f"check failed: {problem}", file=sys.stderr)
    return reps


def train_seconds(rep: Rep) -> tuple:
    """(seed-episodes, seconds inside trainer.train) of one repetition."""
    episodes = sum(r["counts"].get("trainer.train.episodes", 0) for r in rep.records)
    seconds = sum(sum(r["durations"].get("trainer.train", ())) for r in rep.records)
    return episodes, seconds


def end_to_end(reps: list) -> dict:
    plain = [r for r in reps if not r.traced]
    setups = [f.setup for r in plain for f in r.finished if f.setup is not None]
    rates = []
    for rep in plain:
        episodes, seconds = train_seconds(rep)
        if episodes:
            rates.append(episodes / seconds)
        else:
            rates.append(sum(c.command.ops for c in rep.finished) / rep.wall)
    attempted = sum(f.command.ops for r in reps for f in r.finished)
    failed = sum(r.checked.failed for r in reps)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (stats.median(setups) if setups else 0.0, "s"),
        "wall_s": (stats.median(r.wall for r in plain), "s"),
        "throughput": (stats.median(rates), "ops/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "exact_return": (stats.median(r.checked.exact_return for r in plain), "return"),
        "cost_limit_ratio": (stats.median(r.checked.cost_limit_ratio for r in plain), "ratio"),
        "ok_share": (stats.ok_share(failed, attempted), "ratio"),
    }


class LayerTimes:
    """Per-layer figures pooled over every process of the traced repetitions."""

    def __init__(self, traced: list, plain: list, extra_durations: dict):
        self.traced = traced
        self.plain = plain
        self.durations = defaultdict(list)
        self.self_times = defaultdict(list)
        self.values = defaultdict(list)
        self.totals = defaultdict(int)
        for record in (rec for rep in traced for rec in rep.records):
            for name, values in record["durations"].items():
                self.durations[name].extend(values)
            for name, values in record["self_times"].items():
                self.self_times[name].extend(values)
            for name, values in record["values"].items():
                self.values[name].extend(values)
            for name, count in record["counts"].items():
                self.totals[name] += count
        for name, values in extra_durations.items():
            if values:
                self.durations[name].extend(values)

    def time(self, name: str, scale: float) -> float:
        values = self.durations.get(name)
        return stats.median(values) * scale if values else 0.0

    def calls(self, name: str) -> float:
        """Calls made by one command: the busiest command of a repetition, median over them."""
        per_rep = [max((rec["counts"].get(name, 0) for rec in rep.records), default=0)
                   for rep in self.traced]
        return stats.median(per_rep)

    def value(self, name: str) -> float:
        values = self.values.get(name)
        return stats.median(values) if values else 0.0

    def share(self, part: str, whole: str) -> float:
        return stats.ratio(self.totals[part], self.totals[whole])

    def self_per_episode(self) -> float:
        episodes = self.totals["trainer.train.episodes"]
        calls = self.totals["trainer.train"]
        if not episodes:
            return 0.0
        return stats.median(self.self_times["trainer.train"]) / (episodes / calls) * 1e6

    def overhead(self) -> float:
        return stats.median(r.wall for r in self.traced) - stats.median(r.wall for r in self.plain)

    def episode_seconds(self) -> float:
        episodes = seconds = 0
        for rep in self.plain:
            e, s = train_seconds(rep)
            episodes, seconds = episodes + e, seconds + s
        return seconds / episodes if episodes else 0.0

    def metric(self, how: tuple) -> float:
        kind, *args = how
        return getattr(self, kind)(*args)


def per_layer(reps: list, workload_name: str, workload) -> dict:
    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    extra = {"gridworld_env.calibrate_threshold": getattr(workload, "calibrate_seconds", [])}
    layers = LayerTimes(traced, plain, extra)
    print_trace_table(layers)
    print_baselines(layers, workload_name)
    return {name: (layers.metric(how), unit) for name, unit, how in LAYER_METRICS}


def print_trace_table(layers: LayerTimes) -> None:
    print("span                                         calls     median_us  tail", file=sys.stderr)
    for name in sorted(layers.durations):
        s = stats.summarize(layers.durations[name])
        tail = f"p{s['tail_percentile']:g}={s['tail'] * 1e6:.1f}" if "tail" in s else "-"
        print(f"{name:44s} {s['n']:8d} {s['median'] * 1e6:12.1f}  {tail}", file=sys.stderr)


def print_baselines(layers: LayerTimes, workload_name: str) -> None:
    for label, name, (source, scale), lo, hi, unit in BASELINES:
        if name != workload_name:
            continue
        if source == "episode":
            value = layers.episode_seconds() * scale
        else:
            value = layers.time(source, scale)
        if lo <= value <= hi:
            verdict = "within"
        elif 0.75 * lo <= value <= 1.25 * hi:
            verdict = "outside, within a quarter"
        else:
            verdict = "OFF BY MORE THAN A QUARTER"
        print(f"baseline {label}: {value:.3f} {unit} against {lo:g}-{hi:g} {unit}: {verdict}",
              file=sys.stderr)


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def fingerprint(root: Path) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(root),
        "src_sha256": digest.hexdigest()[:16],
    }


def result_line(reps: list, metrics: dict) -> str:
    attempted = sum(f.command.ops for r in reps for f in r.finished)
    failed = sum(r.checked.failed for r in reps)
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    doc = {
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return json.dumps(doc, allow_nan=False)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    missing = [p for p in workloads.REQUIRED_FILES if not (root / p).is_file()]
    if missing:
        print(f"error: run from the root of an fhc-ac checkout; missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        workload = workloads.make(args.workload, root, work, args.seed)
        reps = measure(workload, root, work, args.seconds, bool(args.trace))
        metrics = per_layer(reps, args.workload, workload) if args.trace else end_to_end(reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    print("fingerprint " + json.dumps(fingerprint(root)))
    walls = ", ".join(f"{r.wall:.3f}{'t' if r.traced else ''}" for r in reps)
    print(f"repetitions {len(reps)}, wall s: {walls}")
    print(result_line(reps, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
