"""The benchmark's workloads: their generated inputs, commands and output checks.

Inputs are made from the workload seed with public `fhc_ac` functions before
any timing starts. Each repetition of a workload runs its commands one after
another (a closed loop, one client); `check` then reads what they wrote and
returns how many operations failed. An operation is one training seed or one
oracle query.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stats

EXPERIMENT_4X4 = "configs/experiment_4x4.json"
GRID_4X4 = "configs/gridworld_4x4.json"
GRID_5X5 = "configs/gridworld_5x5_h100.json"
REQUIRED_FILES = ("src/fhc_ac/__init__.py", EXPERIMENT_4X4, GRID_4X4, GRID_5X5)

# Episode counts are cut from the shipped 300k so that a repetition takes a
# few seconds and a run holds several of them.
EPISODES_4X4 = 2000
EPISODES_5X5 = 300
# Training seeds are pinned on both train workloads, so their exact return
# and cost ratio repeat exactly; a speed-up that changes trajectories shows.
SEEDS_5X5 = [0, 1]
GENERATED_POLICY_EPISODES = 100
GRADCHECK_INSTANCES = 2
M2_THRESHOLD_FRACTION = 0.6


@dataclass
class Command:
    label: str
    argv: list
    ops: int
    kind: str  # "train", "query" (ends set-up at the first oracle call) or "plot"


@dataclass
class Finished:
    command: Command
    returncode: int
    stdout: str
    stderr: str
    wall: float
    setup: float | None
    record: dict | None


@dataclass
class Checked:
    failed: int
    exact_return: float
    cost_limit_ratio: float
    problems: list = field(default_factory=list)


def experiment_doc(root: Path, config_dir: Path, model: str, episodes: int, seeds: list) -> dict:
    """The shipped 4x4 experiment settings, pointed at another model and seeds."""
    doc = json.loads((root / EXPERIMENT_4X4).read_text())
    doc["name"] = Path(model).stem
    doc["model"] = {"kind": "file", "path": os.path.relpath(root / model, config_dir)}
    doc["episodes"] = episodes
    doc["seeds"] = seeds
    return doc


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TrainWorkload:
    """`fhc-ac train` on one experiment config; one command per repetition."""

    def __init__(self, config: Path, episodes: int):
        from fhc_ac.experiment_cli import csv_header

        self.config = config
        self.episodes = episodes
        self.seeds = json.loads(config.read_text())["seeds"]
        self.csv_header = csv_header
        self.reference = {}  # seed -> (csv sha256, exact return) of the first repetition

    def commands(self, rep_dir: Path) -> list:
        argv = ["train", "--config", str(self.config), "--out-dir", str(rep_dir / "run"),
                "--episodes", str(self.episodes)]
        return [Command("train", argv, len(self.seeds), "train")]

    def check(self, rep_dir: Path, finished: list) -> Checked:
        done = finished[0]
        if done.returncode != 0:
            return Checked(len(self.seeds), math.nan, math.nan,
                           [f"train exited {done.returncode}: {done.stderr.strip()[-300:]}"])
        run = rep_dir / "run"
        try:
            summary = json.loads((run / "summary.json").read_text())
            by_seed = {s["seed"]: s for s in summary["seeds"]}
            thresholds, num_constraints = summary["thresholds"], summary["num_constraints"]
        except (OSError, ValueError, KeyError, TypeError) as e:
            return Checked(len(self.seeds), math.nan, math.nan, [f"unreadable summary.json: {e!r}"])
        problems, returns, ratio = [], [], 1.0
        for seed in self.seeds:
            try:
                problem = self._check_seed(run, by_seed.get(seed), num_constraints)
            except (OSError, ValueError, KeyError, TypeError) as e:
                problem = f"unreadable output: {e!r}"
            if problem:
                problems.append(f"seed {seed}: {problem}")
                continue
            diag = by_seed[seed]["stationarity"]
            returns.append(diag["expected_return"])
            ratio = max(ratio, stats.cost_limit_ratio(diag["constraint_totals"], thresholds))
        exact = float(np.mean(returns)) if returns else math.nan
        return Checked(len(problems), exact, ratio, problems)

    def _check_seed(self, run: Path, info: dict | None, num_constraints: int) -> str | None:
        if info is None:
            return "missing from summary.json"
        if "stationarity" not in info:
            return "summary.json has no stationarity block"
        csv = run / Path(info["csv"]).name
        lines = csv.read_text().splitlines()
        if lines[0] != self.csv_header(num_constraints):
            return f"CSV header {lines[0]!r} differs from csv_header({num_constraints})"
        if len(lines) - 1 != self.episodes:
            return f"CSV has {len(lines) - 1} rows, expected {self.episodes}"
        if not all(math.isfinite(float(x)) for line in lines[1:] for x in line.split(",")):
            return "CSV holds a non-finite value"
        seen = (sha256(csv), info["stationarity"]["expected_return"])
        first = self.reference.setdefault(info["seed"], seen)
        if seen != first:
            return "CSV or exact return differs from the run's first repetition"
        return None


def _floats(text: str) -> list:
    return [float(x) for x in re.findall(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?", text)]


def _line(stdout: str, prefix: str) -> str | None:
    return next((ln for ln in stdout.splitlines() if ln.startswith(prefix)), None)


def m2_gridworld(seed: int):
    """A 4x4 H=10 grid world with two calibrated cost constraints.

    The second cost schedule is drawn with `random_schedule`. A draw whose
    cheapest corner of the multiplier grid still breaks a threshold has no
    feasible grid point (`oracle solve` would exit 4 by design), so the next
    draw of the same seed is taken instead.
    """
    from fhc_ac import (
        build_gridworld,
        calibrate_threshold,
        evaluate_deterministic,
        greedy_response,
        random_gridworld,
        random_schedule,
    )

    calibrate_seconds = []
    for attempt in range(100):
        rng = np.random.default_rng([seed, attempt])
        base = random_gridworld(4, 4, 10, seed=int(rng.integers(2**31)))
        second = random_schedule(rng, base.num_cells, base.horizon, 3, 2.0, 5.0)
        config = dataclasses.replace(
            base, stage_costs=np.stack([base.stage_costs[0], second]), thresholds=np.zeros(2)
        )
        started = time.perf_counter()
        config = calibrate_threshold(config, M2_THRESHOLD_FRACTION)
        calibrate_seconds.append(time.perf_counter() - started)
        model = build_gridworld(config)
        corner = greedy_response(model, np.full(2, -100.0))
        _, totals = evaluate_deterministic(model, corner)
        if np.all(totals <= model.thresholds):
            return config, calibrate_seconds
    raise RuntimeError(f"no feasible two-constraint grid world for seed {seed}")


class OracleWorkload:
    """A fixed sequence of `fhc-ac oracle` queries and one `fhc-ac plot`."""

    def __init__(self, root: Path, work: Path, seed: int):
        from fhc_ac import (
            build_gridworld,
            evaluate_policy,
            lagrangian_value,
            load_checkpoint,
            load_gridworld_config,
            save_gridworld_config,
            save_policy,
        )
        from fhc_ac.experiment_cli import main as cli_main

        self.seed = seed
        gen = work / "inputs"
        gen.mkdir(parents=True)

        m2, self.calibrate_seconds = m2_gridworld(seed)
        self.m2_path = gen / "gridworld_m2.json"
        save_gridworld_config(m2, self.m2_path)

        # Short 5x5 runs give the policies to query and a run directory to plot.
        config = gen / "experiment_5x5.json"
        seeds = [2 * seed, 2 * seed + 1]
        doc = experiment_doc(root, gen, GRID_5X5, GENERATED_POLICY_EPISODES, seeds)
        config.write_text(json.dumps(doc))
        self.run_dir = gen / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["train", "--config", str(config), "--out-dir", str(self.run_dir),
                             "--no-plots"])
        if code != 0:
            raise RuntimeError(f"generating the 5x5 policies failed with exit {code}")

        model = build_gridworld(load_gridworld_config(root / GRID_5X5))
        self.policies = []
        for checkpoint in sorted(self.run_dir.glob("*.checkpoint.json")):
            state = load_checkpoint(checkpoint)
            path = gen / checkpoint.name.replace(".checkpoint.json", ".policy.json")
            save_policy(state.policy, path)
            lam = state.signed_multipliers()
            j, totals = evaluate_policy(model, state.policy)
            expected = {"return": j, "totals": totals.tolist()}
            if np.any(lam != 0.0):
                expected["penalized"] = lagrangian_value(model, state.policy, lam)
            self.policies.append((path, ",".join(repr(float(x)) for x in lam), expected))

    def commands(self, rep_dir: Path) -> list:
        cmds = [
            Command("solve-4x4", ["oracle", "solve", "--model", GRID_4X4], 1, "query"),
            Command("solve-5x5", ["oracle", "solve", "--model", GRID_5X5], 1, "query"),
            Command("solve-m2", ["oracle", "solve", "--model", str(self.m2_path)], 1, "query"),
            Command("gradcheck-4x4", ["oracle", "gradcheck", "--model", GRID_4X4,
                                      "--instances", str(GRADCHECK_INSTANCES),
                                      "--seed", str(self.seed)], 1, "query"),
        ]
        for i, (policy, lam, _) in enumerate(self.policies):
            for sub in ("evaluate", "fixedpoint"):
                argv = ["oracle", sub, "--model", GRID_5X5, "--policy", str(policy),
                        f"--multipliers={lam}"]
                cmds.append(Command(f"{sub}-{i}", argv, 1, "query"))
        cmds.append(Command("plot", ["plot", "--run-dir", str(self.run_dir)], 1, "plot"))
        return cmds

    def check(self, rep_dir: Path, finished: list) -> Checked:
        problems, returns = [], []
        for done in finished:
            label = done.command.label
            if done.returncode != 0:
                problems.append(f"{label} exited {done.returncode}: {done.stderr.strip()[-300:]}")
                continue
            try:
                problem = self._check_query(done, returns)
            except (OSError, ValueError, IndexError) as e:
                problem = f"unparsable output: {e!r}"
            if problem:
                problems.append(f"{label}: {problem}")
        exact = float(np.mean([j for j, _ in returns])) if len(returns) == 2 else math.nan
        ratio = max([1.0] + [r for _, r in returns])
        return Checked(len(problems), exact, ratio, problems)

    def _check_query(self, done: Finished, returns: list) -> str | None:
        """Check one query's output; shipped-world solves append (J*, cost ratio)."""
        label, out = done.command.label, done.stdout
        if label.startswith("solve"):
            problem, j_star, costs, thresholds = self._check_solve(out)
            if problem is None and label != "solve-m2":
                returns.append((j_star, stats.cost_limit_ratio(costs, thresholds)))
            return problem
        if label.startswith("gradcheck"):
            return None if "PASS" in out else "gradcheck did not print PASS"
        if label.startswith("evaluate"):
            return self._check_evaluate(out, self.policies[int(label[-1])][2])
        if label.startswith("fixedpoint"):
            gap = _floats(out.rsplit("=", 1)[-1])
            return None if gap and gap[0] <= 1e-8 else f"fixed-point gap {gap} above 1e-8"
        svg = self.run_dir / "returns.svg"
        return None if svg.is_file() and svg.read_text().startswith("<svg") else (
            "plot wrote no returns.svg")

    @staticmethod
    def _check_solve(stdout: str):
        """The best feasible policy may not beat the unconstrained one or break a limit."""
        unconstrained = _line(stdout, "unconstrained:")
        thresholds = _line(stdout, "thresholds:")
        best = _line(stdout, "best feasible greedy policy:")
        if not (unconstrained and thresholds and best):
            return "solve output lacks a line it must print", None, None, None
        j_free = _floats(unconstrained.split("costs=")[0])[0]
        alphas = _floats(thresholds)
        j_star = _floats(best.split("J*=")[1].split(" at ")[0])[0]
        costs = _floats(best.split("costs=")[1])
        # Costs and thresholds print with 4 decimals; allow that rounding.
        if j_star > j_free + 1e-6:
            return f"J*={j_star} exceeds the unconstrained return {j_free}", None, None, None
        if len(costs) != len(alphas) or any(c > a + 1e-4 for c, a in zip(costs, alphas)):
            return f"best costs {costs} break thresholds {alphas}", None, None, None
        return None, j_star, costs, alphas

    @staticmethod
    def _check_evaluate(stdout: str, expected: dict) -> str | None:
        """The CLI's printed values must match the library's for the same policy."""
        line = _line(stdout, "expected return:")
        if line is None or abs(_floats(line)[0] - expected["return"]) > 1e-6:
            return f"expected return line {line!r} differs from {expected['return']:.6f}"
        for k, total in enumerate(expected["totals"]):
            cost = _line(stdout, f"constraint {k + 1}: cost")
            if cost is None or abs(_floats(cost.split("cost")[1])[0] - total) > 1e-6:
                return f"constraint line {cost!r} differs from {total:.6f}"
        if "penalized" in expected:
            pen = _line(stdout, "penalized value")
            if pen is None or abs(_floats(pen.split(":")[-1])[0] - expected["penalized"]) > 1e-6:
                return f"penalized value line {pen!r} differs from {expected['penalized']:.6f}"
        return None


def make(name: str, root: Path, work: Path, seed: int):
    """Generate the named workload's inputs under `work` and return it.

    Only oracle-queries draws its inputs from `seed`; the train workloads run
    pinned configs and training seeds.
    """
    work.mkdir(parents=True)
    if name == "train-4x4":
        return TrainWorkload(root / EXPERIMENT_4X4, EPISODES_4X4)
    if name == "train-5x5-h100":
        config = work / "experiment_5x5_h100.json"
        config.write_text(json.dumps(experiment_doc(root, work, GRID_5X5, EPISODES_5X5, SEEDS_5X5)))
        return TrainWorkload(config, EPISODES_5X5)
    if name == "oracle-queries":
        return OracleWorkload(root, work, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train-4x4", "train-5x5-h100", "oracle-queries")
