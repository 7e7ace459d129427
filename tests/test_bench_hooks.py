"""The benchmark's timing hooks look up public names of the package.

`bench/probe.py` wraps functions at the names their callers use; a traced
run resolves every one of them, so a refactor that drops or renames a hooked
name fails here and not only in a traced benchmark run. The traced `train`
run also feeds the hooks' callbacks what `train` returns, so a change to a
result they read fails here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_probe(tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    record = tmp_path / "record.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "probe.py"), str(record), "1", "--", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert record.is_file()
    return done, json.loads(record.read_text())


def test_traced_probe_resolves_every_hooked_name(tmp_path):
    done, _ = run_probe(
        tmp_path, "oracle", "solve", "--model", str(ROOT / "configs" / "gridworld_4x4.json")
    )
    assert "best feasible greedy policy:" in done.stdout


def test_traced_probe_runs_train(tmp_path):
    _, record = run_probe(
        tmp_path, "train", "--config", str(ROOT / "configs" / "experiment_4x4.json"),
        "--episodes", "20", "--seeds", "0,1", "--no-plots", "--out-dir", str(tmp_path / "out"),
    )
    # One lock-step call trains both seeds; the probe counts its metrics rows,
    # one per seed-episode.
    assert record["counts"]["trainer.train"] == 1
    assert record["counts"]["trainer.train.episodes"] == 40
    # train looks multiplier_update up at its module name once per
    # seed-episode, so the traced span keeps counting the 4x4 run's
    # constrained seed-episodes.
    assert record["counts"]["trainer.multiplier_update"] == 40
