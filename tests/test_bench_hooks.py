"""The benchmark's timing hooks look up public names of the package.

`bench/probe.py` wraps functions at the names their callers use; a traced
run resolves every one of them, so a refactor that drops or renames a hooked
name fails here and not only in a traced benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_probe_resolves_every_hooked_name(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    record = tmp_path / "record.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "probe.py"), str(record), "1", "--",
         "oracle", "solve", "--model", str(ROOT / "configs" / "gridworld_4x4.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert "best feasible greedy policy:" in done.stdout
    assert record.is_file()
