"""Smoke test: every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_demo_set_is_complete():
    assert [d.name[:2] for d in DEMOS] == [f"{i:02d}" for i in range(1, 8)]


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
