"""Smoke test: every demo script runs and its printed checks hold."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
CHECK_LINE = re.compile(r"^(.*): (True|False)$")


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_and_checks_hold(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    checks = [m for m in map(CHECK_LINE.match, result.stdout.splitlines()) if m]
    assert all(m.group(2) == "True" for m in checks), [m.group(0) for m in checks]
