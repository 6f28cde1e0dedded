"""Run every demo script as a user would, and check what 04_search.py reports."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cisym.localization import TEMPLATES

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(path)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_all_four_demos_are_found():
    assert [p.name for p in DEMOS] == [
        "01_invariants.py", "02_classification.py",
        "03_verify_configurations.py", "04_search.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr
    if path.name == "04_search.py":
        hits = dict(re.findall(r"^\s+(\w+)\s+hits: (\d+)$", result.stdout,
                               re.MULTILINE))
        assert hits == {template: "0" for template in TEMPLATES}
        assert re.search(r"^\s+14 solutions$", result.stdout, re.MULTILINE)
