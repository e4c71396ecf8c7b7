"""Smoke tests: the example scripts run end to end against the library."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_image_roundtrip_script(tmp_path):
    res = run_script("image_roundtrip.py", "--size", 16, "--outdir", tmp_path)
    assert res.returncode == 0, res.stderr
    assert "byte-identical: True" in res.stdout


def test_smoothing_sweep_script():
    res = run_script("smoothing_sweep.py", "--group", "3x4", "--lmax", 3)
    assert res.returncode == 0, res.stderr
    rows = [line for line in res.stdout.splitlines() if re.match(r"\s*\d+\s", line)]
    assert len(rows) == 4
