"""Smoke tests: the example scripts run end to end against the library."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def run_script(name, *args):
    return run_python(ROOT / "scripts" / name, *args)


def test_image_roundtrip_script(tmp_path):
    res = run_script("image_roundtrip.py", "--size", 16, "--outdir", tmp_path)
    assert res.returncode == 0, res.stderr
    assert "byte-identical: True" in res.stdout


def test_smoothing_sweep_script():
    res = run_script("smoothing_sweep.py", "--group", "3x4", "--lmax", 3)
    assert res.returncode == 0, res.stderr
    rows = [line for line in res.stdout.splitlines() if re.match(r"\s*\d+\s", line)]
    assert len(rows) == 4


def test_smoothing_sweep_rejects_bad_arguments():
    for args in (("--group", "0"), ("--group", "8x"), ("--lmax", "-1")):
        res = run_script("smoothing_sweep.py", *args)
        assert res.returncode == 2, args
        usage, error = res.stderr.splitlines()
        assert usage.startswith("usage: smoothing_sweep.py")
        assert error.startswith("smoothing_sweep.py: error: "), args


def test_output_digest_script():
    runs = [run_script("output_digest.py") for _ in range(2)]
    for res in runs:
        assert res.returncode == 0, res.stderr
        assert re.fullmatch(r"[0-9a-f]{64}\n", res.stdout)
    assert runs[0].stdout == runs[1].stdout


def test_gate_margin_script():
    res = run_script("gate_margin.py", "--repeats", 3)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["N=16", "N=32"]
    for line in lines:
        assert re.fullmatch(r"N=\d+ +direct/fast median +[\d.]+ +p1 +[\d.]+ +min +[\d.]+"
                            r" +failures \d+/3", line), line
    assert run_script("gate_margin.py", "--repeats", 0).returncode == 2


def test_module_entry_full_help():
    # argv comes from sys.argv here; an option first builds the full parser
    res = run_python("-m", "qgft", "--help")
    assert res.returncode == 0, res.stderr
    assert "{transform,inverse,smooth,verify,img2q,q2img,spectrum,bench,dump}" in res.stdout
    assert "approximate-identity kernel" in res.stdout


def test_module_entry_one_command_usage():
    res = run_python("-m", "qgft", "smooth")
    assert res.returncode == 2
    assert res.stderr.startswith("usage: qgft smooth")
    assert "required: input, output" in res.stderr
