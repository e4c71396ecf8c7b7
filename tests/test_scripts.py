"""Smoke tests: the example scripts run end to end against the library."""

import math
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

from qgft import signal

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
    # a second run, with --labels: one unique "label hash" line per hashed
    # output, then the digest of the plain run
    runs = [run_script("output_digest.py", *args) for args in ((), ("--labels",))]
    for res in runs:
        assert res.returncode == 0, res.stderr
    assert re.fullmatch(r"[0-9a-f]{64}\n", runs[0].stdout)
    *listed, last = runs[1].stdout.splitlines()
    assert last + "\n" == runs[0].stdout
    labels = [re.fullmatch(r"(\S+) [0-9a-f]{64}", line).group(1) for line in listed]
    assert len(set(labels)) == len(labels) > 500
    assert sum(label.startswith("verify/") for label in labels) == 3
    # the file layer, both ways, both codecs, reads from a file and from a pipe
    assert {label.split("/")[1] for label in labels if label.startswith("file/")} == {
        "write_qsig", "read_qsig", "read_qsig_stream", "write_ppm", "read_ppm",
        "read_ppm_stream"}
    # qgft spectrum's renders: each branch of its magnitude scaling
    spectra = [label.split("/")[2:] for label in labels if label.startswith("cli/spectrum/")]
    assert {case for _, case in spectra} == {"random", "delta", "overflow", "underflow", "zeros"}
    assert {"Z8", "Z33"} <= {group for group, _ in spectra}
    # left_mul and right_mul, on one bin-map block and on several
    products = [label.split("/", 2)[1:] for label in labels if label.startswith("scalar_mul/")]
    assert {side for side, _ in products} == {"left", "right"}
    assert len(products) == 2 * len({group for _, group in products}) >= 24


def test_output_digest_covers_each_side_of_every_size_switch():
    # a threshold that moves must not silently drop a path from the digest
    script = runpy.run_path(str(ROOT / "scripts" / "output_digest.py"))
    orders = [math.prod(m) for m in script["GROUPS"] + script["CORE_GROUPS"]]
    # convolve runs on these; smoothing and the energy identity on the next list
    assert min(orders) <= signal.TINY_CORE_MAX < max(orders)
    smoothed = [math.prod(m) for m in script["GROUPS"] + script["FFT_SMOOTH_GROUPS"]]
    assert min(smoothed) <= signal.TINY_CORE_MAX < max(smoothed)
    # transform_W's and transform_beta's payload of 32 n^2 bytes over more than one map block
    assert any(32 * n * n > signal._scratch(n).nbytes for n in orders)


def test_readme_is_short_and_cites_existing_changes_entries():
    # measurements live in CHANGES.md; the README and the size constants name the
    # entry by its title, which runs from a top-level bullet to its first " ("
    titles = {line[2:].split(" (")[0]
              for line in (ROOT / "CHANGES.md").read_text().splitlines() if line.startswith("- ")}
    readme = (ROOT / "README.md").read_text()
    assert len(readme.splitlines()) <= 300
    lines = (ROOT / "src" / "qgft" / "signal.py").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("TINY_CORE_MAX = "))
    start = at
    while lines[start - 1].startswith("#"):
        start -= 1
    comment = " ".join(line.lstrip("# ") for line in lines[start:at])
    cited = re.findall(r'CHANGES\.md, "([^"]+)"', comment)
    assert cited and set(cited) <= titles
    cited = re.findall(r'Measured in "([^"]+)"(?: and "([^"]+)")?', " ".join(readme.split()))
    assert cited and {t for pair in cited for t in pair if t} <= titles


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
    # argv comes from sys.argv here
    res = run_python("-m", "qgft", "--help")
    assert res.returncode == 0, res.stderr
    assert "{transform,inverse,smooth,verify,img2q,q2img,spectrum,bench,dump}" in res.stdout
    assert "approximate-identity kernel" in res.stdout


def test_module_entry_one_command_usage():
    res = run_python("-m", "qgft", "smooth")
    assert res.returncode == 2
    assert res.stderr.startswith("usage: qgft smooth")
    assert "required: input, output" in res.stderr
