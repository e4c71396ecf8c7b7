#!/usr/bin/env python3
"""Self-test of the benchmark: its checks must catch broken outputs.

    python3 perfbench/selftest.py

Feeds every checker a correct output (it must pass) and a deliberately
corrupted one (one flipped or scaled bin, one changed pixel, a failing or
stale verify report, a failing command), checks the independent oracles
against the library's direct evaluators, runs one cycle of each workload
in-process, and runs ``run.py`` briefly on each workload in both modes to
check the result line against BENCHMARK.json.  Exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run  # sets the thread pins before numpy is imported

run.import_package()

import numpy as np  # noqa: E402
import qgft  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS, random_axes  # noqa: E402

FAILURES = []


def expect(cond, what):
    print(("PASS " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def write_grid(path, grid_values, moduli, side):
    checks.write_bytes(path, checks.encode_qsig(moduli, side, grid_values))


def test_defining_sum_matches_library(rng):
    """The spot-check oracle agrees with the library's direct evaluators."""
    direct = {"rqft": qgft.rqft_direct, "sqft": qgft.sqft_direct, "lqft": qgft.lqft_direct}
    for moduli in ((8,), (3, 4)):
        grp = qgft.FiniteAbelianGroup(moduli)
        f = qgft.random_signal(grp, rng)
        text, (mu1, mu2) = random_axes(rng)
        axes = qgft.AxisPair(qgft.Quaternion(*mu1), qgft.Quaternion(*mu2))
        for kind, fn in direct.items():
            F = fn(f, axes).values
            worst = max(
                checks.norm2(F[u, v] - checks.defining_sum(kind, f.values, moduli, u, v, mu1, mu2))
                for u in range(grp.order) for v in range(grp.order))
            expect(worst <= 1e-12 * checks.norm2(f.values),
                   f"defining_sum {kind} on Z{moduli} matches {fn.__name__} ({worst:.2e})")


def test_forward_checker(rng, tmp):
    moduli = (16,)
    grp = qgft.FiniteAbelianGroup(moduli)
    f = qgft.random_signal(grp, rng)
    mu1, mu2 = np.array([0.0, 1, 0, 0]), np.array([0.0, 0, 1, 0])
    bins = [(3, 5), (0, 0), (15, 1)]
    for kind, fn in (("rqft", qgft.rqft_fast), ("sqft", qgft.sqft_fast), ("lqft", qgft.lqft_fast)):
        good = fn(f).values
        path = os.path.join(tmp, f"{kind}.qsig")

        def problems(values):
            write_grid(path, values, moduli, checks.SIDE_DUAL)
            return checks.check_forward(kind, f.values, moduli, checks.read_qsig(path),
                                        mu1, mu2, bins)

        expect(problems(good) == [], f"forward checker passes a correct {kind} spectrum")
        flipped = good.copy()
        flipped[3, 5] = -flipped[3, 5]  # norm kept, so only the spot check can see it
        found = problems(flipped)
        expect(any("bin (3, 5)" in p for p in found) and not any("Plancherel" in p for p in found),
               f"spot check catches one flipped {kind} bin")
        scaled = good.copy()
        scaled[7, 9] *= 2.0  # a bin no spot check visits
        found = problems(scaled)
        expect(any("Plancherel" in p for p in found) and not any("bin" in p for p in found),
               f"Plancherel ratio catches one scaled {kind} bin")
        expect(checks.check_forward(kind, f.values, moduli,
                                    checks.Grid(moduli, checks.SIDE_PRIMAL, good),
                                    mu1, mu2, bins) != [],
               f"forward checker rejects a primal-side {kind} file")


def test_round_trip_checker(rng):
    moduli = (4, 4)
    f = rng.standard_normal((16, 16, 4))
    good = f + 1e-15 * rng.standard_normal(f.shape)
    expect(checks.check_round_trip(f, moduli, checks.Grid(moduli, 0, good)) == [],
           "round-trip checker passes a 1e-15 round trip")
    bad = good.copy()
    bad[2, 3, 1] = -bad[2, 3, 1]
    expect(checks.check_round_trip(f, moduli, checks.Grid(moduli, 0, bad)) != [],
           "round-trip checker catches one flipped value")
    expect(checks.check_round_trip(f, moduli, checks.Grid(moduli, 1, good)) != [],
           "round-trip checker rejects a dual-side file")


def test_bytes_checker(rng, tmp):
    pixels = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
    data = checks.encode_ppm(pixels)
    path = os.path.join(tmp, "img.ppm")
    checks.write_bytes(path, data)
    expect(checks.check_same_bytes(data, path) == [], "PPM checker passes identical bytes")
    changed = pixels.copy()
    changed[5, 2, 1] ^= 1
    checks.write_bytes(path, checks.encode_ppm(changed))
    expect(checks.check_same_bytes(data, path) != [], "PPM checker catches one changed pixel")


def test_smooth_checker(rng):
    n, level = 16, 3
    grp = qgft.FiniteAbelianGroup((n,))
    pixels = rng.integers(0, 256, (n, n, 3), dtype=np.uint8)
    f = checks.image_values(pixels)
    for family in qgft.BUILTIN_FAMILIES:
        out = qgft.smooth(qgft.QSignal(grp, f), qgft.builtin_family(family), level).values
        expect(checks.check_smooth(f, n, family, level, checks.Grid((n,), 0, out)) == [],
               f"smooth checker passes library smoothing ({family})")
        bad = out.copy()
        bad[4, 11, 2] += 1e-6
        expect(checks.check_smooth(f, n, family, level, checks.Grid((n,), 0, bad)) != [],
               f"smooth checker catches one changed value ({family})")


def test_verify_checker(tmp):
    path = os.path.join(tmp, "v.json")
    report = qgft.run_verification(qgft.FiniteAbelianGroup((2, 2)), trials=1, seed=5)
    checks.write_bytes(path, report.to_json().encode())
    expect(checks.check_verify_report(path, 5) == [], "verify checker passes a passing report")
    expect(checks.check_verify_report(path, 6) != [], "verify checker catches a stale report")
    bad = report.to_dict()
    bad["passed"] = False
    checks.write_bytes(path, json.dumps(bad).encode())
    expect(checks.check_verify_report(path, 5) != [], "verify checker catches passed=false")


def test_command_failures(tmp):
    expect(run.call_main(["transform", os.path.join(tmp, "missing.qsig"),
                          os.path.join(tmp, "o.qsig")]) is not None,
           "a command exiting 2 is a failure")
    expect(run.call_main(["no-such-command"]) is not None, "a usage error is a failure")
    cli = sys.modules["qgft.cli"]
    original = cli.main
    cli.main = lambda argv: 1 / 0
    try:
        expect("ZeroDivisionError" in (run.call_main(["dump", "x"]) or ""),
               "a command raising is a failure with its traceback")
    finally:
        cli.main = original


def test_tracer_restores_everything():
    from tracer import Tracer

    cli, qft = sys.modules["qgft.cli"], sys.modules["qgft.qft"]
    before = (cli.read_qsig, qft.FORWARD_FAST[qgft.TransformKind.RIGHT],
              qgft.signal._QGrid.__init__, qgft.FiniteAbelianGroup.__dict__["neg_perm"].func)
    tracer = Tracer()
    with tracer:
        during = (cli.read_qsig, qft.FORWARD_FAST[qgft.TransformKind.RIGHT],
                  qgft.signal._QGrid.__init__, qgft.FiniteAbelianGroup.__dict__["neg_perm"].func)
        qgft.sqft_fast(qgft.random_signal(qgft.FiniteAbelianGroup((4,)), np.random.default_rng(0)))
    after = (cli.read_qsig, qft.FORWARD_FAST[qgft.TransformKind.RIGHT],
             qgft.signal._QGrid.__init__, qgft.FiniteAbelianGroup.__dict__["neg_perm"].func)
    expect(all(a is not b for a, b in zip(before, during)) and all(
        a is b for a, b in zip(before, after)), "tracer wraps lookup sites and restores them")
    expect(tracer.calls("qft.sqft_fast") == 1 and tracer.calls("qft.rqft_fast") == 1
           and tracer.calls("signal.transform_W") == 1,
           "tracer records nested spans through module globals")


def test_workload_cycles(tmp):
    for name, cls in WORKLOADS.items():
        workdir = os.path.join(tmp, name)
        os.mkdir(workdir)
        wl = cls(7, workdir)
        wl.setup()
        results = [run.run_op(op) for op in wl.cycle(0)]
        bad = [p for r in results for p in r.problems]
        expect(results and not bad, f"one {name} cycle runs with failed_frac 0 {bad[:1]}")


def result_line(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


def test_result_lines():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            rc, res = result_line([sys.executable, *spec["command"][1:], "--workload", w["name"],
                                   "--seed", "3", "--seconds", "1", "--trace", str(trace)], run.ROOT)
            ok = (rc == 0 and res is not None
                  and set(res) == {"correct", "attempted", "failed", "metrics"}
                  and res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
                  and {m["name"]: m["unit"] for m in declared}
                  == {k: v["unit"] for k, v in res["metrics"].items()})
            expect(ok, f"run.py --workload {w['name']} --trace {trace}: result line matches "
                       "BENCHMARK.json with failed 0")


def test_bare_directory_fails():
    bare = run.ROOT / ".perfbench_tmp" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "baseline"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        rc, res = result_line([sys.executable, "perfbench/run.py", "--workload", "desk-verify",
                               "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        expect(rc != 0 and res is None, "without the package the benchmark exits non-zero, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    rng = np.random.default_rng(20261017)
    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    try:
        test_defining_sum_matches_library(rng)
        test_forward_checker(rng, tmp)
        test_round_trip_checker(rng)
        test_bytes_checker(rng, tmp)
        test_smooth_checker(rng)
        test_verify_checker(tmp)
        test_command_failures(tmp)
        test_tracer_restores_everything()
        test_workload_cycles(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    test_bare_directory_fails()
    test_result_lines()
    with contextlib.suppress(OSError):
        scratch.rmdir()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
