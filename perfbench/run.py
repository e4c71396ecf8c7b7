#!/usr/bin/env python3
"""qgft benchmark: run one workload in this process and check every output.

    python3 perfbench/run.py --workload large-files --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The client calls
``qgft.cli.main(argv)`` in-process, one command after another (a closed
loop with one client), on files in a scratch directory under the checkout
that is removed on exit.  BLAS/OpenMP threads are pinned to 1.

``--trace 0`` measures end-to-end metrics with tracing off; ``--trace 1``
runs a fixed number of cycles, each op once untraced and once traced, and
reports per-layer metrics (see tracer.py).  Human-readable lines come first; the
last line of standard output is the JSON result.

End-to-end times are speed-normalised: the workload's calibration kernel
(fixed work like its hot path, see ``Workload.calibration``) is timed
before every op, and each op's wall time is scaled by the kernel's
reference time over the rolling median of the nearby kernel times.  The
host's speed drifts by 15-40% between runs a few minutes apart, which raw
wall-clock medians inherit; the scaled times keep the program's own
changes and cancel most of that drift.  Raw wall-clock figures are
printed in the human-readable lines.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # this process plus two fresh set-up-only processes
TAIL_BEYOND = 10  # samples required beyond the tail percentile
CAL_WINDOW = 2  # calibration samples on each side of an op in its median
SETUP_CAL_SAMPLES = 5  # calibration samples right after each set-up


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def import_package():
    """Import qgft from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "qgft" / "__init__.py").is_file():
        raise SetupError(f"no qgft package under {src}")
    sys.path.insert(0, str(src))
    import qgft
    import qgft.cli  # noqa: F401  (loads every layer module)

    if Path(qgft.__file__).resolve().parent != (src / "qgft").resolve():
        raise SetupError(f"qgft imported from {qgft.__file__}, not from {src}")
    return qgft


# ---------------------------------------------------------------------------
# running ops


@dataclass
class OpResult:
    kind: str
    wall: float  # seconds for the op's commands, checks excluded
    commands: list = field(default_factory=list)  # (label, seconds)
    problems: list = field(default_factory=list)
    cal: float = 0.0  # calibration kernel seconds measured just before the op


def calibrate(workload) -> float:
    """Seconds for one run of the workload's calibration kernel."""
    t0 = time.perf_counter()
    workload.calibration()
    return time.perf_counter() - t0


def speed_factors(cal_ref_s, cals):
    """``cal_ref_s`` over the rolling median of calibration times around each op."""
    return [cal_ref_s / statistics.median(cals[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            for i in range(len(cals))]


def call_main(argv) -> str | None:
    """Run one command through ``qgft.cli.main``; a problem string or None."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = sys.modules["qgft.cli"].main(argv)
    except SystemExit as exc:
        return f"{argv[0]}: exited with {exc.code!r}: {sink.getvalue()[-500:]}"
    except Exception:
        return f"{argv[0]}: raised\n{traceback.format_exc()}"
    if rc != 0:
        return f"{argv[0]}: exit code {rc}: {sink.getvalue()[-500:]}"
    if "Traceback (most recent call last)" in sink.getvalue():
        return f"{argv[0]}: printed a traceback: {sink.getvalue()[-500:]}"
    return None


def run_op(op) -> OpResult:
    for path in op.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    res = OpResult(op.kind, 0.0)
    t0 = time.perf_counter()
    for label, argv in op.commands:
        t = time.perf_counter()
        problem = call_main(argv)
        res.commands.append((label, time.perf_counter() - t))
        if problem:
            res.problems.append(problem)
            break
    res.wall = time.perf_counter() - t0
    if not res.problems:
        try:
            res.problems = op.check()
        except Exception:
            res.problems = [f"{op.kind}: output unreadable\n{traceback.format_exc()}"]
    return res


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct, n).

    With fewer samples than that the maximum is reported.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def metric(value, unit):
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    return {
        "cpu_model": model or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
        "client": "closed loop, 1 client, in-process qgft.cli.main",
        "bytes_note": "byte counts are computed from buffer sizes; the 8 MB "
                      "arrays fit well inside the 300 MiB shared L3, so no "
                      "memory-bandwidth figure is claimed",
    }


def summarize(results, factors):
    """Per-kind normalised latency lines for the human-readable report.

    Consecutive ``pipeline.*`` ops also count as one pipeline ending at
    ``pipeline.q2img``.
    """
    groups, pipeline = {}, 0.0
    for r, k in zip(results, factors):
        groups.setdefault(r.kind, []).append(r.wall * k)
        if len(r.commands) > 1:
            for label, dt in r.commands:
                groups.setdefault(f"{r.kind}.{label}", []).append(dt * k)
        if r.kind.startswith("pipeline."):
            pipeline += r.wall * k
            if r.kind == "pipeline.q2img":
                groups.setdefault("pipeline (4 commands)", []).append(pipeline)
                pipeline = 0.0
    lines = []
    for kind, vals in sorted(groups.items()):
        t, pct, n = tail(vals)
        lines.append(f"  {kind:<22} p50 {statistics.median(vals) * 1e3:9.2f} ms   "
                     f"tail {t * 1e3:9.2f} ms (p{pct:.1f} of n={n})")
    return lines


# ---------------------------------------------------------------------------
# modes


def setup_workload(workload):
    """Inputs, files and checked warm-up ops.

    Returns (seconds since process start, the same normalised, warm-up results).
    """
    workload.setup()
    warm = [run_op(op) for op in workload.warmup()]
    raw = time.perf_counter() - T_START
    cal = statistics.median(calibrate(workload) for _ in range(SETUP_CAL_SAMPLES))
    return raw, raw * workload.cal_ref_s / cal, warm


def setup_probe(args) -> float:
    """Normalised set-up time of a fresh process running only the set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SetupError(f"set-up process failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def timed_loop(workload, seconds):
    """Whole cycles until ``seconds`` have passed; every op checked."""
    results = []
    end = time.perf_counter() + seconds
    index = 0
    while True:
        for op in workload.cycle(index):
            cal = calibrate(workload)
            results.append(run_op(op))
            results[-1].cal = cal
        index += 1
        if time.perf_counter() >= end:
            return results, index


def end_to_end(workload, args, setup_raw, setup_times):
    results, cycles = timed_loop(workload, args.seconds)
    factors = speed_factors(workload.cal_ref_s, [r.cal for r in results])
    raw = [r.wall for r in results]
    walls = [w * k for w, k in zip(raw, factors)]
    t, pct, n = tail(walls)
    n_cmds = sum(len(r.commands) for r in results)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "op_p50_ms": metric(statistics.median(walls) * 1e3, "ms"),
        "op_tail_ms": metric(t * 1e3, "ms"),
        "cmds_per_s": metric(n_cmds / sum(walls), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    failed = sum(1 for r in results if r.problems)
    lines = [f"{workload.name}: {len(results)} ops ({n_cmds} commands) in {cycles} cycles, "
             f"{failed} failed (failed_frac {failed / len(results):.4f})",
             f"  normalised set-up samples (s): {', '.join(f'{s:.3f}' for s in setup_times)}; "
             f"raw in this process {setup_raw:.3f} s",
             f"  op tail is p{pct:.1f} of n={n}; speed factor median "
             f"{statistics.median(factors):.3f} (calibration kernel {workload.cal_ref_s * 1e3:.2f} "
             "ms at reference speed)",
             f"  raw wall clock: op p50 {statistics.median(raw) * 1e3:.2f} ms, "
             f"tail {tail(raw)[0] * 1e3:.2f} ms, {n_cmds / sum(raw):.3f} commands/s",
             "  normalised latency by kind:"]
    lines += summarize(results, factors)
    return results, metrics, lines


def fft_floor_ms(order: int, reps: int = 21) -> float:
    """Median time of two complex fft2 calls over an order x order grid."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    b = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.fft.fft2(a)
        np.fft.fft2(b)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def per_layer(workload):
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    results, walls = [], {False: 0.0, True: 0.0}
    n_traced = 0
    for index in range(workload.trace_cycles):
        # each op runs twice, untraced and traced in alternating order, so
        # host drift cancels from the overhead estimate
        for i, op in enumerate(workload.cycle(index)):
            for traced in ((False, True) if (index + i) % 2 == 0 else (True, False)):
                with tracer if traced else contextlib.nullcontext():
                    res = run_op(op)
                results.append(res)
                walls[traced] += res.wall
                n_traced += traced
    floor = fft_floor_ms(workload.floor_order)
    c = tracer.counters
    ms_per_op = 1e-6 / n_traced
    qft_fast = {k: tracer.p50_ns(f"qft.{k}") * 1e-6
                for k in ("rqft_fast", "irqft_fast", "sqft_fast", "isqft_fast", "lqft_fast")}
    direct = [n for n in tracer.spans if n.startswith("qft.") and n.endswith("_direct")]
    direct.append("qft.multiplication_pairing")
    qsig_ns = tracer.total_ns("fileio.read_qsig") + tracer.total_ns("fileio.write_qsig")
    sk_calls = tracer.calls("kernels.spatial_kernel")
    all_self = tracer.self_ns("")
    m = {
        "cli.main.calls": metric(tracer.calls("cli.main"), "count"),
        "cli.self_ms": metric(tracer.self_ns("cli.") * ms_per_op, "ms"),
        "fileio.read_qsig.p50_ms": metric(tracer.p50_ns("fileio.read_qsig") * 1e-6, "ms"),
        "fileio.write_qsig.p50_ms": metric(tracer.p50_ns("fileio.write_qsig") * 1e-6, "ms"),
        "fileio.read_ppm.p50_ms": metric(tracer.p50_ns("fileio.read_ppm") * 1e-6, "ms"),
        "fileio.write_ppm.p50_ms": metric(tracer.p50_ns("fileio.write_ppm") * 1e-6, "ms"),
        "fileio.bytes_in": metric(c["fileio.bytes_in"], "bytes"),
        "fileio.bytes_out": metric(c["fileio.bytes_out"], "bytes"),
        "fileio.qsig_mb_per_s": metric(c["fileio.qsig_bytes"] / qsig_ns * 1e3 if qsig_ns else 0.0,
                                       "MB/s"),
        **{f"qft.{k}.p50_ms": metric(v, "ms") for k, v in qft_fast.items()},
        "qft.self_ms": metric(tracer.self_ns("qft.") * ms_per_op, "ms"),
        "qft.fft_floor_ms": metric(floor, "ms"),
        "qft.fast_over_floor": metric(qft_fast["rqft_fast"] / floor, "ratio"),
        "qft.direct.calls": metric(tracer.calls(*direct), "count"),
        "qft.direct.self_ms": metric(sum(tracer.self_ns(n) for n in direct) * ms_per_op, "ms"),
        "signal.grids_built": metric(tracer.calls("signal.grid_init"), "count"),
        "signal.grid_init.self_ms": metric(tracer.self_ns("signal.grid_init") * ms_per_op, "ms"),
        "signal.convolve.calls": metric(tracer.calls("signal.convolve"), "count"),
        "signal.convolve.self_ms": metric(tracer.self_ns("signal.convolve") * ms_per_op, "ms"),
        "signal.transform_W.p50_ms": metric(tracer.p50_ns("signal.transform_W") * 1e-6, "ms"),
        "kernels.smooth.self_ms": metric(tracer.self_ns("kernels.smooth") * ms_per_op, "ms"),
        "kernels.spatial_kernel.calls": metric(sk_calls, "count"),
        "kernels.spatial_kernel.hit_ratio": metric(
            c["kernels.spatial_kernel.hits"] / sk_calls if sk_calls else 0.0, "ratio"),
        "kernels.energy_identity.self_ms": metric(
            tracer.self_ns("kernels.energy_identity") * ms_per_op, "ms"),
        "group.groups_built": metric(tracer.calls("group.init"), "count"),
        "group.tables_built": metric(
            sum(len(v) for k, v in tracer.spans.items() if k.startswith("group.table.")), "count"),
        "group.character_table.calls": metric(tracer.calls("group.character_table"), "count"),
        "group.character_table.self_ms": metric(
            tracer.self_ns("group.character_table") * ms_per_op, "ms"),
        "quat.qmul.calls": metric(tracer.calls("quat.qmul"), "count"),
        "quat.qmul.products": metric(c["quat.qmul.products"], "count"),
        "quat.qmul.self_ms": metric(tracer.self_ns("quat.qmul") * ms_per_op, "ms"),
        "verify.run_verification.p50_s": metric(
            tracer.p50_ns("verify.run_verification") * 1e-9, "s"),
        "verify.checks": metric(c["verify.checks"], "count"),
        "verify.self_ms": metric(tracer.self_ns("verify.") * ms_per_op, "ms"),
        "trace.overhead_frac": metric(walls[True] / walls[False] - 1.0, "ratio"),
        "trace.unattributed_frac": metric(1.0 - all_self * 1e-9 / walls[True], "ratio"),
    }
    layer_ms = {layer: tracer.self_ns(f"{layer}.") * ms_per_op for layer in LAYERS}
    lines = [f"{workload.name} traced: {workload.trace_cycles} cycles, {n_traced} ops traced "
             f"and {len(results) - n_traced} untraced; counts are totals over the traced ops, "
             "*.self_ms are per traced op",
             "  self time per op by layer: "
             + ", ".join(f"{k} {v:.2f} ms" for k, v in layer_ms.items())]
    return results, m, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    try:
        import_package()
        workdir.mkdir(parents=True)
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        setup_raw, setup_s, warm = setup_workload(workload)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        env = environment(args.seed)
        if args.trace:
            results, metrics, lines = per_layer(workload)
        else:
            setup_times = [setup_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
            results, metrics, lines = end_to_end(workload, args, setup_raw, setup_times)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    results = warm + results  # every op run is checked and counted
    failures = [r for r in results if r.problems]
    for r in failures[:5]:
        print(f"FAILED {r.kind}: " + "\n".join(r.problems), file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
