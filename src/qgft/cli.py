"""Command-line interface.

Subcommands:

* ``transform`` / ``inverse``: apply a transform of any kind (or its
  inverse) to a QSIG file; ``--mode fast`` (default) or ``--mode direct``.
* ``smooth``: convolve a primal QSIG file with a named kernel family level.
* ``verify``: run the randomized identity suite on a group.
* ``img2q`` / ``q2img``: bridge square binary PPM images (P6, maxval 255)
  to and from primal QSIG files.
* ``spectrum``: render a dual QSIG file as a log-magnitude grayscale PPM,
  zero frequency centered.
* ``bench``: wall-clock the fast and (for sizes 8 to 48) direct evaluators.
* ``dump``: print a QSIG file as CSV for debugging.

Exit codes: 0 success, 1 verification/benchmark assertion failure, 2 usage,
file-format or path error.  Output files are written atomically; no partial
file survives a failure.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .fileio import (
    PpmFormatError,
    QsigFormatError,
    atomic_write_bytes,
    read_ppm,
    read_qsig,
    write_ppm,
    write_qsig,
)
from .group import FiniteAbelianGroup
from .kernels import BUILTIN_FAMILIES, builtin_family, smooth
from .qft import FORWARD_DIRECT, FORWARD_FAST, TransformKind, TransformSelection
from .quat import DEFAULT_AXES, AxisPair, Quaternion
from .signal import QSignal, QSpectrum, _NonFiniteError, lp_norm, random_signal
from .verify import run_verification

__all__ = ["main"]


class CliError(Exception):
    """Usage or format problem; reported on stderr with exit status 2."""


def parse_group_spec(spec: str) -> FiniteAbelianGroup:
    try:
        moduli = tuple(int(tok) for tok in spec.lower().split("x"))
        return FiniteAbelianGroup(moduli)
    except ValueError as exc:
        raise CliError(f"bad group spec {spec!r}: {exc}") from exc


def parse_axes(values) -> AxisPair:
    if values is None:
        return DEFAULT_AXES
    try:
        return AxisPair(Quaternion(*values[:4]), Quaternion(*values[4:]))
    except ValueError as exc:
        raise CliError(f"bad axes: {exc}") from exc


def _load_primal(path: str) -> QSignal:
    sig = read_qsig(path)
    if not isinstance(sig, QSignal):
        raise CliError(f"{path}: expected a primal-side file, found dual side")
    return sig


def _load_dual(path: str) -> QSpectrum:
    sig = read_qsig(path)
    if not isinstance(sig, QSpectrum):
        raise CliError(f"{path}: expected a dual-side file, found primal side")
    return sig


def _selection(args) -> TransformSelection:
    return TransformSelection(TransformKind(args.kind), parse_axes(args.axes))


def cmd_transform(args) -> int:
    f = _load_primal(args.input)
    out = _selection(args).forward(f, fast=args.mode == "fast")
    write_qsig(args.output, out)
    return 0


def cmd_inverse(args) -> int:
    F = _load_dual(args.input)
    out = _selection(args).inverse(F, fast=args.mode == "fast")
    write_qsig(args.output, out)
    return 0


def cmd_smooth(args) -> int:
    f = _load_primal(args.input)
    if args.level < 0:
        raise CliError("--level must be >= 0")
    out = smooth(f, builtin_family(args.family), args.level)
    delta = lp_norm(out - f, 2)  # before the write, so an overflow leaves no file
    write_qsig(args.output, out)
    print(f"delta_l2 = {delta:.6e}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    group = parse_group_spec(args.group)
    if args.trials < 0:
        raise CliError("--trials must be >= 0")
    if args.tol is not None and not args.tol >= 0:
        raise CliError("--tol must be a number >= 0")
    report = run_verification(
        group,
        trials=args.trials,
        seed=args.seed,
        tol=args.tol,
        corrupt=args.self_test_corrupt,
    )
    print(report.format_text())
    if args.json:
        atomic_write_bytes(args.json, report.to_json().encode())
    return 0 if report.all_passed else 1


def cmd_img2q(args) -> int:
    width, height, pixels = read_ppm(args.input)
    if width != height:
        raise CliError(
            f"{args.input}: image is {width}x{height}; the domain must be "
            "G x G, so only square images are accepted"
        )
    group = FiniteAbelianGroup((width,))
    vals = np.zeros((width, width, 4))
    vals[..., 1:] = pixels.astype(np.float64) / 255.0  # rows are the first variable
    write_qsig(args.output, QSignal(group, vals))
    return 0


def cmd_q2img(args) -> int:
    f = _load_primal(args.input)
    n = f.group.order
    rgb = np.clip(f.values[..., 1:], 0.0, 1.0) * 255.0
    pixels = np.floor(rgb + 0.5).astype(np.uint8)  # round half-up
    write_ppm(args.output, pixels.reshape(n, n, 3))
    return 0


def cmd_spectrum(args) -> int:
    F = _load_dual(args.input)
    n = F.group.order
    mag = np.sqrt((F.values**2).sum(axis=-1))
    peak = float(mag.max())
    if peak > 0.0:
        img = np.log1p(mag) / np.log1p(peak) * 255.0
    else:
        img = np.zeros_like(mag)
    img = np.floor(img + 0.5).astype(np.uint8)
    img = np.roll(img, (n // 2, n // 2), axis=(0, 1))  # zero frequency centered
    write_ppm(args.output, np.repeat(img[..., None], 3, axis=-1))
    return 0


DIRECT_BENCH_LIMIT = 48  # direct evaluators are O(N^3) per stage; cap them
# Below this N the fast path's fixed cost can exceed a few-bin direct sum, so
# fast and direct are compared, and the gate applied, only from here up.
BENCH_GATE_MIN = 8


def cmd_bench(args) -> int:
    kind = TransformKind(args.kind)
    fast_fn, direct_fn = FORWARD_FAST[kind], FORWARD_DIRECT[kind]
    if args.repeats < 1:
        raise CliError("--repeats must be >= 1")
    rng = np.random.default_rng(args.seed)
    print(f"{'N':>5} {'bins':>8} {'fast [s]':>10} {'direct [s]':>11} {'speedup':>8}")
    ok = True
    for n in args.sizes:
        if n < 1:
            raise CliError("sizes must be positive")
        group = FiniteAbelianGroup((n,))
        f = random_signal(group, rng)

        def best(fn):
            fn(f)  # warm up caches (character tables, FFT plans)
            times = []
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                fn(f)
                times.append(time.perf_counter() - t0)
            return min(times)

        t_fast = best(fast_fn)
        if BENCH_GATE_MIN <= n <= DIRECT_BENCH_LIMIT:
            t_direct = best(direct_fn)
            ratio = t_direct / t_fast if t_fast > 0 else float("inf")
            print(f"{n:>5} {n*n:>8} {t_fast:>10.4f} {t_direct:>11.4f} {ratio:>8.1f}")
            if t_fast >= t_direct:
                ok = False
                print(f"note: fast path slower than direct at N={n}", file=sys.stderr)
        else:
            print(f"{n:>5} {n*n:>8} {t_fast:>10.4f} {'-':>11} {'-':>8}")
    return 0 if ok else 1


def cmd_dump(args) -> int:
    sig = read_qsig(args.input)
    grp = sig.group
    side = "dual" if isinstance(sig, QSpectrum) else "primal"
    print(f"# group={grp!r} side={side}")
    print("bin,x1,x2,w,x,y,z")
    flat = sig.flat()
    n = grp.order
    labels = [":".join(map(str, row)) for row in grp.coords_matrix.tolist()]
    for b in range(n * n):
        w, x, y, z = (repr(float(c)) for c in flat[b])
        print(f"{b},{labels[b // n]},{labels[b % n]},{w},{x},{y},{z}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qgft",
        description="Quaternion Fourier transforms on finite abelian groups.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    kinds = [k.value for k in TransformKind]

    def add_axes(p):
        p.add_argument(
            "--axes",
            nargs=8,
            type=float,
            metavar="R",
            help="custom axis pair as 8 floats: mu1 then mu2 components "
            "(w x y z each); both must be perpendicular unit pure-imaginary",
        )

    p = sub.add_parser("transform", help="forward transform of a primal QSIG file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--kind", choices=kinds, default="rqft")
    p.add_argument("--mode", choices=("fast", "direct"), default="fast")
    add_axes(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("inverse", help="inverse transform of a dual QSIG file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--kind", choices=kinds, default="rqft")
    p.add_argument("--mode", choices=("fast", "direct"), default="fast")
    add_axes(p)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("smooth", help="convolve with an approximate-identity kernel")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--family", choices=BUILTIN_FAMILIES, default="fejer")
    p.add_argument("--level", type=int, default=0)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("verify", help="run the randomized identity suite")
    p.add_argument("--group", required=True, help="group spec, e.g. 8 or 3x4")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None,
                   help="override every check tolerance")
    p.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    p.add_argument("--self-test-corrupt", action="store_true",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("img2q", help="square P6 PPM image to primal QSIG")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_img2q)

    p = sub.add_parser("q2img", help="primal QSIG to P6 PPM (clamped to [0,1])")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_q2img)

    p = sub.add_parser("spectrum", help="dual QSIG to log-magnitude grayscale PPM")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser(
        "bench",
        help="time fast vs direct evaluators",
        description="Time the fast and direct evaluators on Z_N x Z_N. For "
        f"{BENCH_GATE_MIN} <= N <= {DIRECT_BENCH_LIMIT} the direct one is timed "
        "too, and the command exits 1 if the fast path is not faster; other "
        "sizes print '-' for it.",
    )
    p.add_argument("--sizes", type=int, nargs="+", default=[16, 32, 64, 128, 256])
    p.add_argument("--kind", choices=kinds, default="rqft")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("dump", help="print a QSIG file as CSV")
    p.add_argument("input")
    p.set_defaults(func=cmd_dump)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an overflow is reported once, by the grid check below, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (CliError, QsigFormatError, PpmFormatError, OSError) as exc:
        print(f"qgft: error: {exc}", file=sys.stderr)
        return 2
    except _NonFiniteError as exc:  # inputs are finite, so the result overflowed
        print(f"qgft: error: the computation overflows float64: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
