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
file-format or path error, an order whose payload no array can hold, or a
host out of memory.  Output files are written atomically; no partial file
survives a failure.

Each command's parser holds only its own subparser and is built once per
process; help, usage and error text are those of the full parser, formatted
when they are printed.
"""

from __future__ import annotations

import argparse
import functools
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
from .qft import FORWARD_DIRECT, FORWARD_FAST, INVERSE_DIRECT, INVERSE_FAST, TransformKind
from .quat import DEFAULT_AXES, AxisPair, Quaternion
from .signal import QSignal, QSpectrum, _NonFiniteError, lp_norm, random_signal
from .verify import run_verification

__all__ = ["main"]


class CliError(Exception):
    """Usage or format problem; reported on stderr with exit status 2."""


def _check_order(order: int) -> None:
    """Reject an order whose ``(n, n, 4)`` float64 payload no array can hold."""
    nbytes = order * order * 4 * 8
    if nbytes > sys.maxsize:
        raise CliError(
            f"order {order} is too large: its payload of {nbytes} bytes "
            f"exceeds the largest array size, {sys.maxsize} bytes"
        )


def parse_group_spec(spec: str) -> FiniteAbelianGroup:
    try:
        moduli = tuple(int(tok) for tok in spec.lower().split("x"))
        group = FiniteAbelianGroup(moduli)
    except ValueError as exc:
        raise CliError(f"bad group spec {spec!r}: {exc}") from exc
    _check_order(group.order)
    return group


def parse_axes(values) -> AxisPair:
    if values is None:
        return DEFAULT_AXES
    try:
        return AxisPair(Quaternion(*values[:4]), Quaternion(*values[4:]))
    except ValueError as exc:
        raise CliError(f"bad axes: {exc}") from exc


def _load(path: str, cls):
    sig = read_qsig(path)
    if not isinstance(sig, cls):
        want, found = ("primal", "dual") if cls is QSignal else ("dual", "primal")
        raise CliError(f"{path}: expected a {want}-side file, found {found} side")
    return sig


def cmd_transform(args) -> int:
    """``transform`` and ``inverse``: the registry entry for direction, mode and kind."""
    if args.command == "transform":
        x, fast, direct = _load(args.input, QSignal), FORWARD_FAST, FORWARD_DIRECT
    else:
        x, fast, direct = _load(args.input, QSpectrum), INVERSE_FAST, INVERSE_DIRECT
    table = fast if args.mode == "fast" else direct
    write_qsig(args.output, table[TransformKind(args.kind)](x, parse_axes(args.axes)))
    return 0


def cmd_smooth(args) -> int:
    f = _load(args.input, QSignal)
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
    if args.seed < 0:
        raise CliError("--seed must be >= 0")
    if args.tol is not None and not args.tol >= 0:
        raise CliError("--tol must be a number >= 0")
    report = run_verification(group, trials=args.trials, seed=args.seed, tol=args.tol)
    print(report.format_text())
    if args.json:
        atomic_write_bytes(args.json, report.to_json().encode())
    return 0 if report.all_passed else 1


def cmd_img2q(args) -> int:
    def square(width, height):  # from the header, before the raster is read
        if width != height:
            raise CliError(f"{args.input}: image is {width}x{height}; the domain must "
                           "be G x G, so only square images are accepted")

    width, _, pixels = read_ppm(args.input, _accept=square)
    group = FiniteAbelianGroup((width,))
    vals = np.empty((width, width, 4))
    vals[..., 0] = 0.0
    np.divide(pixels, 255.0, out=vals[..., 1:])  # rows are the first variable
    write_qsig(args.output, QSignal._own(group, vals))
    return 0


def cmd_q2img(args) -> int:
    f = _load(args.input, QSignal)
    rgb = np.clip(f.values[..., 1:], 0.0, 1.0)  # the one float temporary
    rgb *= 255.0
    rgb += 0.5
    np.floor(rgb, out=rgb)  # round half-up
    write_ppm(args.output, rgb.astype(np.uint8))
    return 0


def cmd_spectrum(args) -> int:
    F = _load(args.input, QSpectrum)
    n = F.group.order
    mag = np.sqrt((F.values**2).sum(axis=-1))
    peak = float(mag.max())
    if 1e-150 < peak < np.inf:  # the squares are normal floats
        img = np.log1p(mag) / np.log1p(peak) * 255.0
    elif F.values.any():  # the squares overflowed or lost bits to underflow;
        # they are taken again on values scaled by 2**-e, where |values| < 2**e
        e = int(np.frexp(np.abs(F.values).max())[1])
        m = np.sqrt((np.ldexp(F.values, -e) ** 2).sum(axis=-1))
        if peak == np.inf:  # log1p(2**e * m) = e*log(2) + log(2**-e + m), all finite
            img = e * np.log(2.0) + np.log(np.ldexp(1.0, -e) + m)
        else:  # log1p(x) = x for x this small
            img = m
        img *= 255.0 / img.max()
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


def _best_times(fns, x, repeats: int) -> list[float]:
    """Each function's fastest of ``repeats`` calls on ``x`` after a warm-up
    call, interleaved so a brief slowdown of the host hits all alike."""
    for fn in fns:
        fn(x)
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for k, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn(x)
            best[k] = min(best[k], time.perf_counter() - t0)
    return best


def cmd_bench(args) -> int:
    kind = TransformKind(args.kind)
    fast_fn, direct_fn = FORWARD_FAST[kind], FORWARD_DIRECT[kind]
    if args.repeats < 1:
        raise CliError("--repeats must be >= 1")
    if args.seed < 0:
        raise CliError("--seed must be >= 0")
    for n in args.sizes:
        if n < 1:
            raise CliError("sizes must be positive")
        _check_order(n)
    rng = np.random.default_rng(args.seed)
    print(f"{'N':>5} {'bins':>8} {'fast [s]':>10} {'direct [s]':>11} {'speedup':>8}")
    ok = True
    for n in args.sizes:
        group = FiniteAbelianGroup((n,))
        f = random_signal(group, rng)
        gated = BENCH_GATE_MIN <= n <= DIRECT_BENCH_LIMIT
        best = _best_times((fast_fn, direct_fn) if gated else (fast_fn,), f, args.repeats)
        t_fast = best[0]
        if gated:
            t_direct = best[1]
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


_KINDS = [k.value for k in TransformKind]


def _io_args(p) -> None:
    p.add_argument("input")
    p.add_argument("output")


def _transform_args(p) -> None:
    _io_args(p)
    p.add_argument("--kind", choices=_KINDS, default="rqft")
    p.add_argument("--mode", choices=("fast", "direct"), default="fast")
    p.add_argument(
        "--axes",
        nargs=8,
        type=float,
        metavar="R",
        help="custom axis pair as 8 floats: mu1 then mu2 components "
        "(w x y z each); both must be perpendicular unit pure-imaginary",
    )


def _smooth_args(p) -> None:
    _io_args(p)
    p.add_argument("--family", choices=BUILTIN_FAMILIES, default="fejer")
    p.add_argument("--level", type=int, default=0)


def _verify_args(p) -> None:
    p.add_argument("--group", required=True, help="group spec, e.g. 8 or 3x4")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None,
                   help="override every check tolerance")
    p.add_argument("--json", metavar="PATH", help="also write the report as JSON")


def _bench_args(p) -> None:
    p.add_argument("--sizes", type=int, nargs="+", default=(16, 32, 64, 128, 256))
    p.add_argument("--kind", choices=_KINDS, default="rqft")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)


def _dump_args(p) -> None:
    p.add_argument("input")


# name -> (handler, argument builder, add_parser keywords), in help order
COMMANDS = {
    "transform": (cmd_transform, _transform_args,
                  {"help": "forward transform of a primal QSIG file"}),
    "inverse": (cmd_transform, _transform_args,
                {"help": "inverse transform of a dual QSIG file"}),
    "smooth": (cmd_smooth, _smooth_args,
               {"help": "convolve with an approximate-identity kernel"}),
    "verify": (cmd_verify, _verify_args, {"help": "run the randomized identity suite"}),
    "img2q": (cmd_img2q, _io_args, {"help": "square P6 PPM image to primal QSIG"}),
    "q2img": (cmd_q2img, _io_args,
              {"help": "primal QSIG to P6 PPM (clamped to [0,1])"}),
    "spectrum": (cmd_spectrum, _io_args,
                 {"help": "dual QSIG to log-magnitude grayscale PPM"}),
    "bench": (cmd_bench, _bench_args, {
        "help": "time fast vs direct evaluators",
        "description": "Time the fast and direct evaluators on Z_N x Z_N. For "
        f"{BENCH_GATE_MIN} <= N <= {DIRECT_BENCH_LIMIT} the direct one is timed "
        "too, and the command exits 1 if the fast path is not faster; other "
        "sizes print '-' for it.",
    }),
    "dump": (cmd_dump, _dump_args, {"help": "print a QSIG file as CSV"}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``qgft`` parser: for a subcommand name, with only that subparser;
    either way a given argv parses to the same namespace, help and errors."""
    return _parser(command if command in COMMANDS else None)


@functools.cache  # one per command plus the full one, shared: callers must not change it
def _parser(command: str | None) -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qgft",
        description="Quaternion Fourier transforms on finite abelian groups.",
    )
    names = [command] if command else list(COMMANDS)
    sub = top.add_subparsers(
        dest="command",
        required=True,
        # one subparser, but the top usage still lists every choice
        metavar="{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None,
    )
    for name in names:
        handler, add_arguments, parser_kwargs = COMMANDS[name]
        p = sub.add_parser(name, **parser_kwargs)
        add_arguments(p)
        p.set_defaults(func=handler)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
    except MemoryError as exc:  # an accepted order can still outgrow this host
        print(f"qgft: error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
