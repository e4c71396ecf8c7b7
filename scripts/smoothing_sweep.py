#!/usr/bin/env python3
"""Smoothing-residual sweep: ||f * P_l - f||_2 per family and level.

Shows the spectral envelopes at work: the band-pass family reproduces the
signal exactly once its level covers the whole dual, while the triangular
and geometric envelopes shrink the residual monotonically.
"""

import argparse

import numpy as np

from qgft import (
    BUILTIN_FAMILIES,
    builtin_family,
    convergence_report,
    lp_norm,
    random_signal,
)
from qgft.cli import CliError, parse_group_spec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--group", default="8", help="group spec, e.g. 8 or 3x4")
    ap.add_argument("--lmax", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.lmax < 0:
        ap.error("--lmax must be >= 0")
    try:
        g = parse_group_spec(args.group)
    except CliError as exc:
        ap.error(str(exc))

    f = random_signal(g, np.random.default_rng(args.seed))
    nf = lp_norm(f, 2)
    print(f"group={g!r}  ||f||_2={nf:.4f}")
    header = "level " + " ".join(f"{name:>18}" for name in BUILTIN_FAMILIES)
    print(header)
    reports = {name: convergence_report(f, builtin_family(name), args.lmax)
               for name in BUILTIN_FAMILIES}
    for level in range(args.lmax + 1):
        row = " ".join(f"{reports[name][level] / nf:>18.3e}" for name in BUILTIN_FAMILIES)
        print(f"{level:>5} {row}")


if __name__ == "__main__":
    main()
