#!/usr/bin/env python3
"""The margin of the ``qgft bench`` speed gate, over many repeats.

``tests/test_acceptance.py::test_fast_path_speed`` runs ``qgft bench --sizes
16 32 256 --repeats 2``, which fails when the fast transform is not faster
than the direct one at N=16 or N=32.  This script times that gate the same
way (one warm-up call, then two interleaved timed calls of each side and
each side's minimum, through the command's own timing helper) ``--repeats``
times in one process, and prints per N the median, the 1st percentile and
the minimum of direct/fast, and how many repeats the gate would have failed:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/gate_margin.py --repeats 300

Each repeat draws a fresh signal.  The figures vary with the host's load,
so compare two trees only within one session, with their runs interleaved.
The medians also move by about 0.3 with the size of the process environment
alone (one BLAS thread, N=16: 3.65-3.71 with no padding, 3.44-3.49 with a
64-byte or larger padding variable), which is more than the gaps between
trees; so compare trees over several environment sizes, or time the two
trees' evaluators paired in one process.
"""

import argparse

import numpy as np

from qgft import FiniteAbelianGroup, TransformKind, random_signal
from qgft.cli import _best_times
from qgft.qft import FORWARD_DIRECT, FORWARD_FAST

SIZES = (16, 32)  # the gated sizes of the acceptance test's command
GATE_REPEATS = 2  # its --repeats


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=300)
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    # ``qgft bench``'s default kind and seed
    fns = (FORWARD_FAST[TransformKind.RIGHT], FORWARD_DIRECT[TransformKind.RIGHT])
    rng = np.random.default_rng(0)
    ratios = {n: [] for n in SIZES}
    for _ in range(args.repeats):
        for n in SIZES:
            f = random_signal(FiniteAbelianGroup((n,)), rng)
            t_fast, t_direct = _best_times(fns, f, GATE_REPEATS)
            ratios[n].append(t_direct / t_fast)
    for n, r in ratios.items():
        r = np.array(r)
        print(f"N={n:<3} direct/fast median {np.median(r):5.2f}  p1 {np.percentile(r, 1):5.2f}"
              f"  min {r.min():5.2f}  failures {int((r <= 1.0).sum())}/{r.size}")


if __name__ == "__main__":
    main()
