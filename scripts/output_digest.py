#!/usr/bin/env python3
"""One SHA-256 over the library's numerical outputs on fixed seeded inputs.

A refactor that should leave every result bit for bit as it was can be
checked by running this script on both trees and comparing the digests:

    PYTHONPATH=src python3 scripts/output_digest.py
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/output_digest.py

It hashes the twelve transform evaluators under the default and a random
axis pair on nine groups (the DFT-matrix and the pocketfft paths both),
``convolve``, the smoothing functions for every built-in family, the
energy identity and the ``verify`` JSON report for three groups.  The
evaluators and ``convolve`` also run on two groups of order 256 and 315,
where their passes run on two threads, the latter in uneven halves.  On the nine groups it also hashes
every other public operation: ``transform_W``, ``transform_beta``, both
kernel orders of ``multiplication_pairing`` and ``classical_dft_via_rqft``
under both axis pairs, and ``reflect_conj``, ``translate``, ``lp_norm``
(p = 1, 2 and inf) and ``inner_q``.  Only public names are used, so
older trees hash the same way.
"""

import hashlib

import numpy as np

import qgft
from qgft import (
    BUILTIN_FAMILIES,
    FiniteAbelianGroup,
    builtin_family,
    classical_dft_via_rqft,
    convergence_report,
    convolve,
    energy_identity_pairs,
    inner_q,
    lp_norm,
    multiplication_pairing,
    random_axis_pair,
    random_signal,
    random_spectrum,
    reflect_conj,
    run_verification,
    smooth,
    spatial_kernel,
    transform_W,
    transform_beta,
    translate,
)

EVALUATORS = [f"{inv}{side}qft_{mode}" for mode in ("direct", "fast")
              for side in "rsl" for inv in ("", "i")]
GROUPS = [(1,), (5,), (8,), (3, 4), (2, 2, 3), (16,), (17,), (32,), (4, 8)]
THREADED_GROUPS = [(8, 32), (5, 7, 9)]  # evaluators and convolve only; odd: uneven halves
VERIFY_RUNS = [((4,), 0), ((3, 4), 1), ((2, 5), 2)]


def main() -> None:
    digest = hashlib.sha256()

    def add(label: str, data) -> None:
        arr = np.ascontiguousarray(data, dtype=np.float64)
        digest.update(f"{label}:{arr.shape}".encode())
        digest.update(arr.tobytes())

    rng = np.random.default_rng(20)
    for moduli in GROUPS + THREADED_GROUPS:
        g = FiniteAbelianGroup(moduli)
        f, F = random_signal(g, rng), random_spectrum(g, rng)
        for axes_label, axes in (("default", qgft.DEFAULT_AXES), ("random", random_axis_pair(rng))):
            for name in EVALUATORS:
                x = F if name.startswith("i") else f
                add(f"{name}/{g!r}/{axes_label}", getattr(qgft, name)(x, axes).values)
        add(f"convolve/{g!r}", convolve(f, random_signal(g, rng)).values)
        if moduli in THREADED_GROUPS:
            continue
        for family in map(builtin_family, BUILTIN_FAMILIES):
            add(f"smooth/{family.name}/{g!r}", smooth(f, family, 2).values)
            add(f"spatial_kernel/{family.name}/{g!r}", spatial_kernel(family, 1, g).values)
            add(f"convergence/{family.name}/{g!r}", convergence_report(f, family, 3))
        pairs = [(builtin_family(name), level) for name in BUILTIN_FAMILIES for level in (0, 2)]
        add(f"energy/{g!r}", energy_identity_pairs(f, pairs))
    rng = np.random.default_rng(21)
    for moduli in GROUPS:
        g = FiniteAbelianGroup(moduli)
        f, h, F = random_signal(g, rng), random_signal(g, rng), random_spectrum(g, rng)
        shift = tuple(g.element_at(int(i)) for i in rng.integers(g.order, size=2))
        add(f"reflect_conj/{g!r}", reflect_conj(f).values)
        add(f"translate/{g!r}", translate(f, shift).values)
        add(f"lp_norm/{g!r}", [lp_norm(x, p) for x in (f, F) for p in (1, 2, np.inf)])
        add(f"inner_q/{g!r}", [inner_q(x, y).to_array() for x, y in ((f, h), (F, F))])
        z = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
        for axes_label, axes in (("default", qgft.DEFAULT_AXES), ("random", random_axis_pair(rng))):
            add(f"transform_W/{g!r}/{axes_label}", transform_W(f, axes).values)
            add(f"transform_beta/{g!r}/{axes_label}", transform_beta(F, axes).values)
            for order in ("mu1-mu2", "mu2-mu1"):
                sides = multiplication_pairing(f, F, axes, order)
                add(f"pairing/{order}/{g!r}/{axes_label}", [q.to_array() for q in sides])
            dft = classical_dft_via_rqft(z, g, axes)
            add(f"classical_dft/{g!r}/{axes_label}", [dft.real, dft.imag])
    for moduli, seed in VERIFY_RUNS:
        report = run_verification(FiniteAbelianGroup(moduli), trials=2, seed=seed)
        digest.update(report.to_json().encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
