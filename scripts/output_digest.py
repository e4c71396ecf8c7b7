#!/usr/bin/env python3
"""One SHA-256 over the library's numerical outputs on fixed seeded inputs.

A refactor that should leave every result bit for bit as it was can be
checked by running this script on both trees and comparing the digests:

    PYTHONPATH=src python3 scripts/output_digest.py
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/output_digest.py

It hashes the twelve transform evaluators under the default and a random
axis pair on nine groups (all at or below ``signal.TINY_CORE_MAX``, so the
fast core and the whole-grid DFTs are matrix products), ``convolve``, the
smoothing functions for every built-in family, the energy identity and
the ``verify`` JSON report for three groups.  The smoothing functions and
the energy identity also run at order 33, above the switch, where their
DFTs are pocketfft calls rather than products.  The evaluators and
``convolve`` also run where the fast core is pocketfft, at orders 256, 288
and 315.  On the nine groups it also hashes every other public operation:
``transform_W``, ``transform_beta``, both kernel orders of
``multiplication_pairing`` and ``classical_dft_via_rqft`` under both axis
pairs, and ``reflect_conj``, ``translate``, ``lp_norm`` (p = 1, 2 and inf)
and ``inner_q``.  ``transform_W`` and ``transform_beta`` also run under both
axis pairs at orders 256, 288 and 315, whose payloads are larger than one
bin-map block.  Last, under ``file/`` labels, it hashes the file layer: the
bytes that ``write_qsig`` and ``write_ppm`` put on disk and what
``read_qsig`` and ``read_ppm`` give back, from the file and (labels
``…_stream``) from the same bytes sent through a pipe, for grids on Z_1,
Z_3 x Z_4 and Z_512 and for a 2x3 and a 32x32 image.  Under ``cli/spectrum/``
labels it hashes the PPM bytes that ``qgft spectrum`` renders, through
``cli.main``, for each of its branches: random spectra on Z_8 and Z_33, a
delta, a constant 1e308 and a random spectrum times 1e-170 (whose squared
magnitudes overflow and underflow) and zeros.  Last, under ``scalar_mul/``
labels, it hashes ``left_mul`` and ``right_mul`` by a random quaternion on
the nine groups and on the three whose payloads span several map blocks.
Only public names are used, so older trees hash the same way.

With ``--labels`` it first prints one ``label hash`` line per hashed output,
the verify reports included, so two trees' outputs can be compared label by
label (``diff`` the two listings) to name exactly what moved; the last line
is the same digest.
"""

import argparse
import hashlib
import os
import shutil
import tempfile
import threading

import numpy as np

import qgft
from qgft import (
    BUILTIN_FAMILIES,
    QSpectrum,
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
from qgft.cli import main as cli_main
from qgft.fileio import read_ppm, read_qsig, write_ppm, write_qsig

EVALUATORS = [f"{inv}{side}qft_{mode}" for mode in ("direct", "fast")
              for side in "rsl" for inv in ("", "i")]
GROUPS = [(1,), (5,), (8,), (3, 4), (2, 2, 3), (16,), (17,), (32,), (4, 8)]
# evaluators, convolve, transform_W and transform_beta: the pocketfft core, with
# payloads over several map blocks (an odd order's last block is short)
CORE_GROUPS = [(8, 32), (16, 18), (5, 7, 9)]
# smoothing and the energy identity: above signal.TINY_CORE_MAX their DFTs are pocketfft calls
FFT_SMOOTH_GROUPS = [(33,)]
VERIFY_RUNS = [((4,), 0), ((3, 4), 1), ((2, 5), 2)]
# the file layer: a header-sized file, a small one and an 8 MB one; images (height, width)
FILE_GROUPS = [(1,), (3, 4), (512,)]
FILE_IMAGES = [(2, 3), (32, 32)]
# qgft spectrum: each branch of its magnitude scaling, by label
SPECTRUM_CASES = {
    "Z8/random": ((8,), random_spectrum),
    "Z33/random": ((33,), random_spectrum),
    "Z8/delta": ((8,), lambda g, rng: QSpectrum.delta(g)),
    "Z8/overflow": ((8,), lambda g, rng: QSpectrum(g, np.full((8, 8, 4), 1e308))),
    "Z8/underflow": ((8,), lambda g, rng: random_spectrum(g, rng) * 1e-170),
    "Z8/zeros": ((8,), lambda g, rng: QSpectrum.zeros(g)),
}


def read_piped(read, path: str):
    """What ``read`` gives back for the file at ``path`` sent through a pipe."""
    r, w = os.pipe()

    def send() -> None:
        with open(path, "rb") as src, open(w, "wb") as dst:
            shutil.copyfileobj(src, dst)

    thread = threading.Thread(target=send)
    thread.start()
    try:
        return read(f"/dev/fd/{r}")
    finally:
        os.close(r)
        thread.join()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--labels", action="store_true",
                    help="print 'label hash' for each hashed output before the digest")
    labels = ap.parse_args().labels
    digest = hashlib.sha256()

    def update(label: str, *parts: bytes) -> None:
        for part in parts:
            digest.update(part)
        if labels:
            print(label, hashlib.sha256(b"".join(parts)).hexdigest())

    def add(label: str, data) -> None:
        arr = np.ascontiguousarray(data, dtype=np.float64)
        update(label, f"{label}:{arr.shape}".encode(), arr.tobytes())

    def add_kernels(g, f) -> None:  # smoothing, then the energy identity
        for family in map(builtin_family, BUILTIN_FAMILIES):
            add(f"smooth/{family.name}/{g!r}", smooth(f, family, 2).values)
            add(f"spatial_kernel/{family.name}/{g!r}", spatial_kernel(family, 1, g).values)
            add(f"convergence/{family.name}/{g!r}", convergence_report(f, family, 3))
        pairs = [(builtin_family(name), level) for name in BUILTIN_FAMILIES for level in (0, 2)]
        add(f"energy/{g!r}", energy_identity_pairs(f, pairs))

    rng = np.random.default_rng(20)
    for moduli in GROUPS + CORE_GROUPS:
        g = FiniteAbelianGroup(moduli)
        f, F = random_signal(g, rng), random_spectrum(g, rng)
        for axes_label, axes in (("default", qgft.DEFAULT_AXES), ("random", random_axis_pair(rng))):
            for name in EVALUATORS:
                x = F if name.startswith("i") else f
                add(f"{name}/{g!r}/{axes_label}", getattr(qgft, name)(x, axes).values)
            if moduli in CORE_GROUPS:
                add(f"transform_W/{g!r}/{axes_label}", transform_W(f, axes).values)
                add(f"transform_beta/{g!r}/{axes_label}", transform_beta(F, axes).values)
        add(f"convolve/{g!r}", convolve(f, random_signal(g, rng)).values)
        if moduli not in GROUPS:
            continue
        add_kernels(g, f)
    rng = np.random.default_rng(22)
    for moduli in FFT_SMOOTH_GROUPS:
        g = FiniteAbelianGroup(moduli)
        add_kernels(g, random_signal(g, rng))
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
        g = FiniteAbelianGroup(moduli)
        report = run_verification(g, trials=2, seed=seed)
        update(f"verify/{g!r}/seed={seed}", report.to_json().encode())
    rng = np.random.default_rng(23)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        for moduli in FILE_GROUPS:
            g = FiniteAbelianGroup(moduli)
            for grid in (random_signal(g, rng), random_spectrum(g, rng)):
                side = "dual" if isinstance(grid, QSpectrum) else "primal"
                write_qsig(path, grid)
                with open(path, "rb") as fh:
                    update(f"file/write_qsig/{g!r}/{side}", fh.read())
                back = read_qsig(path)
                add(f"file/read_qsig/{g!r}/{side}/{type(back).__name__}", back.values)
                back = read_piped(read_qsig, path)
                add(f"file/read_qsig_stream/{g!r}/{side}/{type(back).__name__}", back.values)
        for height, width in FILE_IMAGES:
            pixels = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
            write_ppm(path, pixels)
            with open(path, "rb") as fh:
                update(f"file/write_ppm/{width}x{height}", fh.read())
            w, h, back = read_ppm(path)
            update(f"file/read_ppm/{width}x{height}", b"%dx%d:" % (w, h), back.tobytes())
            w, h, back = read_piped(read_ppm, path)
            update(f"file/read_ppm_stream/{width}x{height}", b"%dx%d:" % (w, h), back.tobytes())
        rng = np.random.default_rng(24)
        image = os.path.join(tmp, "image")
        for label, (moduli, make) in SPECTRUM_CASES.items():
            write_qsig(path, make(FiniteAbelianGroup(moduli), rng))
            if cli_main(["spectrum", path, image]) != 0:
                raise SystemExit(f"qgft spectrum failed on {label}")
            with open(image, "rb") as fh:
                update(f"cli/spectrum/{label}", fh.read())
    rng = np.random.default_rng(25)
    for moduli in GROUPS + CORE_GROUPS:
        g = FiniteAbelianGroup(moduli)
        f, q = random_signal(g, rng), qgft.Quaternion(*rng.standard_normal(4))
        add(f"scalar_mul/left/{g!r}", f.left_mul(q).values)
        add(f"scalar_mul/right/{g!r}", f.right_mul(q).values)
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
