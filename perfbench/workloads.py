"""The three workloads: inputs made from the seed, ops, and their checks.

Each workload is a closed loop with one client that runs ``qgft`` commands
one after another through ``qgft.cli.main(argv)`` on real files.  An op is
one user-level job (one command, or a short pipeline of commands) followed
by the checks of its outputs; a cycle is the fixed list of ops the loop
repeats, so every run measures the same mix of jobs.

Inputs are written with the benchmark's own encoders, so the program under
test receives only files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

DEFAULT_AXES = (np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0]))

# Fixed inputs of the calibration kernels (see Workload.calibration).
CAL_P, CAL_Q = np.random.default_rng(0).standard_normal((2, 32, 32, 4))


@dataclass
class Op:
    """One job: commands run in order, then ``check`` returns problems.

    ``outputs`` are removed before the job starts, so a command that
    writes nothing cannot pass on a file left by an earlier cycle.
    """

    kind: str
    commands: list[tuple[str, list[str]]]
    outputs: list[str]
    check: Callable[[], list[str]]


def random_axes(rng: np.random.Generator):
    """A random perpendicular pair of unit pure-imaginary axes as --axes text.

    The floats are printed in fixed-point notation (argparse would read a
    leading ``-1e-05`` as an option) and parsed back, so the checks use
    exactly the axes the command received.
    """
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    u = rng.standard_normal(3)
    u -= (u @ v) * v
    u /= np.linalg.norm(u)
    text = [f"{c:.17f}" for c in (0.0, *v, 0.0, *u)]
    vals = np.array([float(t) for t in text])
    return text, (vals[:4], vals[4:])


class Workload:
    """Base: subclasses set the sizes and build inputs and ops."""

    name = ""
    floor_order = 0  # |G| of the two-fft2 floor timed in traced runs
    trace_cycles = 1  # fixed cycles of a traced run, so counts repeat exactly
    cal_ref_s = 1.8e-3  # time of ``calibration`` at the reference speed

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def calibration(self) -> None:
        """Fixed work like the workload's hot path, owned by the benchmark.

        Its time tracks how fast the host runs this kind of work right now;
        run.py scales op times by it.  Here: small quaternion products and
        sums, the inner loop of ``convolve`` and the direct evaluators.
        """
        for _ in range(20):
            checks.qmul(CAL_P, CAL_Q).sum(axis=(0, 1))

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """Untimed ops run once before timing; by default the first cycle."""
        return self.cycle(0)


class LargeFiles(Workload):
    """8 MB QSIG files: every fast transform and inverse, plus the image pipeline.

    Every op is one command, so the latency samples are commands; the
    512x512 image pipeline is four consecutive ops, each checked.
    """

    name = "large-files"
    floor_order = 512
    trace_cycles = 2
    cal_ref_s = 46e-3
    GROUPS = {"z512": (512,), "z16x32": (16, 32)}
    SPOT_BINS = 3

    def calibration(self) -> None:
        """A frozen miniature of one transform command on an 8 MB file:
        write and read the file, decode, split into two complex planes,
        two fft2, join, check finiteness and encode."""
        path = self.path("calibration.qsig")
        with open(path, "wb") as fh:
            fh.write(self.cal_qsig)
        g = checks.read_qsig(path)
        a = np.fft.fft2(g.values[..., 0] + 1j * g.values[..., 1])
        b = np.fft.fft2(g.values[..., 2] + 1j * g.values[..., 3])
        out = np.stack([a.real, a.imag, b.real, b.imag], axis=-1)
        if np.isfinite(out).all():
            checks.encode_qsig(g.moduli, checks.SIDE_DUAL, out)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.signals = {}
        for tag, moduli in self.GROUPS.items():
            n = int(np.prod(moduli))
            f = rng.standard_normal((n, n, 4))
            self.signals[tag] = (moduli, f)
            checks.write_bytes(self.path(f"{tag}.qsig"),
                               checks.encode_qsig(moduli, checks.SIDE_PRIMAL, f))
        pixels = rng.integers(0, 256, (512, 512, 3), dtype=np.uint8)
        self.image = checks.encode_ppm(pixels)
        self.image_signal = ((512,), checks.image_values(pixels))
        checks.write_bytes(self.path("img.ppm"), self.image)
        text, axes = random_axes(rng)
        self.axes = {"default": ([], DEFAULT_AXES), "random": (["--axes", *text], axes)}
        self.cal_qsig = checks.encode_qsig(
            (512,), checks.SIDE_PRIMAL, np.random.default_rng(0).standard_normal((512, 512, 4)))

    def _transform(self, tag, kind, axes_tag, cycle, op_kind="transform"):
        """Forward transform of ``{tag}.qsig`` to ``{tag}.{axes}.{kind}.qsig``."""
        moduli, f = self.image_signal if tag == "img" else self.signals[tag]
        axes_argv, (mu1, mu2) = self.axes[axes_tag]
        out = self.path(f"{tag}.{axes_tag}.{kind}.qsig")
        argv = ["transform", self.path(f"{tag}.qsig"), out, "--kind", kind, *axes_argv]
        key = sum(map(ord, f"{tag}{kind}{axes_tag}"))
        bins = np.random.default_rng([self.seed, cycle, key]).integers(
            0, f.shape[0], (self.SPOT_BINS, 2))

        def check():
            return checks.check_forward(kind, f, moduli, checks.read_qsig(out), mu1, mu2,
                                        [tuple(map(int, b)) for b in bins])

        return Op(op_kind, [("transform", argv)], [out], check)

    def _inverse(self, tag, kind, axes_tag, op_kind="inverse"):
        """Inverse of the matching forward output; must give the signal back."""
        moduli, f = self.image_signal if tag == "img" else self.signals[tag]
        src = self.path(f"{tag}.{axes_tag}.{kind}.qsig")
        out = self.path(f"{tag}.{axes_tag}.{kind}.back.qsig")
        argv = ["inverse", src, out, "--kind", kind, *self.axes[axes_tag][0]]
        return Op(op_kind, [("inverse", argv)], [out],
                  lambda: checks.check_round_trip(f, moduli, checks.read_qsig(out)))

    def _pipeline(self, cycle) -> list[Op]:
        """img2q -> transform sqft -> inverse sqft -> q2img on the 512x512 image."""
        p = self.path
        moduli, f = self.image_signal
        back, ppm = p("img.default.sqft.back.qsig"), p("img.back.ppm")
        return [
            Op("pipeline.img2q", [("img2q", ["img2q", p("img.ppm"), p("img.qsig")])],
               [p("img.qsig")],
               lambda: checks.check_equal(f, moduli, checks.read_qsig(p("img.qsig")))),
            self._transform("img", "sqft", "default", cycle, "pipeline.transform"),
            self._inverse("img", "sqft", "default", "pipeline.inverse"),
            Op("pipeline.q2img", [("q2img", ["q2img", back, ppm])], [ppm],
               lambda: checks.check_same_bytes(self.image, ppm)),
        ]

    def cycle(self, index: int) -> list[Op]:
        ops = []
        for axes_tag in self.axes:
            for tag in self.GROUPS:
                ops += [self._transform(tag, k, axes_tag, index) for k in ("rqft", "sqft", "lqft")]
                ops += [self._inverse(tag, k, axes_tag) for k in ("rqft", "sqft")]
        return ops + self._pipeline(index)

    def warmup(self) -> list[Op]:
        """One op of each command kind, over both groups' FFT lengths."""
        ops = [self._transform("z512", k, "default", 0) for k in ("rqft", "sqft", "lqft")]
        ops += [self._inverse("z512", k, "default") for k in ("rqft", "sqft")]
        return ops + [self._transform("z16x32", "rqft", "random", 0)] + self._pipeline(0)


class SmoothImages(Workload):
    """32x32 P6 images: img2q -> smooth -> q2img, one job per kernel family."""

    name = "smooth-images"
    floor_order = 32
    trace_cycles = 10
    SIZE = 32
    IMAGES = 8
    LEVEL = 3
    FAMILIES = ("dirichlet", "fejer", "poisson_geometric")

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.pixels = []
        for k in range(self.IMAGES):
            px = rng.integers(0, 256, (self.SIZE, self.SIZE, 3), dtype=np.uint8)
            self.pixels.append(px)
            checks.write_bytes(self.path(f"img{k}.ppm"), checks.encode_ppm(px))

    def _job(self, k: int, family: str) -> Op:
        p = self.path
        sig, out, ppm = p(f"img{k}.qsig"), p(f"img{k}.{family}.qsig"), p(f"img{k}.{family}.ppm")
        commands = [
            ("img2q", ["img2q", p(f"img{k}.ppm"), sig]),
            ("smooth", ["smooth", sig, out, "--family", family, "--level", str(self.LEVEL)]),
            ("q2img", ["q2img", out, ppm]),
        ]
        f = checks.image_values(self.pixels[k])

        def check():
            smoothed = checks.read_qsig(out)
            problems = checks.check_smooth(f, self.SIZE, family, self.LEVEL, smoothed)
            if not problems:
                expected = checks.encode_ppm(checks.image_pixels(smoothed.values))
                problems = checks.check_same_bytes(expected, ppm)
            return problems

        return Op("smooth-job", commands, [sig, out, ppm], check)

    def cycle(self, index: int) -> list[Op]:
        return [self._job(index % self.IMAGES, fam) for fam in self.FAMILIES]


class DeskVerify(Workload):
    """``qgft verify`` on Z_3 x Z_4 with one trial, a fresh seed per op."""

    name = "desk-verify"
    floor_order = 12
    trace_cycles = 12
    GROUP = "3x4"
    TRIALS = 1

    def setup(self) -> None:
        self.seeds = np.random.default_rng([self.seed, 3]).integers(0, 2**31, 4096)

    def cycle(self, index: int) -> list[Op]:
        report = self.path("verify.json")
        seed = int(self.seeds[index % len(self.seeds)])
        argv = ["verify", "--group", self.GROUP, "--trials", str(self.TRIALS),
                "--seed", str(seed), "--json", report]
        return [Op("verify", [("verify", argv)], [report],
                   lambda: checks.check_verify_report(report, seed))]


WORKLOADS = {w.name: w for w in (LargeFiles, SmoothImages, DeskVerify)}
