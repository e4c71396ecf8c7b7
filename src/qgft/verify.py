"""Randomized verification harness behind ``qgft verify``.

Checks every identity the library promises on seeded random inputs; same
seed and arguments, same report.  Most checks are one of two harness steps:
``agree`` (two maps agree on a fresh random input) or ``isometry`` (a map
keeps the 2-norm).  Inversion: the ``*-inversion`` and ``rqft-unitary-onto``
checks; Plancherel: ``plancherel-*`` and the ``*parseval*`` checks; the
RQFT/SQFT relations: ``sqft-reflection-relation``, ``sqft-equals-rqft-*``,
``isqft-reflection-identity`` and ``adjoint-pairing``; convolution:
``convolution-defining-sum`` at sampled output points.  Meant for desk-scale
groups: these use the direct evaluators, O(|G|^3) time per stage.  For as
long as a run lasts, its defining sums share their stage matrices (see
``qft._defining_sum``); outside a run every oracle call builds its own.  The
checks look the evaluators up by module name when they run, so the tests show
the suite's power by substituting a faulty evaluator and pinning what then
fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels as kmod
from .group import FiniteAbelianGroup, character_table
from .qft import (
    FORWARD_DIRECT,
    FORWARD_FAST,
    INVERSE_DIRECT,
    INVERSE_FAST,
    TransformKind,
    _stage_memo,
    classical_dft_via_rqft,
    irqft_direct,
    isqft_direct,
    lqft_direct,
    multiplication_pairing,
    rqft_direct,
    rqft_fast,
    sqft_direct,
)
from .quat import DEFAULT_AXES, Quaternion, qabs, qmul, random_axis_pair
from .signal import (
    QSignal,
    convolve,
    inner_q,
    inner_real,
    lp_norm,
    random_signal,
    random_spectrum,
    transform_W,
    translate,
)

__all__ = ["CheckResult", "VerifyReport", "run_verification"]


@dataclass
class CheckResult:
    name: str
    group: str
    axes: str
    trials: int
    max_error: float
    tolerance: float
    passed: bool
    skipped: bool = False
    note: str = ""


@dataclass
class VerifyReport:
    seed: int
    group: str
    trials: int
    tol_override: float | None
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "group": self.group,
            "trials": self.trials,
            "tol_override": self.tol_override,
            "passed": self.all_passed,
            "checks": [dict(vars(c)) for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def format_text(self) -> str:
        lines = [
            f"qgft verification report: group={self.group} trials={self.trials} "
            f"seed={self.seed} tol-override="
            + (f"{self.tol_override:g}" if self.tol_override is not None else "none")
        ]
        for c in self.checks:
            status = "SKIP" if c.skipped else ("PASS" if c.passed else "FAIL")
            line = (
                f"[{status}] {c.name:<36} axes={c.axes:<9} trials={c.trials:<3} "
                f"max_err={c.max_error:9.3e} tol={c.tolerance:9.3e}"
            )
            if c.note:
                line += f"  ({c.note})"
            lines.append(line)
        failed = [c.name for c in self.checks if not (c.passed or c.skipped)]
        skipped = sum(1 for c in self.checks if c.skipped)
        if failed:
            lines.append(f"result: FAIL ({len(failed)} failed: {', '.join(failed)})")
        else:
            lines.append(
                f"result: PASS ({len(self.checks)} checks, {skipped} skipped)"
            )
        return "\n".join(lines)


def _rel(err: float, scale: float) -> float:
    return err / scale if scale > 0 else err


def _plane_scalar(rng: np.random.Generator, axis) -> Quaternion:
    """Random element of the commutative plane span{1, axis}."""
    a, b = rng.standard_normal(2)
    return Quaternion(a) + b * axis


def _even_first(group, rng) -> QSignal:
    """Random signal that is even in the first variable."""
    v = random_signal(group, rng).values
    return QSignal(group, 0.5 * (v + v[group.neg_perm]))


def _plane_valued(group, rng) -> QSignal:
    """Random signal valued in the commutative plane span{1, i}."""
    n = group.order
    comps = np.zeros((n, n, 4))
    comps[..., :2] = rng.standard_normal((n, n, 2))
    return QSignal(group, comps)


class _Harness:
    def __init__(self, group, trials, seed, tol_override):
        self.group = group
        self.trials = trials
        self.rng = np.random.default_rng(seed)
        self.tol_override = tol_override
        self.report = VerifyReport(
            seed=seed, group=repr(group), trials=trials, tol_override=tol_override
        )

    def run(self, name, axes_label, tol, fn, note="", trials=None):
        """Run ``fn() -> error [, note]`` ``trials`` (default: all) times."""
        trials = self.trials if trials is None else trials
        tol = self.tol_override if self.tol_override is not None else tol
        if trials == 0:
            self.report.checks.append(
                CheckResult(name, repr(self.group), axes_label, 0, 0.0, tol,
                            passed=True, skipped=True, note="skipped: trials=0")
            )
            return
        max_err = 0.0
        notes = [note] if note else []
        for _ in range(trials):
            out = fn()
            if isinstance(out, tuple):
                err, extra = out
                if extra and extra not in notes:
                    notes.append(extra)
            else:
                err = out
            max_err = max(max_err, float(err))
        self.report.checks.append(
            CheckResult(name, repr(self.group), axes_label, trials,
                        max_err, tol, passed=max_err <= tol, note="; ".join(notes))
        )

    def agree(self, name, axes_label, tol, make, lhs, rhs=lambda x: x, note=""):
        """Check ``lhs(x) == rhs(x)`` for ``x = make(group, rng)``, relative to ``x``."""
        def err():
            x = make(self.group, self.rng)
            return _rel(lp_norm(lhs(x) - rhs(x), 2), lp_norm(x, 2))

        self.run(name, axes_label, tol, err, note)

    def isometry(self, name, axes_label, tol, op):
        """Check ``||op f||_2 == ||f||_2`` for a random signal ``f``, relative to ``f``."""
        def err():
            f = random_signal(self.group, self.rng)
            return _rel(abs(lp_norm(op(f), 2) - lp_norm(f, 2)), lp_norm(f, 2))

        self.run(name, axes_label, tol, err)


def run_verification(
    group: FiniteAbelianGroup,
    trials: int = 25,
    seed: int = 0,
    tol: float | None = None,
) -> VerifyReport:
    """Run the whole identity suite on ``group`` and return the report.

    The run's defining sums share their stage matrices: the memo is opened
    here and ends with the run, also when a check raises.
    """
    with _stage_memo():
        return _run_checks(group, trials, seed, tol)


def _run_checks(group, trials, seed, tol) -> VerifyReport:
    h = _Harness(group, trials, seed, tol)
    rng = h.rng
    g = group
    # random variants are drawn up front so every check is listed (as
    # skipped when trials=0) and the report stays a pure function of seed
    axes_variants = [("default", DEFAULT_AXES)] + [
        (f"random-{k}", random_axis_pair(rng)) for k in (1, 2)
    ]

    # --- character machinery ------------------------------------------------
    def character_orthogonality():
        if g.order == 1:
            return 0.0
        k1 = character_table(g, DEFAULT_AXES.mu1)
        u = int(rng.integers(1, g.order))
        return float(qabs(k1[u].sum(axis=0)).max()) / g.order

    h.run("character-orthogonality", "default", 1e-9, character_orthogonality)

    # --- signal-level identities ---------------------------------------------
    for label, axes in axes_variants:
        def reflection_isometry():
            f = random_signal(g, rng)
            gg = random_signal(g, rng)
            wf, wg = transform_W(f, axes), transform_W(gg, axes)
            scale = lp_norm(f, 2) * lp_norm(gg, 2)
            e1 = abs(inner_real(wf, wg) - inner_real(f, gg))
            e2 = abs(lp_norm(wf, 2) - lp_norm(f, 2))
            return max(_rel(e1, scale), _rel(e2, lp_norm(f, 2)))

        h.run("reflection-isometry", label, 1e-10, reflection_isometry)

        def reflection_slice_pairing():
            f = random_signal(g, rng)
            gg = random_signal(g, rng)
            lhs = (axes.mu1 * inner_q(f, gg)).scalar_part()
            rhs = (axes.mu1 * inner_q(transform_W(f, axes), transform_W(gg, axes))).scalar_part()
            return _rel(abs(lhs - rhs), lp_norm(f, 2) * lp_norm(gg, 2))

        h.run("reflection-slice-pairing", label, 1e-10, reflection_slice_pairing)

    def reflection_plane_linearity():
        f = random_signal(g, rng)
        z = _plane_scalar(rng, DEFAULT_AXES.mu1)
        d = transform_W(f.left_mul(z)) - transform_W(f).left_mul(z)
        return _rel(lp_norm(d, 2), lp_norm(f, 2) * z.norm())

    h.run("reflection-plane-linearity", "default", 1e-12, reflection_plane_linearity)

    h.agree("reflection-involution", "default", 1e-12, random_signal,
            lambda f: transform_W(transform_W(f)))

    def translation_isometry():
        f = random_signal(g, rng)
        y = (g.element_at(int(rng.integers(g.order))),
             g.element_at(int(rng.integers(g.order))))
        shifted = translate(f, y)
        e1 = abs(lp_norm(shifted, 2) - lp_norm(f, 2))
        back = translate(shifted, (-y[0], -y[1]))
        e2 = lp_norm(back - f, np.inf)
        return _rel(max(e1, e2), lp_norm(f, 2))

    h.run("translation-isometry", "default", 1e-12, translation_isometry)

    def convolution_left_linearity():
        f = random_signal(g, rng)
        gg = random_signal(g, rng)
        q = Quaternion(*rng.standard_normal(4))
        d = convolve(f.left_mul(q), gg) - convolve(f, gg).left_mul(q)
        return _rel(lp_norm(d, 2), lp_norm(f, 2) * lp_norm(gg, 2) * q.norm())

    h.run("convolution-left-linearity", "default", 1e-10, convolution_left_linearity)

    def component_norm_identities():
        f = random_signal(g, rng)
        comp_inf = sum(float(np.abs(f.values[..., m]).max()) for m in range(4))
        if lp_norm(f, np.inf) > 2.0 * comp_inf * (1 + 1e-12):
            return 1.0
        comp_sq = sum(float((f.values[..., m] ** 2).sum()) * f.weight for m in range(4))
        return _rel(abs(lp_norm(f, 2) ** 2 - comp_sq), lp_norm(f, 2) ** 2)

    h.run("component-norm-identities", "default", 1e-12, component_norm_identities)

    # --- transform identities --------------------------------------------------
    for label, axes in axes_variants:
        h.agree("rqft-inversion", label, 1e-9, random_signal,
                lambda f: irqft_direct(rqft_direct(f, axes), axes))
        h.isometry("plancherel-rqft", label, 1e-10, lambda f: rqft_direct(f, axes))
        h.agree("sqft-reflection-relation", label, 1e-10, random_signal,
                lambda f: sqft_direct(f, axes),
                lambda f: rqft_direct(transform_W(f, axes), axes))
        h.agree("sqft-inversion", label, 1e-9, random_signal,
                lambda f: isqft_direct(sqft_direct(f, axes), axes))

    h.isometry("plancherel-sqft", "default", 1e-10, sqft_direct)
    h.isometry("plancherel-lqft", "default", 1e-10, lqft_direct)

    def parseval_quaternionic():
        f = random_signal(g, rng)
        gg = random_signal(g, rng)
        p = inner_q(f, gg)
        q = inner_q(rqft_direct(f), rqft_direct(gg))
        return _rel(float(np.abs(p.to_array() - q.to_array()).max()),
                    lp_norm(f, 2) * lp_norm(gg, 2))

    h.run("parseval-quaternionic-rqft", "default", 1e-10, parseval_quaternionic)

    h.agree("rqft-unitary-onto", "default", 1e-10, random_spectrum,
            lambda F: rqft_direct(irqft_direct(F)))

    def uniqueness():
        f = random_signal(g, rng)
        F = rqft_direct(f)
        other = irqft_direct(F)
        spec_gap = lp_norm(rqft_direct(other) - F, 2)
        if spec_gap > 1e-9 * lp_norm(f, 2):
            return 1.0, "constructed pair has distinct spectra"
        return lp_norm(other - f, np.inf)

    h.run("rqft-uniqueness", "default", 1e-9, uniqueness,
          note="pair built to share a spectrum; sup distance reported")

    def sup_bound():
        f = random_signal(g, rng)
        excess = lp_norm(rqft_direct(f), np.inf) - lp_norm(f, 1)
        return max(0.0, _rel(excess, lp_norm(f, 1)))

    h.run("rqft-sup-bound", "default", 1e-12, sup_bound)

    def rqft_left_linearity():
        f = random_signal(g, rng)
        q = Quaternion(*rng.standard_normal(4))
        d = rqft_direct(f.left_mul(q)) - rqft_direct(f).left_mul(q)
        return _rel(lp_norm(d, 2), lp_norm(f, 2) * q.norm())

    h.run("rqft-left-linearity", "default", 1e-10, rqft_left_linearity)

    def sqft_plane_linearity():
        f = random_signal(g, rng)
        z = _plane_scalar(rng, DEFAULT_AXES.mu1)
        w = _plane_scalar(rng, DEFAULT_AXES.mu2)
        F = sqft_direct(f)
        d1 = sqft_direct(f.left_mul(z)) - F.left_mul(z)
        d2 = sqft_direct(f.right_mul(w)) - F.right_mul(w)
        scale = lp_norm(f, 2) * max(z.norm(), w.norm())
        return _rel(max(lp_norm(d1, 2), lp_norm(d2, 2)), scale)

    h.run("sqft-plane-linearity", "default", 1e-10, sqft_plane_linearity)

    h.agree("sqft-equals-rqft-plane-valued", "default", 1e-12, _plane_valued,
            sqft_direct, rqft_direct)
    h.agree("sqft-equals-rqft-even-first-variable", "default", 1e-12, _even_first,
            sqft_direct, rqft_direct)
    h.agree("isqft-reflection-identity", "default", 1e-10, random_spectrum,
            lambda F: transform_W(isqft_direct(F)), irqft_direct)

    def adjoint_pairing():
        f = random_signal(g, rng)
        gg = random_spectrum(g, rng)
        lhs = inner_real(sqft_direct(f), gg)
        rhs = inner_real(transform_W(f), irqft_direct(gg))
        return _rel(abs(lhs - rhs), lp_norm(f, 2) * lp_norm(gg, 2))

    h.run("adjoint-pairing", "default", 1e-10, adjoint_pairing)

    def component_parseval():
        f = random_signal(g, rng)
        gg = random_signal(g, rng)
        p = inner_q(f, gg).to_array()
        q = inner_q(sqft_direct(f), sqft_direct(gg)).to_array()
        scale = lp_norm(f, 2) * lp_norm(gg, 2)
        err01 = float(np.abs(p[:2] - q[:2]).max())
        dev23 = _rel(float(np.abs(p[2:] - q[2:]).max()), scale)
        fp, gp = _plane_valued(g, rng), _plane_valued(g, rng)
        pq = np.abs(inner_q(fp, gp).to_array()
                    - inner_q(sqft_direct(fp), sqft_direct(gp)).to_array()).max()
        fe, ge = _even_first(g, rng), _even_first(g, rng)
        pe = np.abs(inner_q(fe, ge).to_array()
                    - inner_q(sqft_direct(fe), sqft_direct(ge)).to_array()).max()
        err = max(_rel(err01, scale),
                  _rel(float(pq), lp_norm(fp, 2) * lp_norm(gp, 2)),
                  _rel(float(pe), lp_norm(fe, 2) * lp_norm(ge, 2)))
        return err, f"unrestricted mu2/mu3 components deviate up to {dev23:.2e} (reported only)"

    h.run("component-parseval-sqft", "default", 1e-10, component_parseval)

    def multiplication_formula():
        f = random_signal(g, rng)
        gg = random_spectrum(g, rng)
        scale = lp_norm(f, 1) * lp_norm(gg, 1)
        lhs, rhs = multiplication_pairing(f, gg)
        err = (lhs - rhs).norm() / scale
        lhs2, rhs2 = multiplication_pairing(f, gg, kernel_order="mu2-mu1")
        alt = (lhs2 - rhs2).norm() / scale
        return err, f"kernel order mu1-mu2 satisfies the identity; mu2-mu1 deviates up to {alt:.2e}"

    h.run("multiplication-formula", "default", 1e-9, multiplication_formula)

    # --- fast against direct ---------------------------------------------------
    directions = [
        ("", FORWARD_FAST, FORWARD_DIRECT, random_signal),
        ("i", INVERSE_FAST, INVERSE_DIRECT, random_spectrum),
    ]
    for prefix, fast, direct, make in directions:
        for kind in TransformKind:
            h.agree(f"fast-direct-{prefix}{kind.value}", "default", 1e-9, make,
                    fast[kind], direct[kind])

    def fast_random_axes():
        axes = random_axis_pair(rng)
        f = random_signal(g, rng)
        return _rel(lp_norm(rqft_fast(f, axes) - rqft_direct(f, axes), 2), lp_norm(f, 2))

    h.run("fast-direct-rqft", "random", 1e-9, fast_random_axes)

    def classical_embedding():
        z = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
        got = classical_dft_via_rqft(z, g)
        theta = g.angle_table
        oracle = np.array(
            [sum(z[x] * np.exp(-1j * theta[u, x]) for x in range(g.order))
             for u in range(g.order)]
        )
        return float(np.abs(got - oracle).max()) / (1.0 + float(np.abs(oracle).max()))

    h.run("classical-embedding", "default", 1e-10, classical_embedding)

    # --- kernel families ---------------------------------------------------------
    families = [kmod.builtin_family(nm) for nm in kmod.BUILTIN_FAMILIES]
    levels = range(5)

    def kernel_total_mass():
        worst = 0.0
        for fam in families:
            for l in levels:
                kern = kmod.spatial_kernel(fam, l, g)
                worst = max(worst, abs(float(kern.values[..., 0].sum()) - 1.0))
        return worst

    h.run("kernel-total-mass", "default", 1e-10, kernel_total_mass)

    def envelope_monotone():
        worst = 0.0
        for fam in families:
            for l in range(7):
                lo = fam.envelope(l, g)
                hi = fam.envelope(l + 1, g)
                worst = max(worst, float(np.max(lo - hi)))
                rng_vals = np.concatenate([lo, hi])
                if rng_vals.min() < -1e-15 or rng_vals.max() > 1 + 1e-15:
                    worst = max(worst, 1.0)
        return max(0.0, worst)

    h.run("kernel-envelope-monotone", "default", 0.0, envelope_monotone,
          note="phi must be non-decreasing in the level and valued in [0,1]")

    full_level = sum(n // 2 for n in g.moduli)

    def smoothing_exact_full_band():
        f = random_signal(g, rng)
        sm = kmod.smooth(f, families[0], full_level)
        e2 = _rel(lp_norm(sm - f, 2), lp_norm(f, 2))
        epoint = lp_norm(sm - f, np.inf) / (1.0 + lp_norm(f, np.inf))
        return max(e2, epoint)

    h.run("smoothing-exact-at-full-band", "default", 1e-10, smoothing_exact_full_band,
          note=f"dirichlet at level {full_level} passes the whole dual")

    def monotone_convergence():
        f = random_signal(g, rng)
        errs = kmod.convergence_report(f, families[2], 6)
        worst = 0.0
        for a, b in zip(errs, errs[1:]):
            worst = max(worst, (b - a) / max(errs[0], 1e-30))
        return max(0.0, worst)

    h.run("smoothing-monotone-decay", "default", 1e-12, monotone_convergence,
          note="geometric family residuals must not increase with the level")

    pairs = [(fam, l) for fam in families for l in levels]

    def energy_identity_check():
        f = random_signal(g, rng)
        energy = lp_norm(f, 2) ** 2
        worst = 0.0
        for lhs, rhs in kmod.energy_identity_pairs(f, pairs):
            worst = max(worst, abs(lhs - rhs) / energy)
        return worst

    energy_trials = min(trials, 3)
    h.run("energy-identity", "default", 1e-9, energy_identity_check,
          note=f"families x levels 0..4, {energy_trials} signals", trials=energy_trials)

    conv_points = 4  # sampled output points per trial, O(|G|^2) each

    def convolution_defining_sum():
        f = random_signal(g, rng)
        gg = random_signal(g, rng)
        got = convolve(f, gg).values
        x1, x2 = rng.integers(g.order, size=(conv_points, 2)).T
        sub = g.difference_table  # sub[a, b] = index(a - b)
        shifted = gg.values[sub[x1][:, :, None], sub[x2][:, None, :]]  # g(x - y) per x
        want = qmul(f.values, shifted).sum(axis=(1, 2)) * f.weight
        err = float(qabs(got[x1, x2] - want).max())
        return _rel(err, lp_norm(f, 2) * lp_norm(gg, 2))

    h.run("convolution-defining-sum", "default", 1e-10, convolution_defining_sum,
          note=f"sum_y f(y) g(x - y) at {conv_points} sampled points x")

    return h.report
