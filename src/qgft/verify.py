"""Randomized verification harness behind ``qgft verify``.

Runs every operator identity the library promises (norm preservation,
inversion, linearity, the reflection and pairing identities, fast/direct
agreement, kernel diagnostics) over seeded random signals and produces a
deterministic report: same seed and arguments, same report.  Checks are
named by the property they test.  Intended for desk-scale groups: the
identity checks deliberately use the direct evaluators, which take
O(|G|^3) time per stage in an O(|G|^2) working set.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels as kmod
from .group import FiniteAbelianGroup, character_table
from .qft import (
    FORWARD_DIRECT,
    FORWARD_FAST,
    INVERSE_DIRECT,
    INVERSE_FAST,
    TransformKind,
    classical_dft_via_rqft,
    irqft_direct,
    isqft_direct,
    lqft_direct,
    multiplication_pairing,
    rqft_direct,
    rqft_fast,
    sqft_direct,
)
from .quat import DEFAULT_AXES, Quaternion, qabs, random_axis_pair
from .signal import (
    QSignal,
    QSpectrum,
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
            "checks": [asdict(c) for c in self.checks],
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


def _even_first(f: QSignal) -> QSignal:
    neg = f.group.neg_perm
    return QSignal(f.group, 0.5 * (f.values + f.values[neg]))


def _plane_valued(group, rng, axes) -> QSignal:
    n = group.order
    comps = np.zeros((n, n, 4))
    comps[..., :2] = rng.standard_normal((n, n, 2))
    return QSignal(group, axes.from_frame(comps))


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
        """Run ``fn(trial_index) -> error [, note]`` ``trials`` (default: all) times."""
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
        for i in range(trials):
            out = fn(i)
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


def run_verification(
    group: FiniteAbelianGroup,
    trials: int = 25,
    seed: int = 0,
    tol: float | None = None,
    corrupt: bool = False,
) -> VerifyReport:
    """Run the whole identity suite on ``group`` and return the report.

    ``corrupt=True`` injects a deliberate error into the forward transform
    of the inversion check; it exists so the harness can prove it is able
    to fail.
    """
    h = _Harness(group, trials, seed, tol)
    rng = h.rng
    g = group
    # random variants are drawn up front so every check is listed (as
    # skipped when trials=0) and the report stays a pure function of seed
    axes_variants = [("default", DEFAULT_AXES)] + [
        (f"random-{k}", random_axis_pair(rng)) for k in (1, 2)
    ]

    # --- character machinery ------------------------------------------------
    def character_orthogonality(_):
        if g.order == 1:
            return 0.0
        k1 = character_table(g, DEFAULT_AXES.mu1)
        u = int(rng.integers(1, g.order))
        return float(qabs(k1[u].sum(axis=0)).max()) / g.order

    h.run("character-orthogonality", "default", 1e-9, character_orthogonality)

    # --- signal-level identities ---------------------------------------------
    for label, axes in axes_variants:
        def reflection_isometry(_, axes=axes):
            f = random_signal(g, rng)
            gg = random_signal(g, rng)
            wf, wg = transform_W(f, axes), transform_W(gg, axes)
            scale = lp_norm(f, 2) * lp_norm(gg, 2)
            e1 = abs(inner_real(wf, wg) - inner_real(f, gg))
            e2 = abs(lp_norm(wf, 2) - lp_norm(f, 2))
            return max(_rel(e1, scale), _rel(e2, lp_norm(f, 2)))

        h.run("reflection-isometry", label, 1e-10, reflection_isometry)

        def reflection_slice_pairing(_, axes=axes):
            f = random_signal(g, rng)
            gg = random_signal(g, rng)
            lhs = (axes.mu1 * inner_q(f, gg)).scalar_part()
            rhs = (axes.mu1 * inner_q(transform_W(f, axes), transform_W(gg, axes))).scalar_part()
            return _rel(abs(lhs - rhs), lp_norm(f, 2) * lp_norm(gg, 2))

        h.run("reflection-slice-pairing", label, 1e-10, reflection_slice_pairing)

    def reflection_plane_linearity(_):
        f = random_signal(g, rng)
        z = _plane_scalar(rng, DEFAULT_AXES.mu1)
        d = transform_W(f.left_mul(z)) - transform_W(f).left_mul(z)
        return _rel(lp_norm(d, 2), lp_norm(f, 2) * z.norm())

    h.run("reflection-plane-linearity", "default", 1e-12, reflection_plane_linearity)

    def reflection_involution(_):
        f = random_signal(g, rng)
        return _rel(lp_norm(transform_W(transform_W(f)) - f, 2), lp_norm(f, 2))

    h.run("reflection-involution", "default", 1e-12, reflection_involution)

    def translation_isometry(_):
        f = random_signal(g, rng)
        y = (g.element_at(int(rng.integers(g.order))),
             g.element_at(int(rng.integers(g.order))))
        shifted = translate(f, y)
        e1 = abs(lp_norm(shifted, 2) - lp_norm(f, 2))
        back = translate(shifted, (-y[0], -y[1]))
        e2 = lp_norm(back - f, np.inf)
        return _rel(max(e1, e2), lp_norm(f, 2))

    h.run("translation-isometry", "default", 1e-12, translation_isometry)

    def convolution_left_linearity(_):
        f = random_signal(g, rng)
        gg = random_signal(g, rng)
        q = Quaternion(*rng.standard_normal(4))
        d = convolve(f.left_mul(q), gg) - convolve(f, gg).left_mul(q)
        return _rel(lp_norm(d, 2), lp_norm(f, 2) * lp_norm(gg, 2) * q.norm())

    h.run("convolution-left-linearity", "default", 1e-10, convolution_left_linearity)

    def component_norm_identities(_):
        f = random_signal(g, rng)
        comp_inf = sum(float(np.abs(f.values[..., m]).max()) for m in range(4))
        if lp_norm(f, np.inf) > 2.0 * comp_inf * (1 + 1e-12):
            return 1.0
        comp_sq = sum(float((f.values[..., m] ** 2).sum()) * f.weight for m in range(4))
        return _rel(abs(lp_norm(f, 2) ** 2 - comp_sq), lp_norm(f, 2) ** 2)

    h.run("component-norm-identities", "default", 1e-12, component_norm_identities)

    # --- transform identities --------------------------------------------------
    for label, axes in axes_variants:
        corrupt_here = corrupt and label == "default"

        def rqft_inversion(_, axes=axes, corrupt_here=corrupt_here):
            f = random_signal(g, rng)
            F = rqft_direct(f, axes)
            if corrupt_here:
                bad = F.values.copy()
                bad[0, 0, 0] += 1e-3 * (1.0 + np.abs(bad).max())
                F = QSpectrum(g, bad)
            return _rel(lp_norm(irqft_direct(F, axes) - f, 2), lp_norm(f, 2))

        h.run("rqft-inversion", label, 1e-9, rqft_inversion,
              note="forward transform corrupted on purpose" if corrupt_here else "")

        def plancherel_rqft(_, axes=axes):
            f = random_signal(g, rng)
            return _rel(abs(lp_norm(rqft_direct(f, axes), 2) - lp_norm(f, 2)), lp_norm(f, 2))

        h.run("plancherel-rqft", label, 1e-10, plancherel_rqft)

        def sqft_reflection_relation(_, axes=axes):
            f = random_signal(g, rng)
            d = sqft_direct(f, axes) - rqft_direct(transform_W(f, axes), axes)
            return _rel(lp_norm(d, 2), lp_norm(f, 2))

        h.run("sqft-reflection-relation", label, 1e-10, sqft_reflection_relation)

        def sqft_inversion(_, axes=axes):
            f = random_signal(g, rng)
            back = isqft_direct(sqft_direct(f, axes), axes)
            return _rel(lp_norm(back - f, 2), lp_norm(f, 2))

        h.run("sqft-inversion", label, 1e-9, sqft_inversion)

    for name, forward in (("sqft", sqft_direct), ("lqft", lqft_direct)):
        def plancherel(_, forward=forward):
            f = random_signal(g, rng)
            return _rel(abs(lp_norm(forward(f), 2) - lp_norm(f, 2)), lp_norm(f, 2))

        h.run(f"plancherel-{name}", "default", 1e-10, plancherel)

    def parseval_quaternionic(_):
        f = random_signal(g, rng)
        gg = random_signal(g, rng)
        p = inner_q(f, gg)
        q = inner_q(rqft_direct(f), rqft_direct(gg))
        return _rel(float(np.abs(p.to_array() - q.to_array()).max()),
                    lp_norm(f, 2) * lp_norm(gg, 2))

    h.run("parseval-quaternionic-rqft", "default", 1e-10, parseval_quaternionic)

    def unitary_onto(_):
        F = random_spectrum(g, rng)
        d = rqft_direct(irqft_direct(F)) - F
        return _rel(lp_norm(d, 2), lp_norm(F, 2))

    h.run("rqft-unitary-onto", "default", 1e-10, unitary_onto)

    def uniqueness(_):
        f = random_signal(g, rng)
        other = irqft_direct(rqft_direct(f))
        spec_gap = lp_norm(rqft_direct(other) - rqft_direct(f), 2)
        if spec_gap > 1e-9 * lp_norm(f, 2):
            return 1.0, "constructed pair has distinct spectra"
        return lp_norm(other - f, np.inf)

    h.run("rqft-uniqueness", "default", 1e-9, uniqueness,
          note="pair built to share a spectrum; sup distance reported")

    def sup_bound(_):
        f = random_signal(g, rng)
        excess = lp_norm(rqft_direct(f), np.inf) - lp_norm(f, 1)
        return max(0.0, _rel(excess, lp_norm(f, 1)))

    h.run("rqft-sup-bound", "default", 1e-12, sup_bound)

    def rqft_left_linearity(_):
        f = random_signal(g, rng)
        q = Quaternion(*rng.standard_normal(4))
        d = rqft_direct(f.left_mul(q)) - rqft_direct(f).left_mul(q)
        return _rel(lp_norm(d, 2), lp_norm(f, 2) * q.norm())

    h.run("rqft-left-linearity", "default", 1e-10, rqft_left_linearity)

    def sqft_plane_linearity(_):
        f = random_signal(g, rng)
        z = _plane_scalar(rng, DEFAULT_AXES.mu1)
        w = _plane_scalar(rng, DEFAULT_AXES.mu2)
        d1 = sqft_direct(f.left_mul(z)) - sqft_direct(f).left_mul(z)
        d2 = sqft_direct(f.right_mul(w)) - sqft_direct(f).right_mul(w)
        scale = lp_norm(f, 2) * max(z.norm(), w.norm())
        return _rel(max(lp_norm(d1, 2), lp_norm(d2, 2)), scale)

    h.run("sqft-plane-linearity", "default", 1e-10, sqft_plane_linearity)

    def sqft_equals_rqft_plane(_):
        f = _plane_valued(g, rng, DEFAULT_AXES)
        return _rel(lp_norm(sqft_direct(f) - rqft_direct(f), 2), lp_norm(f, 2))

    h.run("sqft-equals-rqft-plane-valued", "default", 1e-12, sqft_equals_rqft_plane)

    def sqft_equals_rqft_even(_):
        f = _even_first(random_signal(g, rng))
        return _rel(lp_norm(sqft_direct(f) - rqft_direct(f), 2), lp_norm(f, 2))

    h.run("sqft-equals-rqft-even-first-variable", "default", 1e-12, sqft_equals_rqft_even)

    def isqft_reflection_identity(_):
        F = random_spectrum(g, rng)
        d = transform_W(isqft_direct(F)) - irqft_direct(F)
        return _rel(lp_norm(d, 2), lp_norm(F, 2))

    h.run("isqft-reflection-identity", "default", 1e-10, isqft_reflection_identity)

    def adjoint_pairing(_):
        f = random_signal(g, rng)
        gg = random_spectrum(g, rng)
        lhs = inner_real(sqft_direct(f), gg)
        rhs = inner_real(transform_W(f), irqft_direct(gg))
        return _rel(abs(lhs - rhs), lp_norm(f, 2) * lp_norm(gg, 2))

    h.run("adjoint-pairing", "default", 1e-10, adjoint_pairing)

    def component_parseval(_):
        f = random_signal(g, rng)
        gg = random_signal(g, rng)
        p = inner_q(f, gg).to_array()
        q = inner_q(sqft_direct(f), sqft_direct(gg)).to_array()
        scale = lp_norm(f, 2) * lp_norm(gg, 2)
        err01 = float(np.abs(p[:2] - q[:2]).max())
        dev23 = _rel(float(np.abs(p[2:] - q[2:]).max()), scale)
        fp, gp = _plane_valued(g, rng, DEFAULT_AXES), _plane_valued(g, rng, DEFAULT_AXES)
        pq = np.abs(inner_q(fp, gp).to_array()
                    - inner_q(sqft_direct(fp), sqft_direct(gp)).to_array()).max()
        fe, ge = _even_first(random_signal(g, rng)), _even_first(random_signal(g, rng))
        pe = np.abs(inner_q(fe, ge).to_array()
                    - inner_q(sqft_direct(fe), sqft_direct(ge)).to_array()).max()
        err = max(_rel(err01, scale),
                  _rel(float(pq), lp_norm(fp, 2) * lp_norm(gp, 2)),
                  _rel(float(pe), lp_norm(fe, 2) * lp_norm(ge, 2)))
        return err, f"unrestricted mu2/mu3 components deviate up to {dev23:.2e} (reported only)"

    h.run("component-parseval-sqft", "default", 1e-10, component_parseval)

    def multiplication_formula(_):
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
    for prefix, fast_table, direct_table, make in directions:
        for kind in TransformKind:
            def agree(_, kind=kind, fast=fast_table, direct=direct_table, make=make):
                x = make(g, rng)
                return _rel(lp_norm(fast[kind](x) - direct[kind](x), 2), lp_norm(x, 2))

            h.run(f"fast-direct-{prefix}{kind.value}", "default", 1e-9, agree)

    def fast_random_axes(_):
        axes = random_axis_pair(rng)
        f = random_signal(g, rng)
        return _rel(lp_norm(rqft_fast(f, axes) - rqft_direct(f, axes), 2), lp_norm(f, 2))

    h.run("fast-direct-rqft", "random", 1e-9, fast_random_axes)

    def classical_embedding(_):
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

    def kernel_total_mass(_):
        worst = 0.0
        for fam in families:
            for l in levels:
                kern = kmod.spatial_kernel(fam, l, g)
                worst = max(worst, abs(float(kern.values.values[..., 0].sum()) - 1.0))
        return worst

    h.run("kernel-total-mass", "default", 1e-10, kernel_total_mass)

    def envelope_monotone(_):
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

    def smoothing_exact_full_band(_):
        f = random_signal(g, rng)
        sm = kmod.smooth(f, families[0], full_level)
        e2 = _rel(lp_norm(sm - f, 2), lp_norm(f, 2))
        epoint = lp_norm(sm - f, np.inf) / (1.0 + lp_norm(f, np.inf))
        return max(e2, epoint)

    h.run("smoothing-exact-at-full-band", "default", 1e-10, smoothing_exact_full_band,
          note=f"dirichlet at level {full_level} passes the whole dual")

    def monotone_convergence(_):
        f = random_signal(g, rng)
        errs = kmod.convergence_report(f, families[2], 6)
        worst = 0.0
        for a, b in zip(errs, errs[1:]):
            worst = max(worst, (b - a) / max(errs[0], 1e-30))
        return max(0.0, worst)

    h.run("smoothing-monotone-decay", "default", 1e-12, monotone_convergence,
          note="geometric family residuals must not increase with the level")

    def energy_identity_check(i):
        f = random_signal(g, rng)
        worst = 0.0
        for fam in families:
            for l in levels:
                lhs, rhs = kmod.energy_identity(f, fam, l)
                worst = max(worst, abs(lhs - rhs) / lp_norm(f, 2) ** 2)
        return worst

    energy_trials = min(trials, 3)
    h.run("energy-identity", "default", 1e-9, energy_identity_check,
          note=f"families x levels 0..4, {energy_trials} signals", trials=energy_trials)

    return h.report
