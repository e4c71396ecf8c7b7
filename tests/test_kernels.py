import math

import numpy as np
import pytest

from qgft import kernels, qft, signal
from qgft import (
    BUILTIN_FAMILIES,
    FiniteAbelianGroup,
    KernelFamily,
    QSignal,
    Quaternion,
    builtin_family,
    circular_distance,
    convergence_report,
    convolve,
    energy_identity,
    energy_identity_pairs,
    lp_norm,
    random_axis_pair,
    random_signal,
    smooth,
    spatial_kernel,
)
from qgft.verify import run_verification
from test_signal import _convolve_direct

FULL_LEVEL_Z8 = 4  # max circular distance on Z_8
# a custom family: any profile of the circular distance is even in u, so P is real
LORENTZ = KernelFamily("lorentz", lambda l, d: 1.0 / (1.0 + d * d / (l + 1.0)))


def test_family_selection():
    for name in ("dirichlet", "fejer", "poisson_geometric"):
        assert builtin_family(name).name == name
    with pytest.raises(ValueError, match="unknown kernel family"):
        builtin_family("gauss")


def test_circular_distance(z8, z3x4):
    dists = circular_distance(z8).tolist()
    assert dists == [0, 1, 2, 3, 4, 3, 2, 1]
    assert circular_distance(z3x4)[z3x4.element((2, 3)).index] == 1 + 1


def test_envelope_values(z8):
    fej = builtin_family("fejer")
    assert fej.envelope(0, z8)[0] == 1.0
    # level 0: nonzero only at frequency 0
    assert fej.envelope(0, z8)[1:].tolist() == [0.0] * 7
    pois = builtin_family("poisson_geometric")
    assert pois.envelope(3, z8)[4] == pytest.approx(math.exp(-0.5), rel=1e-15)
    diri = builtin_family("dirichlet")
    assert (diri.envelope(FULL_LEVEL_Z8, z8) == 1.0).all()


def test_envelope_monotone_in_level(z8):
    for name in ("dirichlet", "fejer", "poisson_geometric"):
        fam = builtin_family(name)
        for l in range(8):
            lo = fam.envelope(l, z8)
            hi = fam.envelope(l + 1, z8)
            assert (hi >= lo).all()
            assert lo.min() >= 0.0 and hi.max() <= 1.0


def test_poisson_geometric_huge_level(z8, z3x4):
    # 2**level overflows a float from level 1024 on; the envelope is then 1
    fam = builtin_family("poisson_geometric")
    for g in (z8, z3x4):
        for level in (1023, 1024, 2000):
            assert (fam.envelope(level, g) == 1.0).all()


def test_builtin_families_take_any_level(z8, z3x4):
    # past int32 exponents and the float range numpy needs a capped level;
    # the envelopes still match the scalar definitions
    for g in (z8, z3x4):
        dists = circular_distance(g).tolist()
        for level in (2**31, 2**62, 10**400):
            assert (builtin_family("dirichlet").envelope(level, g) == 1.0).all()
            assert (builtin_family("poisson_geometric").envelope(level, g) == 1.0).all()
            fejer = [max(0.0, 1.0 - d / (level + 1)) for d in dists]
            assert builtin_family("fejer").envelope(level, g).tolist() == fejer


@pytest.mark.parametrize("mods", [(1,), (8,), (3, 4)])
def test_convolve_and_smooth_own_their_memory(rng, mods):
    g = FiniteAbelianGroup(mods)
    f, h = random_signal(g, rng), random_signal(g, rng)
    for out in (convolve(f, h), smooth(f, builtin_family("fejer"), 1)):
        assert not np.shares_memory(out.values, f.values)
        assert not np.shares_memory(out.values, h.values)
        assert not out.values.flags.writeable


def test_dirichlet_full_band_is_delta(z8):
    kern = spatial_kernel(builtin_family("dirichlet"), FULL_LEVEL_Z8, z8)
    want = QSignal.delta(z8).values
    assert np.allclose(kern.values, want, atol=1e-14)


def test_fejer_level0_is_constant(z8):
    kern = spatial_kernel(builtin_family("fejer"), 0, z8)
    assert np.allclose(kern.values[..., 0], 1.0 / 64.0, atol=1e-15)
    assert np.allclose(kern.values[..., 1:], 0.0, atol=1e-15)


def test_fejer_closed_form_row():
    # level 1 on Z_4 against (1/(m+1)) * (sin((m+1)t/2) / sin(t/2))^2, m = 1
    z4 = FiniteAbelianGroup((4,))
    kern = spatial_kernel(builtin_family("fejer"), 1, z4)

    def fejer_closed(t, m=1):
        if abs(math.sin(t / 2)) < 1e-12:
            return float(m + 1)
        return (math.sin((m + 1) * t / 2) / math.sin(t / 2)) ** 2 / (m + 1)

    # P1(x) = (1/4) * F_1(2 pi x / 4); compare the actual one-axis row
    env = builtin_family("fejer").envelope(1, z4)
    p1 = [sum(env[u] * math.cos(2 * math.pi * u * x / 4) for u in range(4)) / 4
          for x in range(4)]
    for x in range(4):
        assert p1[x] == pytest.approx(fejer_closed(2 * math.pi * x / 4) / 4, abs=1e-12)
    # the product kernel row matches the separable construction
    expected = np.outer(p1, p1)
    assert np.allclose(kern.values[..., 0], expected, atol=1e-12)


def test_total_mass_is_one(z8, z3x4):
    for g in (z8, z3x4):
        for name in ("dirichlet", "fejer", "poisson_geometric"):
            fam = builtin_family(name)
            for level in range(5):
                kern = spatial_kernel(fam, level, g)
                assert kern.values[..., 0].sum() == pytest.approx(1.0, abs=1e-10)


def test_spatial_kernel_rejects_bad_level(rng, z8):
    with pytest.raises(ValueError, match="level"):
        spatial_kernel(builtin_family("fejer"), -1, z8)
    with pytest.raises(ValueError, match="level"):
        smooth(random_signal(z8, rng), builtin_family("fejer"), -1)


def test_custom_family_smooths_with_a_real_kernel(rng, z8, z3x4):
    for g in (z8, z3x4):
        f = random_signal(g, rng)
        for level in range(3):
            kern = spatial_kernel(LORENTZ, level, g)
            want = _convolve_direct(f, kern)
            err = np.abs(smooth(f, LORENTZ, level).values - want).max()
            assert err <= 1e-12 * np.abs(f.values).max()
            # the defining sum P_1(x) = (1/|G|) sum_u phi(u) exp(i theta(u, x))
            p1 = LORENTZ.envelope(level, g) @ np.exp(1j * g.angle_table) / g.order
            assert np.abs(p1.imag).max() <= 1e-15
            assert np.allclose(kern.values[..., 0], np.outer(p1.real, p1.real),
                               rtol=0, atol=1e-15)
            assert not kern.values[..., 1:].any()


@pytest.mark.parametrize("mods", [(1,), (8,), (3, 4), (2, 2, 3), (4, 8), (32,)])
def test_product_and_fft_smoothing_agree(rng, monkeypatch, mods):
    # up to TINY_CORE_MAX smoothing is S X S^T; a limit of 0 takes the FFT path
    g = FiniteAbelianGroup(mods)
    assert g.order <= signal.TINY_CORE_MAX
    f = random_signal(g, rng)
    fams = [builtin_family(name) for name in BUILTIN_FAMILIES] + [LORENTZ]

    def outputs():
        return ([smooth(f, fam, l) for fam in fams for l in range(6)],
                [convergence_report(f, fam, 5) for fam in fams])

    smoothed, reports = outputs()
    monkeypatch.setattr(signal, "TINY_CORE_MAX", 0)
    smoothed_fft, reports_fft = outputs()
    for sm, sm_fft in zip(smoothed, smoothed_fft):
        assert lp_norm(sm - sm_fft, 2) <= 1e-14 * lp_norm(sm_fft, 2)
    assert np.abs(np.subtract(reports, reports_fft)).max() <= 1e-14 * lp_norm(f, 2)


def test_nothing_up_to_the_switch_reaches_pocketfft(monkeypatch, rng, z3x4):
    # one switch: up to TINY_CORE_MAX every DFT over G is a product with DFT matrices
    def refuse(*args, **kwargs):
        raise AssertionError("pocketfft called up to TINY_CORE_MAX")

    for module in (signal, kernels, qft):  # every module's name for it
        monkeypatch.setattr(module, "_pocketfft", refuse)
    kernels._circulant.cache_clear()  # a cached circulant would skip its profile
    assert run_verification(z3x4, trials=1).all_passed
    fams = [builtin_family(name) for name in BUILTIN_FAMILIES]
    for mods in [(17,), (4, 8), (32,)]:
        g = FiniteAbelianGroup(mods)
        assert g.order <= signal.TINY_CORE_MAX
        f = random_signal(g, rng)
        convolve(f, random_signal(g, rng))
        energy_identity_pairs(f, [(fam, 1) for fam in fams])
        for fam in fams:
            smooth(f, fam, 1)
            spatial_kernel(fam, 1, g)
            convergence_report(f, fam, 2)


def test_spatial_kernel_above_the_switch_is_the_outer_profile():
    g = FiniteAbelianGroup((33,))
    assert g.order > signal.TINY_CORE_MAX
    for fam in [builtin_family(name) for name in BUILTIN_FAMILIES] + [LORENTZ]:
        env = fam.envelope(3, g)
        p1 = env @ np.exp(1j * g.angle_table) / g.order  # the defining sum
        kern = spatial_kernel(fam, 3, g).values
        assert np.allclose(kern[..., 0], np.outer(p1.real, p1.real), rtol=0, atol=1e-15)
        assert not kern[..., 1:].any()


def test_cached_circulant_and_distances_are_read_only(z3x4):
    env = builtin_family("fejer").envelope(2, z3x4)
    first = kernels._circulant(z3x4.moduli, env.tobytes())
    dist = circular_distance(z3x4)
    assert not first.flags.writeable and not dist.flags.writeable
    # a fresh group of the same moduli, as each CLI command builds, reads the same values
    fresh = FiniteAbelianGroup((3, 4))
    assert np.array_equal(kernels._circulant(fresh.moduli, env.tobytes()), first)
    assert np.array_equal(circular_distance(fresh), dist)
    # S[x, y] = P_1(x - y), with S's first column the profile
    assert np.array_equal(first, first[:, 0][z3x4.difference_table])


@pytest.mark.parametrize("name", BUILTIN_FAMILIES)
def test_smooth_matches_direct_convolution(rng, z8, z3x4, name):
    fam = builtin_family(name)
    for g in (z8, z3x4):
        f = random_signal(g, rng)
        for level in range(6):
            want = _convolve_direct(f, spatial_kernel(fam, level, g))
            err = np.abs(smooth(f, fam, level).values - want).max()
            assert err <= 1e-12 * np.abs(f.values).max()


def test_smooth_identity_cases(rng, z8):
    f = random_signal(z8, rng)
    out = smooth(f, builtin_family("dirichlet"), FULL_LEVEL_Z8)
    assert lp_norm(out - f, 2) <= 1e-10 * lp_norm(f, 2)
    const = QSignal.constant(z8, Quaternion(0.5, -1.0, 2.0, 0.25))
    for name in ("dirichlet", "fejer", "poisson_geometric"):
        for level in range(3):
            out = smooth(const, builtin_family(name), level)
            assert np.allclose(out.values, const.values, atol=1e-12)


def test_convergence_report(rng, z8):
    f = random_signal(z8, rng)
    rep = convergence_report(f, builtin_family("dirichlet"), FULL_LEVEL_Z8)
    assert rep[-1] < 1e-10
    const = QSignal.constant(z8, Quaternion(1.0))
    assert max(convergence_report(const, builtin_family("fejer"), 4)) < 1e-12

    rep = convergence_report(f, builtin_family("poisson_geometric"), 8)
    # strictly decreasing until float noise
    for a, b in zip(rep, rep[1:]):
        assert b <= a + 1e-12 * rep[0]
    assert rep[-1] < rep[0]

    # 2-norm residual is bounded by the worst spectral attenuation
    fam = builtin_family("fejer")
    for level in (0, 2, 5):
        env = fam.envelope(level, z8)
        bound = (1.0 - np.outer(env, env)).max() * lp_norm(f, 2)
        assert convergence_report(f, fam, level)[-1] <= bound * (1 + 1e-12)

    with pytest.raises(ValueError, match="lmax"):
        convergence_report(f, fam, -1)


@pytest.mark.parametrize("p", [1, 2, np.inf])
def test_convergence_report_is_smooth_per_level(rng, z8, z3x4, p):
    # one shared forward FFT, same values as smoothing level by level
    for grp in (z8, z3x4):
        f = random_signal(grp, rng)
        for name in BUILTIN_FAMILIES:
            fam = builtin_family(name)
            assert convergence_report(f, fam, 6, p) == [
                lp_norm(smooth(f, fam, l) - f, p) for l in range(7)
            ]


def test_energy_identity_flat_spectrum(z8):
    f = QSignal.delta(z8)
    fam = builtin_family("fejer")
    for level in (0, 1, 3):
        lhs, rhs = energy_identity(f, fam, level)
        env = fam.envelope(level, z8)
        expected = env.sum() * env.sum() / 64.0
        assert lhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(expected, rel=1e-12)


def test_energy_identity_full_band_is_energy(rng, z8):
    f = random_signal(z8, rng)
    lhs, rhs = energy_identity(f, builtin_family("dirichlet"), FULL_LEVEL_Z8)
    assert lhs == pytest.approx(lp_norm(f, 2) ** 2, rel=1e-9)
    assert rhs == pytest.approx(lp_norm(f, 2) ** 2, rel=1e-9)


def test_energy_identity_random(rng, z8):
    f = random_signal(z8, rng)
    for name in ("dirichlet", "fejer", "poisson_geometric"):
        for level in range(5):
            lhs, rhs = energy_identity(f, builtin_family(name), level)
            assert abs(lhs - rhs) <= 1e-9 * lp_norm(f, 2) ** 2


def test_energy_identity_pairs_are_the_single_pair_results(rng, z8, z3x4):
    for grp in (z8, z3x4):
        f = random_signal(grp, rng)
        axes = random_axis_pair(rng)
        pairs = [(builtin_family(name), l) for name in BUILTIN_FAMILIES for l in range(5)]
        assert energy_identity_pairs(f, pairs, axes) == [
            energy_identity(f, fam, l, axes) for fam, l in pairs
        ]
        assert energy_identity_pairs(f, []) == []
