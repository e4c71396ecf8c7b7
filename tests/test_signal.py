import copy
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from qgft import (
    DEFAULT_AXES,
    FiniteAbelianGroup,
    I,
    J,
    K,
    QSignal,
    QSpectrum,
    Quaternion,
    convolve,
    inner_q,
    inner_real,
    lp_norm,
    multiplication_pairing,
    random_axis_pair,
    random_signal,
    random_spectrum,
    reflect_conj,
    transform_W,
    transform_beta,
    translate,
)
from qgft.quat import qmul
from qgft import cli, kernels, qft, signal
from qgft.fileio import decode_qsig, encode_qsig, read_qsig, write_qsig
from qgft.signal import _NonFiniteError, _grid_fft, _pocketfft
from reference import inner_q_qmul, pairing_qmul, scalar_mul_qmul, symplectic_split


def _convolve_direct(f, g):
    """The defining sum (f * g)(x) = sum_y f(y) * g(x - y), f first; O(|G|^4)."""
    n = f.group.order
    sub = f.group.difference_table
    out = np.empty_like(f.values)
    for i1 in range(n):
        for i2 in range(n):
            shifted = g.values[sub[i1][:, None], sub[i2][None, :]]
            out[i1, i2] = qmul(f.values, shifted).sum(axis=(0, 1))
    return out * f.weight


def test_constructor_validation(z4):
    with pytest.raises(ValueError, match="shape"):
        QSignal(z4, np.zeros((4, 4, 3)))
    bad = np.zeros((4, 4, 4))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        QSignal(z4, bad)
    with pytest.raises(ValueError, match="real"):  # the cast would drop the 1j
        QSignal(z4, np.ones((4, 4, 4)) * 1j)


def test_non_finite_error_is_a_value_error(z4):
    bad = np.full((4, 4, 4), np.inf)
    with pytest.raises(_NonFiniteError, match="finite"):
        QSpectrum(z4, bad)
    assert issubclass(_NonFiniteError, ValueError)


def test_own_skips_the_copy_but_not_the_checks(z4):
    vals = np.zeros((4, 4, 4))
    assert QSignal._own(z4, vals).values is vals
    assert not vals.flags.writeable  # adopted arrays are frozen
    with pytest.raises(ValueError, match="shape"):
        QSignal._own(z4, np.zeros((4, 4, 3)))
    bad = np.zeros((4, 4, 4))
    bad[1, 2, 3] = np.nan
    with pytest.raises(_NonFiniteError, match="finite"):
        QSpectrum._own(z4, bad)


def test_bins_resolve_through_the_group(z4):
    z3 = FiniteAbelianGroup((3,))
    with pytest.raises(ValueError, match="different group"):
        QSignal.delta(z4, (z3.element(2), 1))
    with pytest.raises(TypeError):
        QSignal.delta(z4, (2, 1.7))
    with pytest.raises(IndexError, match="out of range"):
        QSpectrum.delta(z4, (0, 4))
    f = QSignal.delta(z4, (z4.element(3), np.int64(1)), J)
    assert f.at(3, z4.element(1)) == J and f.at(0, 0) == Quaternion()
    with pytest.raises(IndexError, match="out of range"):
        f.at(-1, 0)
    with pytest.raises(ValueError, match="different group"):
        f.at(0, z3.element(1))
    with pytest.raises(TypeError):
        f.at(3.0, 1)


def _grid_producers():
    """Every public way to get a grid, as name -> make(f, F, path)."""

    def read_back(f, F, path):
        write_qsig(str(path), F)
        return read_qsig(str(path))

    fejer = kernels.builtin_family("fejer")
    q = Quaternion(0.5, -1.0, 2.0, 0.25)
    makers = {}
    for name in qft.__all__:  # the 12 evaluators
        if name.endswith(("_direct", "_fast")):
            fn, inverse = getattr(qft, name), name.startswith("i")
            makers[name] = lambda f, F, path, fn=fn, inv=inverse: fn(F if inv else f)
    makers.update({
        "QSignal": lambda f, F, path: QSignal(f.group, f.values),
        "convolve": lambda f, F, path: convolve(f, f),
        "smooth": lambda f, F, path: kernels.smooth(f, fejer, 1),
        "spatial_kernel": lambda f, F, path: kernels.spatial_kernel(fejer, 1, f.group),
        "transform_W": lambda f, F, path: transform_W(f),
        "transform_beta": lambda f, F, path: transform_beta(F),
        "translate": lambda f, F, path: translate(f, ((1, 2), (2, 3))),
        "reflect_conj": lambda f, F, path: reflect_conj(f),
        "add": lambda f, F, path: f + f,
        "sub": lambda f, F, path: F - F,
        "mul": lambda f, F, path: f * 2.0,
        "rmul": lambda f, F, path: 3 * F,
        "left_mul": lambda f, F, path: f.left_mul(q),
        "right_mul": lambda f, F, path: F.right_mul(q),
        "conj": lambda f, F, path: f.conj(),
        "zeros": lambda f, F, path: QSpectrum.zeros(f.group),
        "constant": lambda f, F, path: QSignal.constant(f.group, q),
        "delta": lambda f, F, path: QSignal.delta(f.group, (1, 2), q),
        "random_signal": lambda f, F, path: random_signal(f.group, np.random.default_rng(1)),
        "random_spectrum": lambda f, F, path: random_spectrum(f.group, np.random.default_rng(1)),
        "read_qsig": read_back,
        "decode_qsig": lambda f, F, path: decode_qsig(encode_qsig(f)),
    })
    return makers


_PRODUCERS = _grid_producers()


@pytest.mark.parametrize("name", sorted(_PRODUCERS))
def test_every_grid_producer_returns_a_frozen_grid(rng, tmp_path, z3x4, name):
    f, F = random_signal(z3x4, rng), random_spectrum(z3x4, rng)
    grid = _PRODUCERS[name](f, F, tmp_path / "g.qsig")
    assert grid.values.flags.c_contiguous and not grid.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        grid.values[0, 0, 0] = 1.0
    with pytest.raises(AttributeError, match="immutable"):
        grid.values = np.zeros(grid.values.shape)
    with pytest.raises(AttributeError, match="immutable"):
        grid.group = FiniteAbelianGroup((12,))


def test_frozen_grids_copy_and_pickle(rng, z3x4):
    F = random_spectrum(z3x4, rng)
    for back in (copy.copy(F), copy.deepcopy(F), pickle.loads(pickle.dumps(F))):
        assert type(back) is QSpectrum and back.group == F.group
        assert np.array_equal(back.values, F.values)
        assert not back.values.flags.writeable


DIRECTIONS = pytest.mark.parametrize("inverse", [False, True], ids=["fftn", "ifftn"])


def _mirrored_fft(x, g, inverse, out=None):
    """The fast core's e plane: the second variable's DFT mirrored, then the first's."""
    y = _pocketfft(x, g, inverse, 1, out, mirror=True)
    return _pocketfft(y, g, inverse, 0, y)


@pytest.mark.parametrize("moduli", [(1,), (8,), (3, 4), (17, 1), (1, 3, 1, 6)])
@DIRECTIONS
def test_grid_fft_in_place_and_mirrored(rng, moduli, inverse):
    g = FiniteAbelianGroup(moduli)
    n, neg = g.order, g.neg_perm
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    want = _grid_fft(x, g, inverse)
    buf = x.copy()
    assert _grid_fft(buf, g, inverse, out=buf).base is buf and np.allclose(buf, want)
    # a strided plane, as the fast core uses it, and the mirrored second axis
    planes = np.zeros((n, n, 2), dtype=np.complex128)
    planes[..., 1] = x
    _mirrored_fft(planes[..., 1], g, inverse, out=planes[..., 1])
    assert np.allclose(planes[..., 1], want[:, neg], rtol=0, atol=1e-12 * np.abs(want).max())
    assert not planes[..., 0].any()
    # Z_1 factors change neither the canonical order nor any bit of the DFT
    bare = FiniteAbelianGroup(tuple(m for m in moduli if m > 1) or (1,))
    assert np.array_equal(want, _grid_fft(x, bare, inverse))
    assert np.array_equal(planes[..., 1], _mirrored_fft(x, bare, inverse))


@pytest.mark.parametrize("moduli", [(1,), (2,), (8,), (16,), (3, 4), (2, 2, 3),
                                    (17,), (2, 16), (4, 8), (32,)])
@DIRECTIONS
def test_dft_matrix_path_matches_pocketfft(monkeypatch, rng, moduli, inverse):
    g = FiniteAbelianGroup(moduli)
    assert g.order <= signal.TINY_CORE_MAX
    n = g.order
    x = rng.standard_normal((n, n, 2)) + 1j * rng.standard_normal((n, n, 2))
    results = []
    for limit in (signal.TINY_CORE_MAX, 0):  # 0: pocketfft at every order
        monkeypatch.setattr(signal, "TINY_CORE_MAX", limit)
        planes = x.copy()
        assert _grid_fft(planes[..., 1], g, inverse, out=planes[..., 1]).base is planes
        results.append((_grid_fft(x, g, inverse), _grid_fft(x[..., 0], g, inverse), planes))
    for got, want in zip(*results):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_the_library_starts_no_thread(monkeypatch, rng, tmp_path):
    # the fast core above TINY_CORE_MAX, in process and through the CLI
    g = FiniteAbelianGroup((16, 18))
    f = random_signal(g, rng)
    write_qsig(str(tmp_path / "f.qsig"), f)
    started, start = [], threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    qft.rqft_fast(f)
    assert cli.main(["transform", str(tmp_path / "f.qsig"), str(tmp_path / "F.qsig")]) == 0
    assert read_qsig(str(tmp_path / "F.qsig")).values.tobytes() == qft.rqft_fast(f).values.tobytes()
    assert started == []


@pytest.mark.parametrize("order", [256, 512, 1024, 4096])
def test_bin_map_blocks_stay_on_the_calling_blas_thread(order):
    # a block of r rows of bins is one (r * order, 4) @ (4, 4) product: 16 multiply-adds a bin
    rows = signal._scratch(order).size // (4 * order)
    assert 1 <= rows <= order and rows * order * 16 <= signal._BLAS_SERIAL_MAX


def test_bin_map_blocks_of_any_size_give_the_same_bits(monkeypatch, rng):
    # three rows a block (the last one short), against the blocks the order gets by default
    g = FiniteAbelianGroup((5, 7))
    f, F = random_signal(g, rng), random_spectrum(g, rng)
    axes, q = random_axis_pair(rng), Quaternion(*rng.standard_normal(4))
    calls = [lambda: f.left_mul(q), lambda: F.right_mul(q), lambda: transform_W(f, axes)]
    calls += [lambda op=op: op(F, axes) for op in qft.INVERSE_FAST.values()]
    calls += [lambda op=op: op(f, axes) for op in qft.FORWARD_FAST.values()]
    want = [call().values for call in calls]
    assert signal._block_rows(g.order) == g.order
    monkeypatch.setattr(signal, "_BLAS_SERIAL_MAX", 3 * 16 * g.order)
    assert signal._block_rows(g.order) == 3
    for call, values in zip(calls, want, strict=True):
        assert np.array_equal(call().values, values)


def test_lp_norms_constant():
    z2 = FiniteAbelianGroup((2,))
    f = QSignal.constant(z2, Quaternion(1.0))
    assert lp_norm(f, 1) == 4.0  # counting measure on the 4 primal bins
    assert lp_norm(f, 2) == 2.0
    assert lp_norm(f, np.inf) == 1.0
    F = QSpectrum.constant(z2, Quaternion(1.0))
    assert lp_norm(F, 2) == 1.0  # normalized dual mass
    assert lp_norm(F, 1) == 1.0
    with pytest.raises(ValueError, match="unsupported"):
        lp_norm(f, 3)


@pytest.mark.parametrize("make", [random_signal, random_spectrum])
def test_lp_norms_of_huge_payloads(rng, z8, make):
    # squaring components above ~1e154 overflows and below ~1e-154 loses
    # precision or vanishes; the norm itself does neither
    f = make(z8, rng)
    for factor in (1e200, 1e-160, 1e-200):
        scaled = type(f)(z8, f.values * factor)
        for p in (1, 2, np.inf):
            assert lp_norm(scaled, p) == pytest.approx(factor * lp_norm(f, p), rel=1e-14)


def test_complex_view_is_the_symplectic_pair(rng, z3x4):
    # the standard-frame payload (w, x, y, z) viewed as complex is (a1, a2)
    # with f = a1 + a2*j, which convolve and smooth rely on
    f = random_signal(z3x4, rng)
    pairs = f.values.view(np.complex128)
    assert pairs.shape == (12, 12, 2)
    for i in range(12):
        for j in range(12):
            assert tuple(pairs[i, j]) == symplectic_split(f.at(i, j), DEFAULT_AXES)


def test_norm_component_identity(rng, z8):
    # |f|^2 = sum_m |f_m|^2, hence equality of the squared 2-norms
    f = random_signal(z8, rng)
    comp = sum(float((f.values[..., m] ** 2).sum()) for m in range(4))
    assert lp_norm(f, 2) ** 2 == pytest.approx(comp, rel=1e-12)
    comp_inf = sum(float(np.abs(f.values[..., m]).max()) for m in range(4))
    assert lp_norm(f, np.inf) <= 2.0 * comp_inf


def test_inner_products(rng, z8):
    f = random_signal(z8, rng)
    g = random_signal(z8, rng)
    self_q = inner_q(f, f)
    assert np.allclose(
        self_q.to_array(), [lp_norm(f, 2) ** 2, 0, 0, 0], rtol=1e-12, atol=1e-12
    )
    # (p f, q g) = p (f, g) conj(q)
    p = Quaternion(*rng.standard_normal(4))
    q = Quaternion(*rng.standard_normal(4))
    lhs = inner_q(f.left_mul(p), g.left_mul(q))
    rhs = p * inner_q(f, g) * q.conj()
    assert np.allclose(lhs.to_array(), rhs.to_array(), rtol=1e-12, atol=1e-10)
    assert inner_real(f, g) == pytest.approx(inner_real(g, f), abs=1e-12)


@pytest.mark.parametrize("moduli", [(1,), (8,), (3, 4), (33,), (64,)])
@pytest.mark.parametrize("axes_seed", [None, 3])
def test_contractions_match_the_per_bin_products(moduli, axes_seed):
    # inner_q, left_mul, right_mul and both pairing sides are 4x4 real
    # contractions; the per-bin qmul forms agree to a few eps of |f| |g|
    g = FiniteAbelianGroup(moduli)
    rng = np.random.default_rng(sum(moduli))
    axes = DEFAULT_AXES if axes_seed is None else random_axis_pair(np.random.default_rng(axes_seed))
    f, h, F = random_signal(g, rng), random_signal(g, rng), random_spectrum(g, rng)
    q = Quaternion(*rng.standard_normal(4))
    tol = 4 * np.finfo(float).eps

    def close(got, want, scale):
        assert np.abs(np.asarray(got) - want).max() <= tol * scale

    close(inner_q(f, h).to_array(), inner_q_qmul(f, h), lp_norm(f, 2) * lp_norm(h, 2))
    close(inner_q(F, F).to_array(), inner_q_qmul(F, F), lp_norm(F, 2) ** 2)
    for left, mul in ((True, f.left_mul), (False, f.right_mul)):
        diff = QSignal(g, mul(q).values - scalar_mul_qmul(f, q, left))
        assert lp_norm(diff, 2) <= tol * q.norm() * lp_norm(f, 2)
    for order in ("mu1-mu2", "mu2-mu1"):
        sides = multiplication_pairing(f, F, axes, order)
        for got, want in zip(sides, pairing_qmul(f, F, axes, order)):
            close(got.to_array(), want, lp_norm(f, 2) * lp_norm(F, 2))


# rqft_fast's tiny core at Z_32, inner_q's Gram and left_mul's bin map at Z_256, as bytes
_BLAS_BITS_SCRIPT = """
import hashlib, numpy as np
from qgft import FiniteAbelianGroup, Quaternion, inner_q, random_signal, rqft_fast
rng = np.random.default_rng(7)
f = random_signal(FiniteAbelianGroup((32,)), rng)
big, other = (random_signal(FiniteAbelianGroup((256,)), rng) for _ in range(2))
q = Quaternion(*rng.standard_normal(4))
for out in (rqft_fast(f).values, inner_q(big, other).to_array(), big.left_mul(q).values):
    print(hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_outputs_do_not_depend_on_the_blas_threads():
    # the tiny core's row blocks, the Gram product and the bin map's blocks
    # give the bits of one BLAS thread with the default thread count too
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("OPENBLAS_NUM_THREADS", None)
    runs = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        res = subprocess.run([sys.executable, "-c", _BLAS_BITS_SCRIPT], env={**env, **threads},
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        runs.append(res.stdout.split())
    assert len(runs[0]) == 3 and runs[0] == runs[1]


def test_carrier_mismatch(rng, z4, z8):
    with pytest.raises(ValueError, match="carrier mismatch"):
        inner_q(random_signal(z4, rng), random_signal(z8, rng))
    with pytest.raises(ValueError, match="carrier mismatch"):
        inner_q(random_signal(z4, rng), random_spectrum(z4, rng))


def test_translate(rng, z3x4):
    g = z3x4
    f = random_signal(g, rng)
    assert np.array_equal(translate(f, (g.zero(), g.zero())).values, f.values)
    y = (g.element((1, 2)), g.element((2, 3)))
    shifted = translate(f, y)
    assert np.array_equal(translate(shifted, (-y[0], -y[1])).values, f.values)
    assert lp_norm(shifted, 2) == pytest.approx(lp_norm(f, 2), rel=1e-12)
    # pointwise definition: (L_y f)(x) = f(x + y)
    x = (g.element((2, 1)), g.element((0, 2)))
    assert shifted.at(x[0].index, x[1].index) == f.at((x[0] + y[0]).index, (x[1] + y[1]).index)
    # raw coordinate tuples are accepted too
    assert np.array_equal(translate(f, ((1, 2), (2, 3))).values, shifted.values)


def test_reflect_conj(z4, rng):
    # real and even: fixed point
    even = np.zeros((4, 4, 4))
    vals = np.cos(2 * np.pi * np.arange(4) / 4)
    even[..., 0] = np.add.outer(vals, vals)
    f = QSignal(z4, even)
    assert np.allclose(reflect_conj(f).values, f.values, atol=1e-15)

    point = QSignal.delta(z4, (1, 0), J)
    expected = QSignal.delta(z4, (3, 0), -J)
    assert np.array_equal(reflect_conj(point).values, expected.values)

    f = random_signal(z4, rng)
    assert np.array_equal(reflect_conj(reflect_conj(f)).values, f.values)


def test_convolve_delta_unit(rng, z8):
    f = random_signal(z8, rng)
    assert np.allclose(convolve(f, QSignal.delta(z8)).values, f.values, atol=1e-15)


@pytest.mark.parametrize("moduli", [(1,), (5,), (8,), (3, 4), (2, 2, 3)])
def test_convolve_matches_defining_sum(rng, moduli):
    g = FiniteAbelianGroup(moduli)
    f, h = random_signal(g, rng), random_signal(g, rng)
    # the factors do not commute, so checking both orders pins f-first
    assert not np.allclose(convolve(f, h).values, convolve(h, f).values)
    for a, b in ((f, h), (h, f)):
        want = _convolve_direct(a, b)
        assert np.abs(convolve(a, b).values - want).max() <= 1e-13 * np.abs(want).max()


def test_convolve_two_point_masses(rng, z3x4):
    g = z3x4
    for _ in range(10):
        a = g.element_at(int(rng.integers(g.order))), g.element_at(int(rng.integers(g.order)))
        b = g.element_at(int(rng.integers(g.order))), g.element_at(int(rng.integers(g.order)))
        p = Quaternion(*rng.standard_normal(4))
        q = Quaternion(*rng.standard_normal(4))
        got = convolve(QSignal.delta(g, a, p), QSignal.delta(g, b, q))
        want = QSignal.delta(g, (a[0] + b[0], a[1] + b[1]), p * q)  # order p*q, not q*p
        assert np.allclose(got.values, want.values, atol=1e-13)


@pytest.mark.parametrize("moduli", [(17,), (4, 8), (32,)])
def test_convolve_of_a_huge_delta_is_the_delta(moduli):
    # up to TINY_CORE_MAX the inverse DFT matrix scales each term by 1/|G| before
    # it sums, so a result that is representable comes back (to rounding: the
    # off-origin sums of unit roots are not exactly 0); pocketfft would overflow
    g = FiniteAbelianGroup(moduli)
    assert 16 < g.order <= signal.TINY_CORE_MAX
    big = QSignal.delta(g, value=Quaternion(1e308, 1e308, 1e308, 1e308))
    got = convolve(big, QSignal.delta(g)).values
    assert np.abs(got - big.values).max() <= 1e-15 * 1e308


def test_autocorrelation_identity(rng, z4):
    # (f~ * f)(x) = sum_y conj(f(y)) f(y + x), checked against the raw sum
    g = z4
    f = random_signal(g, rng)
    conv = convolve(reflect_conj(f), f)
    for x1 in range(g.order):
        for x2 in range(g.order):
            total = Quaternion()
            for y1 in g.elements():
                for y2 in g.elements():
                    fy = f.at(y1.index, y2.index)
                    fyx = f.at((y1 + g.element(x1)).index, (y2 + g.element(x2)).index)
                    total = total + fy.conj() * fyx
            assert np.allclose(conv.values[x1, x2], total.to_array(), atol=1e-10)


def test_convolve_left_linearity(rng, z8):
    f = random_signal(z8, rng)
    g = random_signal(z8, rng)
    q = Quaternion(*rng.standard_normal(4))
    lhs = convolve(f.left_mul(q), g)
    rhs = convolve(f, g).left_mul(q)
    assert np.allclose(lhs.values, rhs.values, atol=1e-9)


def test_transform_w(rng, z4):
    real = QSignal(z4, np.concatenate(
        [np.arange(16.0).reshape(4, 4, 1), np.zeros((4, 4, 3))], axis=-1))
    assert np.array_equal(transform_W(real).values, real.values)

    point = QSignal.delta(z4, (1, 0), K)
    expected = QSignal.delta(z4, (3, 0), K)
    assert np.array_equal(transform_W(point).values, expected.values)

    f = random_signal(z4, rng)
    assert np.array_equal(transform_W(transform_W(f)).values, f.values)


def test_convolve_refuses_spectra(rng, z4):
    # the sum runs under counting measure, which a dual grid does not carry
    F = random_spectrum(z4, rng)
    with pytest.raises(TypeError, match="signals"):
        convolve(F, F)


def test_transform_w_keeps_the_grid_class(rng, z4):
    F = random_spectrum(z4, rng)
    assert type(transform_W(F)) is QSpectrum
    assert np.array_equal(transform_W(F).values, transform_W(QSignal(z4, F.values)).values)


def test_transform_w_output_owns_its_memory(rng, z8):
    f = random_signal(z8, rng)
    for axes in (DEFAULT_AXES, random_axis_pair(rng)):
        wf = transform_W(f, axes)
        assert not np.shares_memory(wf.values, f.values)
        assert not wf.values.flags.writeable


def test_transform_w_isometries(rng, z8):
    f = random_signal(z8, rng)
    g = random_signal(z8, rng)
    for axes in (DEFAULT_AXES, random_axis_pair(rng)):
        wf, wg = transform_W(f, axes), transform_W(g, axes)
        assert lp_norm(wf, 2) == pytest.approx(lp_norm(f, 2), rel=1e-10)
        assert inner_real(wf, wg) == pytest.approx(inner_real(f, g), rel=1e-10, abs=1e-10)
        lhs = (axes.mu1 * inner_q(f, g)).scalar_part()
        rhs = (axes.mu1 * inner_q(wf, wg)).scalar_part()
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_transform_w_plane_linearity(rng, z8):
    for axes in (DEFAULT_AXES, random_axis_pair(rng)):
        f = random_signal(z8, rng)
        a, b = rng.standard_normal(2)
        z = Quaternion(a) + b * axes.mu1
        lhs = transform_W(f.left_mul(z), axes)
        rhs = transform_W(f, axes).left_mul(z)
        assert np.allclose(lhs.values, rhs.values, atol=1e-12)


def test_transform_beta(rng, z4):
    even_real = np.zeros((4, 4, 4))
    c = np.cos(2 * np.pi * np.arange(4) / 4)
    even_real[..., 0] = np.multiply.outer(c, c)
    g = QSpectrum(z4, even_real)
    assert np.allclose(transform_beta(g).values, g.values, atol=1e-15)

    point = QSpectrum.delta(z4, (1, 1), I)
    expected = QSpectrum.delta(z4, (1, 3), I)
    assert np.array_equal(transform_beta(point).values, expected.values)

    F = random_spectrum(z4, rng)
    assert lp_norm(transform_beta(F), 2) == pytest.approx(lp_norm(F, 2), rel=1e-12)
    with pytest.raises(TypeError, match="spectra"):
        transform_beta(random_signal(z4, rng))
