import tracemalloc
from functools import partial

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
    character_table,
    classical_dft_via_rqft,
    ilqft_direct,
    ilqft_fast,
    inner_q,
    inner_real,
    irqft_direct,
    irqft_fast,
    isqft_direct,
    isqft_fast,
    lp_norm,
    lqft_direct,
    lqft_fast,
    multiplication_pairing,
    random_axis_pair,
    random_signal,
    random_spectrum,
    rqft_direct,
    rqft_fast,
    sqft_direct,
    sqft_fast,
    transform_W,
    transform_beta,
)
from qgft import qft, signal
from qgft.qft import _contract, _fast_qft
from qgft.quat import qconj, qmul
from reference import character_value, defining_sum


def plane_valued(group, rng, axes=DEFAULT_AXES):
    n = group.order
    comps = np.zeros((n, n, 4))
    comps[..., :2] = rng.standard_normal((n, n, 2))
    return QSignal(group, axes.from_frame(comps))


def even_first(f):
    return QSignal(f.group, 0.5 * (f.values + f.values[f.group.neg_perm]))


# --- defining-sum sanity ------------------------------------------------------


def test_rqft_point_mass_and_constant():
    z2 = FiniteAbelianGroup((2,))
    ones = QSpectrum.constant(z2, Quaternion(1.0))
    assert np.allclose(rqft_direct(QSignal.delta(z2)).values, ones.values, atol=1e-15)
    flat = rqft_direct(QSignal.constant(z2, Quaternion(1.0)))
    want = np.zeros((2, 2, 4))
    want[0, 0, 0] = 4.0  # |G|^2 at zero frequency, 0 elsewhere
    assert np.allclose(flat.values, want, atol=1e-12)


def test_rqft_hand_example_z4():
    # f = delta_(1,0) * j on Z_4^2; the spectrum is j * (cos(pi u / 2) - i sin(pi u / 2)),
    # independent of v: j, k, -j, -k for u = 0..3.
    z4 = FiniteAbelianGroup((4,))
    F = rqft_direct(QSignal.delta(z4, (1, 0), J))
    expected_u = [J, K, -J, -K]
    for u in range(4):
        for v in range(4):
            assert np.allclose(F.values[u, v], expected_u[u].to_array(), atol=1e-14)


def test_irqft_basics(rng, z8):
    z2 = FiniteAbelianGroup((2,))
    back = irqft_direct(QSpectrum.constant(z2, Quaternion(1.0)))
    assert np.allclose(back.values, QSignal.delta(z2).values, atol=1e-14)

    f = random_signal(z8, rng)
    assert lp_norm(irqft_direct(rqft_direct(f)) - f, 2) <= 1e-10 * lp_norm(f, 2)


def test_irqft_single_term_oracle(rng, z4):
    # F = delta_w * q inverts to  w(x) = q * k2(v, x2) * k1(u, x1) / |G|^2
    g = z4
    u, v = g.element(1), g.element(3)
    q = Quaternion(*rng.standard_normal(4))
    f = irqft_direct(QSpectrum.delta(g, (u.index, v.index), q))
    w = g.dual_weight
    for x1 in g.elements():
        for x2 in g.elements():
            want = q * character_value(v, x2, J) * character_value(u, x1, I) * w
            assert np.allclose(f.values[x1.index, x2.index], want.to_array(), atol=1e-14)


def test_sqft_relations(rng, z8):
    assert np.allclose(
        sqft_direct(QSignal.delta(z8)).values,
        QSpectrum.constant(z8, Quaternion(1.0)).values,
        atol=1e-14,
    )
    f = random_signal(z8, rng)
    gap = lp_norm(sqft_direct(f) - rqft_direct(transform_W(f)), 2)
    assert gap <= 1e-10 * lp_norm(f, 2)
    fp = plane_valued(z8, rng)
    assert lp_norm(sqft_direct(fp) - rqft_direct(fp), 2) <= 1e-12 * lp_norm(fp, 2)
    fe = even_first(random_signal(z8, rng))
    assert lp_norm(sqft_direct(fe) - rqft_direct(fe), 2) <= 1e-12 * lp_norm(fe, 2)


def test_isqft_inversion_and_reflection_identity(rng, z8):
    z2 = FiniteAbelianGroup((2,))
    assert np.allclose(
        isqft_direct(QSpectrum.constant(z2, Quaternion(1.0))).values,
        QSignal.delta(z2).values,
        atol=1e-14,
    )
    f = random_signal(z8, rng)
    assert lp_norm(isqft_direct(sqft_direct(f)) - f, 2) <= 1e-10 * lp_norm(f, 2)
    F = sqft_direct(random_signal(z8, rng))
    gap = lp_norm(transform_W(isqft_direct(F)) - irqft_direct(F), 2)
    assert gap <= 1e-10 * lp_norm(F, 2)


def test_lqft(rng, z8):
    assert np.allclose(
        lqft_direct(QSignal.delta(z8)).values,
        QSpectrum.constant(z8, Quaternion(1.0)).values,
        atol=1e-14,
    )
    # real-valued signals commute past the kernels
    vals = np.zeros((8, 8, 4))
    vals[..., 0] = np.random.default_rng(5).standard_normal((8, 8))
    fr = QSignal(z8, vals)
    assert lp_norm(lqft_direct(fr) - rqft_direct(fr), 2) <= 1e-12 * lp_norm(fr, 2)
    f = random_signal(z8, rng)
    assert abs(lp_norm(lqft_direct(f), 2) - lp_norm(f, 2)) <= 1e-10 * lp_norm(f, 2)


# --- operator-level properties --------------------------------------------------


def test_plancherel_and_parseval(rng, z8, z3x4):
    for g in (z8, z3x4):
        f = random_signal(g, rng)
        h = random_signal(g, rng)
        assert abs(lp_norm(rqft_direct(f), 2) - lp_norm(f, 2)) <= 1e-10 * lp_norm(f, 2)
        p = inner_q(f, h).to_array()
        q = inner_q(rqft_direct(f), rqft_direct(h)).to_array()
        assert np.abs(p - q).max() <= 1e-10 * lp_norm(f, 2) * lp_norm(h, 2)


def test_unitary_onto(rng, z8):
    F = random_spectrum(z8, rng)
    assert lp_norm(rqft_direct(irqft_direct(F)) - F, 2) <= 1e-10 * lp_norm(F, 2)


def test_uniqueness_via_round_trip(rng, z8):
    f = random_signal(z8, rng)
    g = irqft_direct(rqft_direct(f))
    assert lp_norm(rqft_direct(g) - rqft_direct(f), 2) <= 1e-11 * lp_norm(f, 2)
    assert lp_norm(g - f, np.inf) < 1e-9


def test_sup_bound(rng, z8):
    f = random_signal(z8, rng)
    assert lp_norm(rqft_direct(f), np.inf) <= lp_norm(f, 1) * (1 + 1e-12)


def test_rqft_left_h_linearity(rng, z8):
    f = random_signal(z8, rng)
    q = Quaternion(*rng.standard_normal(4))
    d = rqft_direct(f.left_mul(q)) - rqft_direct(f).left_mul(q)
    assert lp_norm(d, 2) <= 1e-10 * lp_norm(f, 2) * q.norm()


def test_sqft_partial_linearity(rng, z8):
    f = random_signal(z8, rng)
    a, b = rng.standard_normal(2)
    z = Quaternion(a) + b * I
    w = Quaternion(a) + b * J
    assert lp_norm(sqft_direct(f.left_mul(z)) - sqft_direct(f).left_mul(z), 2) \
        <= 1e-10 * lp_norm(f, 2) * z.norm()
    assert lp_norm(sqft_direct(f.right_mul(w)) - sqft_direct(f).right_mul(w), 2) \
        <= 1e-10 * lp_norm(f, 2) * w.norm()
    # full left H-linearity fails for the sandwiched transform
    d = sqft_direct(f.left_mul(J)) - sqft_direct(f).left_mul(J)
    assert lp_norm(d, 2) > 1e-3 * lp_norm(f, 2)


def test_adjoint_pairing(rng, z8):
    f = random_signal(z8, rng)
    g = random_spectrum(z8, rng)
    lhs = inner_real(sqft_direct(f), g)
    rhs = inner_real(transform_W(f), irqft_direct(g))
    assert abs(lhs - rhs) <= 1e-10 * lp_norm(f, 2) * lp_norm(g, 2)


def test_component_parseval_sqft(rng, z8):
    f, g = random_signal(z8, rng), random_signal(z8, rng)
    scale = lp_norm(f, 2) * lp_norm(g, 2)
    p = inner_q(f, g).to_array()
    q = inner_q(sqft_direct(f), sqft_direct(g)).to_array()
    assert np.abs(p[:2] - q[:2]).max() <= 1e-10 * scale
    for make in (lambda: plane_valued(z8, rng), lambda: even_first(random_signal(z8, rng))):
        a, b = make(), make()
        pa = inner_q(a, b).to_array()
        qa = inner_q(sqft_direct(a), sqft_direct(b)).to_array()
        assert np.abs(pa - qa).max() <= 1e-10 * lp_norm(a, 2) * lp_norm(b, 2)


def test_degenerate_single_point_group(rng):
    z1 = FiniteAbelianGroup((1,))
    f = random_signal(z1, rng)
    for fwd in (rqft_direct, sqft_direct, lqft_direct, rqft_fast, sqft_fast, lqft_fast):
        assert np.allclose(fwd(f).values, f.values, atol=1e-15)
    F = random_spectrum(z1, rng)
    for inv in (irqft_direct, isqft_direct, ilqft_direct, irqft_fast, isqft_fast, ilqft_fast):
        assert np.allclose(inv(F).values, F.values, atol=1e-15)


# --- the contraction behind the direct evaluators --------------------------------


def test_contract_matches_literal_sum(rng, z3x4):
    # a random table is not symmetric, so index order and Hamilton signs are
    # checked apart from the character tables
    n = z3x4.order
    k = rng.standard_normal((n, n, 4))
    v = rng.standard_normal((n, n, 4))
    assert not np.allclose(k, k.swapaxes(0, 1))
    literal = {
        (0, True): qmul(k[:, :, None, :], v[None, :, :, :]).sum(axis=1),
        (0, False): qmul(v[None, :, :, :], k[:, :, None, :]).sum(axis=1),
        (1, True): qmul(k[None, :, :, :], v[:, None, :, :]).sum(axis=2),
        (1, False): qmul(v[:, None, :, :], k[None, :, :, :]).sum(axis=2),
    }
    for (axis, left), want in literal.items():
        np.testing.assert_allclose(_contract(v, k, axis, left), want, rtol=0, atol=1e-12)


def test_direct_matches_literal_sums(rng):
    # the module docstring's kernel placement broadcast over (u, v, x1, x2),
    # so a wrong side or order in any evaluator's stage list shows
    g = FiniteAbelianGroup((2, 3))
    axes = random_axis_pair(rng)
    f, F = random_signal(g, rng), random_spectrum(g, rng)
    k1 = character_table(g, axes.mu1)[:, None, :, None]  # k1[u, x1]
    k2 = character_table(g, axes.mu2)[None, :, None, :]  # k2[v, x2]
    c1, c2 = qconj(k1), qconj(k2)
    fx, Fu = f.values[None, None], F.values[:, :, None, None]
    forward = {
        rqft_direct: qmul(qmul(fx, c1), c2),
        sqft_direct: qmul(qmul(c1, fx), c2),
        lqft_direct: qmul(qmul(c1, c2), fx),
    }
    inverse = {
        irqft_direct: qmul(qmul(Fu, k2), k1),
        isqft_direct: qmul(qmul(k1, Fu), k2),
        ilqft_direct: qmul(qmul(k2, k1), Fu),
    }
    for direct, terms in forward.items():
        np.testing.assert_allclose(direct(f, axes).values, terms.sum(axis=(2, 3)),
                                   rtol=0, atol=1e-12)
    for direct, terms in inverse.items():
        np.testing.assert_allclose(direct(F, axes).values,
                                   terms.sum(axis=(0, 1)) * g.dual_weight, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mods", [(1,), (5,), (3, 4), (2, 2, 3), (16,), (33,)])
def test_oracle_matches_its_earlier_form_bit_for_bit(monkeypatch, rng, mods):
    # every direct evaluator's stage list and both pairing orders, against
    # per-table characters and the tensordot/moveaxis contraction; alone, and
    # twice more in a verify run's scope, where the second pass reads every
    # stage matrix from the memo (none is kept above TINY_CORE_MAX)
    g = FiniteAbelianGroup(mods)
    f, F = random_signal(g, rng), random_spectrum(g, rng)
    calls = [partial(fn, f) for fn in (rqft_direct, sqft_direct, lqft_direct)]
    calls += [partial(fn, F) for fn in (irqft_direct, isqft_direct, ilqft_direct)]
    calls += [partial(multiplication_pairing, f, F, kernel_order=order)
              for order in ("mu1-mu2", "mu2-mu1")]

    def arrays(result):
        if isinstance(result, tuple):
            return np.stack([q.to_array() for q in result])
        return result.values

    for axes in (DEFAULT_AXES, random_axis_pair(rng)):
        got = [arrays(call(axes=axes)) for call in calls]
        with qft._stage_memo():
            got += [arrays(call(axes=axes)) for _ in range(2) for call in calls]
        with monkeypatch.context() as m:
            m.setattr(qft, "_defining_sum", defining_sum)
            want = [arrays(call(axes=axes)) for call in calls]
        assert len(got) == 3 * len(want)
        for a, b in zip(got, want * 3):
            assert np.array_equal(a, b)


def test_direct_working_set_is_quadratic(rng):
    # the (|G|, |G|, |G|, 4) broadcast temporaries are gone: each call peaks
    # at a small multiple of one (|G|, |G|, 4) payload
    g = FiniteAbelianGroup((64,))
    f, F = random_signal(g, rng), random_spectrum(g, rng)
    calls = [partial(fn, f) for fn in (rqft_direct, sqft_direct, lqft_direct)]
    calls += [partial(fn, F) for fn in (irqft_direct, isqft_direct, ilqft_direct)]
    calls += [partial(multiplication_pairing, f, F, kernel_order=order)
              for order in ("mu1-mu2", "mu2-mu1")]
    for call in calls:
        call()  # warm the group's cached tables
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * f.values.nbytes


# --- general axes ------------------------------------------------------------


def test_transforms_with_random_axes(rng, z8):
    for _ in range(3):
        axes = random_axis_pair(rng)
        f = random_signal(z8, rng)
        F = rqft_direct(f, axes)
        assert lp_norm(irqft_direct(F, axes) - f, 2) <= 1e-10 * lp_norm(f, 2)
        assert abs(lp_norm(F, 2) - lp_norm(f, 2)) <= 1e-10 * lp_norm(f, 2)
        S = sqft_direct(f, axes)
        assert lp_norm(S - rqft_direct(transform_W(f, axes), axes), 2) \
            <= 1e-10 * lp_norm(f, 2)
        assert lp_norm(isqft_direct(S, axes) - f, 2) <= 1e-10 * lp_norm(f, 2)


# --- fast paths ---------------------------------------------------------------


@pytest.mark.parametrize("mods", [(32,), (12,), (5,), (3, 4), (2, 2, 3)])
def test_fast_matches_direct(rng, mods):
    g = FiniteAbelianGroup(mods)
    f = random_signal(g, rng)
    F = random_spectrum(g, rng)
    pairs = [
        (rqft_fast, rqft_direct, f),
        (sqft_fast, sqft_direct, f),
        (lqft_fast, lqft_direct, f),
        (irqft_fast, irqft_direct, F),
        (isqft_fast, isqft_direct, F),
        (ilqft_fast, ilqft_direct, F),
    ]
    for axes in (DEFAULT_AXES, random_axis_pair(rng)):
        for fast, direct, x in pairs:
            assert lp_norm(fast(x, axes) - direct(x, axes), 2) <= 1e-9 * lp_norm(x, 2)


def test_fast_reproduces_trivial_cases(z8):
    ones = QSpectrum.constant(z8, Quaternion(1.0))
    assert np.allclose(rqft_fast(QSignal.delta(z8)).values, ones.values, atol=1e-13)
    flat = rqft_fast(QSignal.constant(z8, Quaternion(1.0)))
    want = np.zeros((8, 8, 4))
    want[0, 0, 0] = 64.0
    assert np.allclose(flat.values, want, atol=1e-11)


def test_fast_with_random_axes(rng, z8):
    axes = random_axis_pair(rng)
    f = random_signal(z8, rng)
    F = random_spectrum(z8, rng)
    assert lp_norm(rqft_fast(f, axes) - rqft_direct(f, axes), 2) <= 1e-9 * lp_norm(f, 2)
    assert lp_norm(isqft_fast(F, axes) - isqft_direct(F, axes), 2) <= 1e-9 * lp_norm(F, 2)
    assert lp_norm(ilqft_fast(F, axes) - ilqft_direct(F, axes), 2) <= 1e-9 * lp_norm(F, 2)


@pytest.mark.parametrize("mods", [(64,), (7, 9)])
def test_fast_relations(rng, mods):
    # the paper's relations between the kinds on the fast path alone, at
    # 1e-12 and on groups beyond the Z_32 of the oracle comparisons
    g = FiniteAbelianGroup(mods)
    f, F = random_signal(g, rng), random_spectrum(g, rng)
    f_as_spectrum, F_as_signal = QSpectrum(g, f.values), QSignal(g, F.values)
    s = float(g.order) ** 2
    for axes in (DEFAULT_AXES, random_axis_pair(rng)):
        pairs = [
            (sqft_fast(f, axes), rqft_fast(transform_W(f, axes), axes)),
            (isqft_fast(F, axes), transform_W(irqft_fast(F, axes), axes)),
            (lqft_fast(f, axes), s * irqft_fast(f_as_spectrum.conj(), axes).conj()),
            (ilqft_fast(F, axes), rqft_fast(F_as_signal.conj(), axes).conj() * (1 / s)),
        ]
        for got, want in pairs:
            gap = np.linalg.norm(got.values - want.values)
            assert gap <= 1e-12 * np.linalg.norm(want.values)


@pytest.mark.parametrize("mods", [(1,), (8,), (3, 4)])
def test_fast_outputs_own_their_memory(rng, mods):
    g = FiniteAbelianGroup(mods)
    f, F = random_signal(g, rng), random_spectrum(g, rng)
    pairs = [(rqft_fast, f), (sqft_fast, f), (lqft_fast, f),
             (irqft_fast, F), (isqft_fast, F), (ilqft_fast, F)]
    for axes in (DEFAULT_AXES, random_axis_pair(rng)):
        for fast, x in pairs:
            out = fast(x, axes)
            assert not np.shares_memory(out.values, x.values)
            assert not out.values.flags.writeable


def test_fast_overflow_still_raises(z8):
    f = QSignal(z8, np.full((8, 8, 4), 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            rqft_fast(f)


def test_fast_core_rejects_mistyped_flip(rng, z8):
    f = random_signal(z8, rng)
    with pytest.raises(AssertionError):
        _fast_qft(f, DEFAULT_AXES, False, False, "befor")


# --- the frame change composed into the fast core --------------------------------

FRAME_OPS = [rqft_fast, sqft_fast, lqft_fast, irqft_fast, isqft_fast, ilqft_fast,
             transform_W, transform_beta]


def _op_input(op, g, rng):
    spectral = op in (irqft_fast, isqft_fast, ilqft_fast, transform_beta)
    return random_spectrum(g, rng) if spectral else random_signal(g, rng)


def _rel_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("mods", [(1,), (2,), (8,), (16,), (3, 4), (2, 2, 3), (1, 2, 1, 3),
                                  (4, 8), (32,)])
def test_tiny_core_matches_the_pocketfft_core(monkeypatch, rng, mods):
    # up to TINY_CORE_MAX the whole core is two matrix products; a limit of 0
    # runs the maps, FFTs and row swap at every order
    g = FiniteAbelianGroup(mods)
    assert g.order <= qft.TINY_CORE_MAX
    for axes in (DEFAULT_AXES, random_axis_pair(rng)):
        for op in FRAME_OPS[:6]:
            x = _op_input(op, g, rng)
            tiny = op(x, axes).values
            with monkeypatch.context() as m:
                m.setattr(qft, "TINY_CORE_MAX", 0)
                assert _rel_gap(tiny, op(x, axes).values) <= 1e-13, op.__name__


@pytest.mark.parametrize("mods", [(3, 4), (8,)])
def test_fast_core_ignores_the_dft_matrix_limit(monkeypatch, rng, mods):
    # the DFT matrices serve only whole-grid DFTs: with the two products off,
    # the core's own DFTs are pocketfft calls whatever DFT_MATRIX_MAX says
    g = FiniteAbelianGroup(mods)
    assert g.order <= signal.DFT_MATRIX_MAX
    monkeypatch.setattr(qft, "TINY_CORE_MAX", 0)
    for axes in (DEFAULT_AXES, random_axis_pair(rng)):
        for op in FRAME_OPS[:6]:
            x = _op_input(op, g, rng)
            matrices = op(x, axes).values
            with monkeypatch.context() as m:
                m.setattr(signal, "DFT_MATRIX_MAX", 0)
                assert np.array_equal(matrices, op(x, axes).values), op.__name__


def test_tiny_core_cache_is_bounded(rng):
    # Z_1 factors make infinitely many groups of one order, and the default
    # axis pair lives as long as the module
    rqft_fast(random_signal(FiniteAbelianGroup((4,)), rng))
    pair_maps = len(DEFAULT_AXES._maps)
    for k in range(1, 101):
        rqft_fast(random_signal(FiniteAbelianGroup((1,) * k + (4,)), rng))
    info = qft._tiny_core.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    assert len(DEFAULT_AXES._maps) == pair_maps


# (5, 7) is above TINY_CORE_MAX, where the maps run as blocked bin maps
@pytest.mark.parametrize("mods", [(1,), (2,), (8,), (3, 4), (2, 2, 3), (6,), (5, 7)])
def test_composed_frame_change_matches_two_steps(rng, mods):
    # the old path as oracle: into the frame, the default-axes op, back out
    g = FiniteAbelianGroup(mods)
    axes = random_axis_pair(rng)
    for op in FRAME_OPS:
        x = _op_input(op, g, rng)
        two_step = op(type(x)(g, axes.to_frame(x.values)), DEFAULT_AXES)
        assert _rel_gap(op(x, axes).values, axes.from_frame(two_step.values)) <= 1e-14


@pytest.mark.parametrize("block_bytes", [1, 1000])
def test_blocked_maps_match_one_block(rng, monkeypatch, block_bytes):
    # 1 byte: one row (or row pair) per block; 1000 bytes: 2 to 5 rows, some blocks short
    for mods in [(8,), (3, 4), (6,), (2, 2, 3), (5, 7)]:
        g = FiniteAbelianGroup(mods)
        for axes in (DEFAULT_AXES, random_axis_pair(rng)):
            for op in FRAME_OPS:
                x = _op_input(op, g, rng)
                whole = op(x, axes).values
                with monkeypatch.context() as m:
                    m.setattr(signal, "_BLOCK_BYTES", block_bytes)
                    assert _rel_gap(op(x, axes).values, whole) <= 1e-15


@pytest.mark.parametrize("mods", [(256,), (16, 16)])
def test_fast_working_set_is_one_payload(rng, mods):
    # apart from the result, a fast evaluator allocates nothing of payload
    # size, with any axes: the frame change rides in the entry and exit maps
    g = FiniteAbelianGroup(mods)
    f, F = random_signal(g, rng), random_spectrum(g, rng)
    calls = [(rqft_fast, f, 1), (lqft_fast, f, 1), (irqft_fast, F, 1),
             (isqft_fast, F, 1), (ilqft_fast, F, 1), (transform_W, f, 1),
             (sqft_fast, f, 2)]  # sqft_fast is rqft_fast of transform_W
    for axes in (DEFAULT_AXES, random_axis_pair(rng)):
        for op, x, results in calls:
            op(x, axes)  # warm the cached maps and tables
            tracemalloc.start()
            try:
                op(x, axes)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < (results + 0.25) * x.values.nbytes, op.__name__


@pytest.mark.parametrize("mods", [(256,), (16, 16)])
def test_fast_working_set_on_two_threads(monkeypatch, rng, mods):
    # the same bound with each phase of the core in halves on two threads,
    # both halves' block scratch alive at once
    monkeypatch.setattr(qft, "PARALLEL_DFT_MIN", 2)
    test_fast_working_set_is_one_payload(rng, mods)


# --- multiplication pairing -----------------------------------------------------


def test_pairing_delta_against_ones(z8):
    f = QSignal.delta(z8)
    g = QSpectrum.constant(z8, Quaternion(1.0))
    lhs, rhs = multiplication_pairing(f, g)
    assert np.allclose(lhs.to_array(), [1, 0, 0, 0], atol=1e-12)
    assert np.allclose(rhs.to_array(), [1, 0, 0, 0], atol=1e-12)


def test_pairing_real_valued(rng, z8):
    fv = np.zeros((8, 8, 4))
    fv[..., 0] = rng.standard_normal((8, 8))
    gv = np.zeros((8, 8, 4))
    gv[..., 0] = rng.standard_normal((8, 8))
    f, g = QSignal(z8, fv), QSpectrum(z8, gv)
    lhs, rhs = multiplication_pairing(f, g)
    assert (lhs - rhs).norm() <= 1e-10 * lp_norm(f, 1) * lp_norm(g, 1)


def test_pairing_quaternion_valued_and_order_arbitration(rng, z8):
    f = random_signal(z8, rng)
    g = random_spectrum(z8, rng)
    scale = lp_norm(f, 1) * lp_norm(g, 1)
    lhs, rhs = multiplication_pairing(f, g)
    assert (lhs - rhs).norm() <= 1e-10 * scale
    # the reversed kernel order does not satisfy the identity
    lhs2, rhs2 = multiplication_pairing(f, g, kernel_order="mu2-mu1")
    assert (lhs2 - rhs2).norm() > 1e-6 * scale
    with pytest.raises(ValueError, match="kernel_order"):
        multiplication_pairing(f, g, kernel_order="sideways")


# --- classical embedding ---------------------------------------------------------


def quadratic_dft(z):
    n = len(z)
    return np.array(
        [sum(z[x] * np.exp(-2j * np.pi * u * x / n) for x in range(n)) for u in range(n)]
    )


def test_classical_delta(z4):
    got = classical_dft_via_rqft(np.array([1, 0, 0, 0], dtype=complex), z4)
    assert np.allclose(got, np.ones(4), atol=1e-13)


def test_classical_pure_tone(z4):
    f = np.array([1, 1j, -1, -1j])
    got = classical_dft_via_rqft(f, z4)
    assert np.allclose(got, [0, 4, 0, 0], atol=1e-13)


@pytest.mark.parametrize("n", [4, 8, 7])
def test_classical_matches_oracle(rng, n):
    g = FiniteAbelianGroup((n,))
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = classical_dft_via_rqft(z, g)
    assert np.abs(got - quadratic_dft(z)).max() <= 1e-10 * max(1.0, np.abs(z).sum())


def test_classical_quaternion_input(z8):
    # the input is complex only: a (|G|, 4) quaternion array is refused
    with pytest.raises(ValueError, match=r"expected shape \(8,\) complex, got \(8, 4\)"):
        classical_dft_via_rqft(np.zeros((8, 4)), z8)
