import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgft import (
    AxisPair,
    DEFAULT_AXES,
    I,
    J,
    K,
    ONE,
    Quaternion,
    random_axis_pair,
)
from qgft.quat import qconj, qmul
from reference import (
    component_in_frame,
    quaternion_in_frame,
    symplectic_join,
    symplectic_split,
)

# Independent multiplication oracle: expand (a+bi+cj+dk)(a'+b'i+c'j+d'k)
# into all 16 basis products and fold with this sign/basis table.
_BASIS = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def reference_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    out = [0.0, 0.0, 0.0, 0.0]
    pa, qa = p.to_array(), q.to_array()
    for a in range(4):
        for b in range(4):
            sign, idx = _BASIS[(a, b)]
            out[idx] += sign * pa[a] * qa[b]
    return Quaternion(*out)


finite = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def test_basis_products():
    assert I * J == K
    assert J * I == -K
    assert K * I == J
    assert I * K == -J
    assert J * K == I
    assert I * I == J * J == K * K == Quaternion(-1.0)


def test_one_plus_i_times_one_plus_j():
    p = Quaternion(1, 1, 0, 0)
    q = Quaternion(1, 0, 1, 0)
    expected = Quaternion(1, 1, 1, 1)
    assert reference_mul(p, q) == expected
    assert p * q == expected


@given(quats)
def test_identity_element(q):
    assert q * ONE == q
    assert ONE * q == q


def test_conjugation_examples():
    assert Quaternion(1, 1, 1, 1).conj() == Quaternion(1, -1, -1, -1)
    assert Quaternion(5).conj() == Quaternion(5)
    # conj(i*j) = conj(j)*conj(i) = (-j)(-i) = ji = -k
    assert (I * J).conj() == reference_mul(J.conj(), I.conj()) == -K


@given(quats, quats)
def test_mul_matches_reference(p, q):
    got = (p * q).to_array()
    want = reference_mul(p, q).to_array()
    assert np.allclose(got, want, rtol=1e-14, atol=1e-12)


@given(quats, quats)
def test_conj_antihomomorphism_exact(p, q):
    # Bitwise, by construction of the product's term grouping.
    assert (p * q).conj() == q.conj() * p.conj()


@given(quats)
def test_conj_involution_exact(q):
    assert q.conj().conj() == q


@given(quats, quats)
def test_scalar_part_trace_symmetry(p, q):
    assert (p * q).scalar_part() == (q * p).scalar_part()


@given(quats, quats)
def test_norm_multiplicative(p, q):
    assert math.isclose((p * q).norm(), p.norm() * q.norm(), rel_tol=1e-12, abs_tol=1e-12)


def test_norm_and_parts():
    assert Quaternion(1, 1, 1, 1).norm() == 2.0
    q = Quaternion(3, 2, 0, 0)
    assert q.scalar_part() == 3.0
    assert q.vector_part() == Quaternion(0, 2, 0, 0)
    assert q.scalar_part() * ONE + q.vector_part() == q
    # |q|^2 against the component sum
    assert q.norm() ** 2 == pytest.approx(sum(c * c for c in q.to_array()))


def test_inverse():
    inv = I.inverse()
    assert inv == -I
    assert reference_mul(I, inv) == ONE
    q = Quaternion(0.5, -2.0, 3.0, 1.25)
    for prod in (q * q.inverse(), q.inverse() * q):
        assert np.allclose(prod.to_array(), ONE.to_array(), atol=1e-12)
    with pytest.raises(ZeroDivisionError, match="zero quaternion has no inverse"):
        Quaternion().inverse()


@given(quats)
@settings(max_examples=200)
def test_inverse_property(q):
    if q.norm() < 1e-6:
        return
    assert np.allclose((q * q.inverse()).to_array(), ONE.to_array(), atol=1e-12)


def test_array_kernels_match_scalar(rng):
    p = rng.standard_normal((5, 4))
    q = rng.standard_normal((5, 4))
    got = qmul(p, q)
    for r in range(5):
        want = Quaternion(*p[r]) * Quaternion(*q[r])
        assert np.allclose(got[r], want.to_array(), atol=1e-13)
    assert np.array_equal(qconj(qmul(p, q)), qmul(qconj(q), qconj(p)))


# --- axis pairs and frames --------------------------------------------------


def test_axis_pair_validation():
    with pytest.raises(ValueError, match="unit pure-imaginary"):
        AxisPair(Quaternion(0, 2, 0, 0), J)  # not unit
    with pytest.raises(ValueError, match="unit pure-imaginary"):
        AxisPair(Quaternion(0.5, 1, 0, 0), J)  # not pure
    with pytest.raises(ValueError, match="perpendicular"):
        AxisPair(I, I)
    # construction rejects what is out of tolerance and makes exact what it accepts
    with pytest.raises(ValueError):
        AxisPair(Quaternion(0, 1 + 1e-6, 0, 0), J)
    assert AxisPair(Quaternion(1e-10, 1 + 1e-10, 0, 0), Quaternion(0, 1e-10, -1, 0)) == AxisPair(I, -J)
    axes = AxisPair(Quaternion(0, 0.6, 0.8 + 1e-10, 0), Quaternion(0, 0.8, -0.6, 1e-10))
    for mu in (axes.mu1, axes.mu2):
        assert mu.w == 0.0 and abs(mu.norm() - 1.0) <= 2e-16
    assert abs((axes.mu1 * axes.mu2.conj()).scalar_part()) <= 1e-16
    assert AxisPair(I, J) == DEFAULT_AXES and DEFAULT_AXES.mu3 == K


def test_axis_pair_mu3(rng):
    assert DEFAULT_AXES.mu3 == K
    for _ in range(20):
        axes = random_axis_pair(rng)
        mu3 = axes.mu3
        assert mu3.is_unit_pure_imaginary(1e-12)
        assert abs((axes.mu1 * mu3.conj()).scalar_part()) < 1e-12
        assert abs((axes.mu2 * mu3.conj()).scalar_part()) < 1e-12


def test_frame_multiplication_table(rng):
    # {1, mu1, mu2, mu3} obeys the same table as {1, i, j, k}
    for _ in range(10):
        axes = random_axis_pair(rng)
        m1, m2, m3 = axes.mu1, axes.mu2, axes.mu3
        assert np.allclose((m1 * m2).to_array(), m3.to_array(), atol=1e-12)
        assert np.allclose((m2 * m1).to_array(), (-m3).to_array(), atol=1e-12)
        assert np.allclose((m2 * m3).to_array(), m1.to_array(), atol=1e-12)
        assert np.allclose((m3 * m1).to_array(), m2.to_array(), atol=1e-12)


def test_component_in_frame_examples():
    assert component_in_frame(K, DEFAULT_AXES) == (0, 0, 0, 1)
    q = Quaternion(0.5, -1.5, 2.0, 3.0)
    assert component_in_frame(q, DEFAULT_AXES) == (0.5, -1.5, 2.0, 3.0)


def _frame_coords_oracle(q: Quaternion, axes: AxisPair) -> np.ndarray:
    # Solve the 4x4 linear system q = a*1 + b*mu1 + c*mu2 + d*mu3.
    basis = np.stack(
        [ONE.to_array(), axes.mu1.to_array(), axes.mu2.to_array(), axes.mu3.to_array()],
        axis=1,
    )
    return np.linalg.solve(basis, q.to_array())


def test_component_in_frame_random(rng):
    for _ in range(50):
        axes = random_axis_pair(rng)
        q = Quaternion(*rng.standard_normal(4))
        comps = component_in_frame(q, axes)
        assert np.allclose(comps, _frame_coords_oracle(q, axes), atol=1e-12)
        back = quaternion_in_frame(comps, axes)
        assert np.allclose(back.to_array(), q.to_array(), atol=1e-12)


def test_symplectic_split_examples():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    c1, c2 = symplectic_split(q, DEFAULT_AXES)
    assert (c1, c2) == (1 + 2j, 3 + 4j)
    assert symplectic_split(Quaternion(7.0)) == (7 + 0j, 0j)
    assert symplectic_split(J) == (0j, 1 + 0j)


def test_symplectic_split_reassembly(rng):
    for _ in range(50):
        axes = random_axis_pair(rng)
        q = Quaternion(*rng.standard_normal(4))
        c1, c2 = symplectic_split(q, axes)
        # q = c1 + c2 * mu2 with c1, c2 in the plane span{1, mu1}
        z1 = Quaternion(c1.real) + c1.imag * axes.mu1
        z2 = Quaternion(c2.real) + c2.imag * axes.mu1
        rebuilt = z1 + z2 * axes.mu2
        assert np.allclose(rebuilt.to_array(), q.to_array(), atol=1e-12)
        assert np.allclose(
            symplectic_join(c1, c2, axes).to_array(), q.to_array(), atol=1e-12
        )


def test_plane_commutation_rule(rng):
    # z * mu2 == mu2 * conj_plane(z) for z in span{1, mu1}; this is the
    # identity every fast-path factorization rests on.
    for _ in range(50):
        axes = random_axis_pair(rng)
        a, b = rng.standard_normal(2)
        z = Quaternion(a) + b * axes.mu1
        z_conj = Quaternion(a) - b * axes.mu1
        lhs = z * axes.mu2
        rhs = axes.mu2 * z_conj
        assert np.allclose(lhs.to_array(), rhs.to_array(), atol=1e-12)
