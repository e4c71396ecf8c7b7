import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgft import (
    DEFAULT_AXES,
    FiniteAbelianGroup,
    I,
    QSignal,
    Quaternion,
    character_table,
    random_axis_pair,
    translate,
)
from qgft.quat import qabs
from reference import character_value

coords3 = st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))


@given(coords3, coords3, coords3)
def test_group_law_properties(a, b, c):
    g = FiniteAbelianGroup((2, 3, 5))
    x, y, z = g.element(a), g.element(b), g.element(c)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + g.zero() == x
    assert x + (-x) == g.zero()
    assert 0 <= x.index < g.order and g.element_at(x.index) == x


def test_constructor_validation():
    with pytest.raises(ValueError):
        FiniteAbelianGroup(())
    with pytest.raises(ValueError):
        FiniteAbelianGroup((0,))
    assert FiniteAbelianGroup(6).moduli == (6,)
    assert FiniteAbelianGroup((3, 4)).order == 12
    for bad in ((2.7,), (3, 2.0), ("3",), 2.7, None, "3"):  # int() would truncate or parse these
        with pytest.raises(ValueError, match="positive integers"):
            FiniteAbelianGroup(bad)
    moduli = FiniteAbelianGroup((np.int64(3), 4)).moduli
    assert moduli == (3, 4) and all(type(n) is int for n in moduli)
    for scalar in (np.int64(5), np.uint8(5)):
        assert FiniteAbelianGroup(scalar) == FiniteAbelianGroup(5)
        assert type(FiniteAbelianGroup(scalar).moduli[0]) is int


def test_group_law(z4):
    a = z4.element(3)
    b = z4.element(2)
    assert (a + b).coords == (1,)
    assert (-z4.zero()) == z4.zero()
    g = FiniteAbelianGroup((3, 5))
    assert (-g.element((1, 2))).coords == (2, 3)
    assert (g.element((1, 2)) - g.element((2, 4))).coords == (2, 3)


def test_cross_group_raises(z4, z8):
    with pytest.raises(ValueError, match="different groups"):
        z4.element(1) + z8.element(1)
    with pytest.raises(ValueError):
        z8.index_of(z4.element(1))
    with pytest.raises(ValueError, match="shift element belongs to a different group"):
        z4.shift_perm(z8.element(1))
    with pytest.raises(ValueError, match="expected 2 coordinates, got 1"):
        FiniteAbelianGroup((3, 5)).element((1,))


def test_coordinates_are_exact_integers(z4):
    # int() would truncate these to the elements 1 and 2
    for bad in ((1.7,), (2.9,), (2.0,)):
        with pytest.raises(TypeError):
            z4.element(bad)
    with pytest.raises(TypeError):
        translate(QSignal.delta(z4, (1, 0)), ((1.7,), (0.2,)))
    assert z4.element((np.int64(3),)).coords == (3,)
    assert all(type(c) is int for c in z4.element((np.int64(3),)).coords)
    assert z4.element(-1).coords == (3,)
    for i in (np.int64(3), np.uint8(7), np.array(3)):  # any integer, as in index_of
        assert z4.element(i).coords == (3,) and type(z4.element(i).coords[0]) is int
    with pytest.raises(TypeError):
        z4.element(np.float64(3.0))
    assert FiniteAbelianGroup((3, 5)).element((-1, 7)).coords == (2, 2)


def test_index_of_resolves_elements_and_indices(z4, z8):
    assert z4.index_of(z4.element(3)) == 3 and z4.index_of(np.int64(2)) == 2
    with pytest.raises(ValueError, match="different group"):
        z8.index_of(z4.element(1))
    for bad in (-1, 4):
        with pytest.raises(IndexError, match="out of range"):
            z4.index_of(bad)
        with pytest.raises(IndexError, match="out of range"):
            z4.element_at(bad)
    for bad in (1.0, 2.5, "1"):
        with pytest.raises(TypeError):
            z4.index_of(bad)
        with pytest.raises(TypeError):
            z4.element_at(bad)


def test_groups_of_any_rank(rng):
    # numpy arrays take at most 64 dimensions and np.meshgrid 32 inputs
    for moduli in ((17,) + (1,) * 32, (2,) + (1,) * 70, (1, 3) + (1,) * 40 + (4, 1)):
        g = FiniteAbelianGroup(moduli)
        c = g.coords_matrix
        assert c.shape == (g.order, g.rank)
        # every cached table is shared by all callers, so none can be written
        tables = [c, g.neg_perm, *g.neg_swaps, g.angle_table, *g.dft_matrices.values(),
                  g.difference_table, random_axis_pair(rng).frame_matrix, DEFAULT_AXES.frame_matrix]
        assert not any(t.flags.writeable for t in tables)
        assert [el.index for el in g.elements()] == list(range(g.order))
        assert np.array_equal(c[:, [m > 1 for m in moduli]],
                              FiniteAbelianGroup(tuple(m for m in moduli if m > 1)).coords_matrix)


def test_enumeration_order():
    g = FiniteAbelianGroup((2, 2))
    assert [el.coords for el in g.elements()] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(FiniteAbelianGroup((3, 5)).elements()) == 15
    for i, el in enumerate(g.elements()):
        assert el.index == i
        assert g.element_at(i) == el
    with pytest.raises(IndexError):
        g.element_at(4)


def test_negation_is_an_index_involution(z8, z3x4):
    for g in (z8, z3x4):
        p = g.neg_perm
        assert sorted(p) == list(range(g.order))
        assert np.array_equal(p[p], np.arange(g.order))
        for el in g.elements():
            assert p[el.index] == (-el).index


def test_neg_swaps_pair_the_moved_indices(z8):
    z6, z2x2x3 = FiniteAbelianGroup((6,)), FiniteAbelianGroup((2, 2, 3))
    moved, partner = z6.neg_swaps
    assert moved.tolist() == [1, 5, 2, 4] and partner.tolist() == [5, 1, 4, 2]  # 0, 3 fixed
    for g in (z6, z8, z2x2x3, FiniteAbelianGroup((1,))):
        p = g.neg_perm
        moved, partner = g.neg_swaps
        assert np.array_equal(p[moved], partner)
        assert np.array_equal(moved.reshape(-1, 2)[:, ::-1].reshape(-1), partner)
        fixed = np.flatnonzero(p == np.arange(g.order))
        assert sorted([*moved, *fixed]) == list(range(g.order))


def test_haar_weights():
    z2 = FiniteAbelianGroup((2,))
    assert z2.primal_weight == 1.0
    assert z2.dual_weight == 0.25
    assert FiniteAbelianGroup((8,)).dual_weight == 1.0 / 64.0
    for mods in [(8,), (15,), (3, 4), (7,)]:
        g = FiniteAbelianGroup(mods)
        # total dual mass is 1 up to one rounding of 1/|G|^2
        assert abs(g.dual_weight * g.order**2 - 1.0) <= np.finfo(float).eps
        assert g.primal_weight * g.order**2 == float(g.order**2)


def test_dft_matrices(z3x4):
    z3, z4 = FiniteAbelianGroup((3,)), FiniteAbelianGroup((4,))
    assert list(z3x4.dft_matrices) == [False, True]  # keyed by inverse
    for inverse, m in z3x4.dft_matrices.items():
        assert not m.flags.writeable
        # a product group's matrix is the Kronecker product of its factors'
        parts = (h.dft_matrices[inverse] for h in (z3, z4))
        assert np.allclose(m, np.kron(*parts), rtol=0, atol=1e-15)
    fwd, inv = z3x4.dft_matrices[False], z3x4.dft_matrices[True]
    assert np.allclose(fwd @ inv, np.eye(12), rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="read-only"):
        fwd[0, 0] = 0


def test_character_basic_values(z4):
    zero = z4.zero()
    for x in z4.elements():
        assert character_value(zero, x, I) == Quaternion(1.0)
    # frequency 1 at point 1 on Z_4: angle pi/2
    val = character_value(z4.element(1), z4.element(1), I)
    assert np.allclose(val.to_array(), I.to_array(), atol=1e-15)


def test_character_rejects_bad_axis(z4):
    with pytest.raises(ValueError, match="axis"):
        character_value(z4.zero(), z4.zero(), Quaternion(1, 1, 0, 0))


def test_character_multiplicative(rng, z3x4):
    g = z3x4
    axis = DEFAULT_AXES.mu2
    for _ in range(100):
        u = g.element_at(int(rng.integers(g.order)))
        x = g.element_at(int(rng.integers(g.order)))
        y = g.element_at(int(rng.integers(g.order)))
        lhs = character_value(u, x + y, axis)
        rhs = character_value(u, x, axis) * character_value(u, y, axis)
        assert np.allclose(lhs.to_array(), rhs.to_array(), atol=1e-12)


def test_character_conjugate_at_negation(rng, z8):
    for _ in range(50):
        u = z8.element_at(int(rng.integers(z8.order)))
        x = z8.element_at(int(rng.integers(z8.order)))
        lhs = character_value(u, -x, I)
        rhs = character_value(u, x, I).conj()
        assert np.allclose(lhs.to_array(), rhs.to_array(), atol=1e-12)


def test_character_orthogonality(z8, z3x4):
    # sum_x chi(u, x) vanishes for u != 0; this is what makes inversion exact
    for g in (z8, z3x4):
        table = character_table(g, I)
        sums = table.sum(axis=1)
        mags = qabs(sums)
        assert mags[0] == pytest.approx(g.order)
        assert mags[1:].max() <= 1e-9 * g.order


def test_character_table_matches_pointwise(rng, z3x4):
    g = z3x4
    axis = Quaternion(0, 0.6, 0.0, 0.8)
    table = character_table(g, axis)
    for _ in range(30):
        u = g.element_at(int(rng.integers(g.order)))
        x = g.element_at(int(rng.integers(g.order)))
        want = character_value(u, x, axis).to_array()
        assert np.allclose(table[u.index, x.index], want, atol=1e-15)
    # exactly symmetric in (u, x): the direct evaluators read one table as
    # [output, summed] for both the forward and the inverse sums
    for grp in (g, FiniteAbelianGroup((2, 2, 3))):
        for ax in (axis, random_axis_pair(rng).mu2):
            t = character_table(grp, ax)
            assert np.array_equal(t, t.swapaxes(0, 1))
