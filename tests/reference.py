"""Reference versions of the library's array code, for tests only.

Most functions compute one value the library computes for a whole array
at once: the frame coordinates and symplectic split of a single quaternion
(``AxisPair.to_frame``/``from_frame`` on one entry) and one character value
or pairing angle (one entry of ``character_table``/``angle_table``).  The
tests use them as pointwise oracles.  Then come the defining sum in its
earlier array form, which the oracle must match bit for bit, and the
defining sum in ``np.longdouble``, which every evaluator must match to its
float64 rounding error.  Last come the sums and scalar products of
quaternion grids as per-bin Hamilton products (``qmul``), the form the
library replaced by 4x4 real contractions, which it must match to rounding.
"""

import math

import numpy as np

from qgft.group import TWO_PI, GroupElement, _check_axis
from qgft.qft import _apply_stage, _defining_sum, _stage_matrix, rqft_direct
from qgft.quat import _HAMILTON, DEFAULT_AXES, AxisPair, Quaternion, qconj, qmul
from qgft.signal import transform_beta


def component_in_frame(q: Quaternion, axes: AxisPair = DEFAULT_AXES):
    """Coordinates (a, b, c, d) of q in the frame {1, mu1, mu2, mu3}.

    Equivalently a = Sc(q), b = -Sc(q*mu1), c = -Sc(q*mu2), d = -Sc(q*mu3);
    reassembly is q = a + b*mu1 + c*mu2 + d*mu3.
    """
    a, b, c, d = axes.to_frame(q.to_array())
    return float(a), float(b), float(c), float(d)


def quaternion_in_frame(components, axes: AxisPair = DEFAULT_AXES) -> Quaternion:
    """Quaternion a + b*mu1 + c*mu2 + d*mu3 from frame coordinates."""
    return Quaternion.from_array(
        axes.from_frame(np.asarray(components, dtype=np.float64))
    )


def symplectic_split(q: Quaternion, axes: AxisPair = DEFAULT_AXES):
    """Split q = c1 + c2*mu2 with c1, c2 in the commutative plane span{1, mu1}.

    The plane elements are returned as complex numbers under the isometry
    a + b*mu1 <-> a + b*1j.  For the default axes this is the familiar
    q = (w + x*i) + (y + z*i)*j decomposition.
    """
    a, b, c, d = component_in_frame(q, axes)
    return complex(a, b), complex(c, d)


def symplectic_join(c1: complex, c2: complex, axes: AxisPair = DEFAULT_AXES) -> Quaternion:
    """Inverse of :func:`symplectic_split`."""
    return quaternion_in_frame((c1.real, c1.imag, c2.real, c2.imag), axes)


def pairing_angle(freq: GroupElement, point: GroupElement) -> float:
    if freq.group != point.group:
        raise ValueError("frequency and point belong to different groups")
    return sum(
        TWO_PI * ((u * x) % n) / n
        for u, x, n in zip(freq.coords, point.coords, freq.group.moduli)
    )


def character_value(freq: GroupElement, point: GroupElement, axis: Quaternion) -> Quaternion:
    """Value of the frequency-u character at x along ``axis``.

    Returns cos(theta) + axis*sin(theta) with theta the pairing angle; the
    result is a unit quaternion in the plane span{1, axis}.
    """
    _check_axis(axis)
    th = pairing_angle(freq, point)
    c, s = math.cos(th), math.sin(th)
    return Quaternion(c, axis.x * s, axis.y * s, axis.z * s)


def character_table_own_trig(group, axis: Quaternion) -> np.ndarray:
    """``character_table`` taking its own cos and sin of the angle table."""
    _check_axis(axis)
    th = group.angle_table
    c, s = np.cos(th), np.sin(th)
    out = np.empty(th.shape + (4,), dtype=np.float64)
    out[..., 0] = c
    out[..., 1] = axis.x * s
    out[..., 2] = axis.y * s
    out[..., 3] = axis.z * s
    return out


def contract_tensordot(v: np.ndarray, k: np.ndarray, axis: int, left: bool) -> np.ndarray:
    """``qft._apply_stage(v, qft._stage_matrix(k, left), axis)`` through
    ``np.tensordot`` and ``np.moveaxis``."""
    n = k.shape[0]
    m = np.tensordot(k, _HAMILTON, axes=(2, 0 if left else 1))
    m = m.transpose(1, 2, 0, 3).reshape(4 * n, 4 * n)
    vt = np.moveaxis(v, axis, -2)
    return np.moveaxis((vt.reshape(-1, 4 * n) @ m).reshape(vt.shape), -2, axis)


def defining_sum(x, axes: AxisPair, stages, inverse: bool = False) -> np.ndarray:
    """``qft._defining_sum`` from one table per axis and the contraction above."""
    grp, s = x.group, (1.0 if inverse else -1.0)
    tables = (character_table_own_trig(grp, s * axes.mu1),
              character_table_own_trig(grp, s * axes.mu2))
    v = x.values
    for axis, left in stages:
        v = contract_tensordot(v, tables[axis], axis, left)
    return v * grp.dual_weight if inverse else v


# Each evaluator's stages, (grid axis, kernel on the left), and whether it is an
# inverse, by the kernel placements of the ``qft`` module docstring.
STAGES = {
    "rqft": (((0, False), (1, False)), False),
    "irqft": (((1, False), (0, False)), True),
    "sqft": (((0, True), (1, False)), False),
    "isqft": (((0, True), (1, False)), True),
    "lqft": (((1, True), (0, True)), False),
    "ilqft": (((0, True), (1, True)), True),
}


def defining_sum_longdouble(kind: str, x, axes: AxisPair) -> np.ndarray:
    """The ``kind`` transform of ``x`` by its defining sum in ``np.longdouble``.

    2*pi, the pairing angles and their cos and sin are taken in extended
    precision; the axes are used as stored, so a pair that is not exactly
    orthonormal gets its exact transform.  The stage matrices and products
    are ``qft._stage_matrix`` and ``qft._apply_stage``, which keep the dtype.
    """
    stages, inverse = STAGES[kind]
    grp = x.group
    two_pi = 8 * np.arctan(np.longdouble(1))
    th = np.zeros((grp.order, grp.order), dtype=np.longdouble)
    for t, n in enumerate(grp.moduli):
        c = grp.coords_matrix[:, t]
        th += (two_pi / n) * ((c[:, None] * c[None, :]) % n)
    cos, sin = np.cos(th), np.sin(th)
    sign = np.longdouble(1 if inverse else -1)
    v = x.values.astype(np.longdouble)
    for axis, left in stages:
        mu = (axes.mu2 if axis else axes.mu1).to_array().astype(np.longdouble)
        k = np.stack([cos] + [sign * m * sin for m in mu[1:]], axis=-1)
        v = _apply_stage(v, _stage_matrix(k, left), axis)
    return v / np.longdouble(grp.order) ** 2 if inverse else v


def axis_defect(axes: AxisPair) -> np.longdouble:
    """How far the stored pair is from orthonormal, in ``np.longdouble``:
    max(|‖mu1‖² − 1|, |‖mu2‖² − 1|, |mu1 · mu2|)."""
    mu1, mu2 = (mu.to_array().astype(np.longdouble) for mu in (axes.mu1, axes.mu2))
    return max(abs(mu1 @ mu1 - 1), abs(mu2 @ mu2 - 1), abs(mu1 @ mu2))


def inner_q_qmul(f, g) -> np.ndarray:
    """``inner_q(f, g)`` as the sum of the per-bin products f(x) * conj(g(x))."""
    return qmul(f.values, qconj(g.values)).sum(axis=(0, 1)) * f.weight


def scalar_mul_qmul(f, q: Quaternion, left: bool) -> np.ndarray:
    """``f.left_mul(q)`` (q * f(x)) if ``left``, else ``f.right_mul(q)``, per bin."""
    return qmul(q.to_array(), f.values) if left else qmul(f.values, q.to_array())


def pairing_qmul(f, g, axes: AxisPair = DEFAULT_AXES, kernel_order: str = "mu1-mu2"):
    """Both sides of ``multiplication_pairing`` as sums of per-bin products,
    two ``(4,)`` arrays; each is at most ``lp_norm(f, 2) * lp_norm(g, 2)``."""
    F = rqft_direct(f, axes).values
    stages = {"mu1-mu2": ((0, False), (1, False)), "mu2-mu1": ((1, False), (0, False))}
    H = _defining_sum(transform_beta(g, axes), axes, stages[kernel_order])
    dw = f.group.dual_weight
    return qmul(F, g.values).sum(axis=(0, 1)) * dw, qmul(f.values, H).sum(axis=(0, 1)) * dw
