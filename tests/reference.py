"""Reference versions of the library's array code, for tests only.

Most functions compute one value the library computes for a whole array
at once: the frame coordinates and symplectic split of a single quaternion
(``AxisPair.to_frame``/``from_frame`` on one entry) and one character value
or pairing angle (one entry of ``character_table``/``angle_table``).  The
tests use them as pointwise oracles.  The last three are the defining sum
in its earlier array form, which the oracle must match bit for bit.
"""

import math

import numpy as np

from qgft.group import TWO_PI, GroupElement, _check_axis
from qgft.qft import _HAMILTON
from qgft.quat import DEFAULT_AXES, AxisPair, Quaternion


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
    """``qft._contract`` through ``np.tensordot`` and ``np.moveaxis``."""
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
