"""Quaternion algebra: scalar values, array kernels, and orthonormal axis frames.

A quaternion is stored as four float64 components (w, x, y, z) standing for
w + x*i + y*j + z*k with the usual multiplication rules

    ij = -ji = k,   ki = -ik = j,   jk = -kj = i,   ii = jj = kk = -1.

Two representations coexist: the scalar :class:`Quaternion` for single values
and plain ``float64`` arrays of shape ``(..., 4)`` for bulk work (see
:func:`qmul`, :func:`qconj`, :func:`qabs2`).  Everything here is immutable
and pure, so values can be shared freely across threads.

This module owns the one Hamilton table, ``_HAMILTON[b, c] = e_b * e_c``
for e = 1, i, j, k, and the two real forms of quaternion products built on
it.  A sum over bins of products is bilinear, so ``_qdot`` takes it as the
real ``(4, 4)`` Gram matrix of the two payloads' components, one product,
followed by the table.  A product with one quaternion q is linear, so
``_qmatrix`` gives it as q's real 4x4 matrix, which a caller applies to
every bin as a row vector (``signal._bin_map``).  Neither builds a per-bin
Hamilton product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Quaternion",
    "AxisPair",
    "ONE",
    "I",
    "J",
    "K",
    "DEFAULT_AXES",
    "AXIS_TOL",
    "qmul",
    "qconj",
    "qabs2",
    "qabs",
    "random_axis_pair",
]

# Unit / perpendicularity tolerance for axis validation.  Construction
# rejects out-of-tolerance axes, since a silently fixed-up axis usually hides
# a bug in the caller, and makes exact the axes it accepts.
AXIS_TOL = 1e-9


def _frozen(m: np.ndarray) -> np.ndarray:
    """``m`` made read-only and returned: the one way the library freezes the
    tables it caches and the grid payloads it shares with every caller."""
    m.setflags(write=False)
    return m


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of real ``(..., 4)`` arrays, broadcasting like ``*``.

    The term grouping of each component is fixed so that
    ``qconj(qmul(p, q)) == qmul(qconj(q), qconj(p))`` holds bitwise, not
    merely to rounding.  This is the form for general per-bin products; the
    library itself sums products with ``_qdot`` and multiplies by one
    quaternion with ``_qmatrix``, and calls ``qmul`` only to build
    ``_HAMILTON``.
    """
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            (pw * qw - px * qx) - (py * qy + pz * qz),
            (pw * qx + px * qw) + (py * qz - pz * qy),
            (pw * qy + py * qw) + (pz * qx - px * qz),
            (pw * qz + pz * qw) + (px * qy - py * qx),
        ],
        axis=-1,
    )


_HAMILTON = qmul(np.eye(4)[:, None], np.eye(4))  # [b, c] = e_b * e_c, e = 1, i, j, k
# per side of the fixed factor, [b, (c, a)]: component a of e_b * e_c (left) or e_c * e_b
_HAMILTON_SIDES = {True: _HAMILTON.reshape(4, 16), False: _HAMILTON.swapaxes(0, 1).reshape(4, 16)}


def _qdot(p: np.ndarray, q: np.ndarray, conj: bool = False) -> np.ndarray:
    """The sum over every bin of p(x) * q(x), or of p(x) * conj(q(x)) with
    ``conj``, for ``(..., 4)`` arrays of one shape; a ``(4,)`` array.

    The sum is G.reshape(16) @ _HAMILTON.reshape(16, 4) with the Gram matrix
    G[b, c] = sum_x p_b(x) q_c(x), one real product; the conjugate changes
    the sign of G's last three columns, so no conjugated copy of ``q`` is
    made.
    """
    g = p.reshape(-1, 4).T @ q.reshape(-1, 4)
    if conj:
        g[:, 1:] *= -1.0
    return g.reshape(16) @ _HAMILTON.reshape(16, 4)


def _qmatrix(q: np.ndarray, left: bool) -> np.ndarray:
    """The real 4x4 matrices of the products with ``(..., 4)`` quaternions q,
    ``(..., 4, 4)``: for a row vector x, ``x @ m`` is q * x if ``left``, else
    x * q.  m[c, a] is component a of q * e_c (or e_c * q), all of them from
    one product with the Hamilton table."""
    return (q.reshape(-1, 4) @ _HAMILTON_SIDES[left]).reshape(q.shape[:-1] + (4, 4))


def qconj(q: np.ndarray) -> np.ndarray:
    """Quaternion conjugate of a ``(..., 4)`` array."""
    out = np.array(q, dtype=np.float64, copy=True)
    out[..., 1:] = -out[..., 1:]
    return out


def qabs2(q: np.ndarray) -> np.ndarray:
    """Squared norm per entry of a ``(..., 4)`` array."""
    q = np.asarray(q, dtype=np.float64)
    return (q * q).sum(axis=-1)


def qabs(q: np.ndarray) -> np.ndarray:
    """Norm per entry of a ``(..., 4)`` array."""
    return np.sqrt(qabs2(q))


@dataclass(frozen=True)
class Quaternion:
    """A single quaternion w + x*i + y*j + z*k."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    @staticmethod
    def from_array(a) -> "Quaternion":
        w, x, y, z = (float(c) for c in a)
        return Quaternion(w, x, y, z)

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=np.float64)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            p, q = self, other
            # Same grouping as qmul(); keeps conj(p*q) == conj(q)*conj(p) exact.
            return Quaternion(
                (p.w * q.w - p.x * q.x) - (p.y * q.y + p.z * q.z),
                (p.w * q.x + p.x * q.w) + (p.y * q.z - p.z * q.y),
                (p.w * q.y + p.y * q.w) + (p.z * q.x - p.x * q.z),
                (p.w * q.z + p.z * q.w) + (p.x * q.y - p.y * q.x),
            )
        if isinstance(other, (int, float)):
            s = float(other)
            return Quaternion(self.w * s, self.x * s, self.y * s, self.z * s)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, s: float) -> "Quaternion":
        return self * (1.0 / float(s))

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return self.conj() / n2

    def scalar_part(self) -> float:
        return self.w

    def vector_part(self) -> "Quaternion":
        return Quaternion(0.0, self.x, self.y, self.z)

    def is_unit_pure_imaginary(self, tol: float = AXIS_TOL) -> bool:
        return abs(self.w) <= tol and abs(self.norm() - 1.0) <= tol


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class AxisPair:
    """An ordered pair of perpendicular unit pure-imaginary axes (mu1, mu2).

    The pair selects the two transform planes: mu1 plays the role of i and
    mu2 the role of j, so {1, mu1, mu2, mu1*mu2} is an orthonormal frame
    with the same multiplication table as {1, i, j, k}.  Construction
    validates the axes to within ``AXIS_TOL``, then stores mu1's pure part
    normalised and mu2's part perpendicular to it (projected twice),
    normalised: the exact frame both the fast and direct paths assume.
    """

    mu1: Quaternion
    mu2: Quaternion

    def __post_init__(self) -> None:
        for name, mu in (("mu1", self.mu1), ("mu2", self.mu2)):
            if not mu.is_unit_pure_imaginary():
                raise ValueError(
                    f"{name} must be a unit pure-imaginary quaternion "
                    f"(|Sc| and ||q|-1| within {AXIS_TOL:g}); got {mu}"
                )
        if abs((self.mu1 * self.mu2.conj()).scalar_part()) > AXIS_TOL:
            raise ValueError("mu1 and mu2 must be perpendicular")
        mu1, mu2 = self.mu1.vector_part(), self.mu2.vector_part()
        mu1 = mu1 / mu1.norm()
        for _ in range(2):
            mu2 = mu2 - mu1 * (mu2 * mu1.conj()).scalar_part()
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "mu2", mu2 / mu2.norm())

    @cached_property
    def mu3(self) -> Quaternion:
        """Cached product mu1*mu2, the third frame axis."""
        return self.mu1 * self.mu2

    @cached_property
    def frame_matrix(self) -> np.ndarray:
        """Orthogonal 4x4 matrix whose rows are 1, mu1, mu2, mu3."""
        rows = (ONE, self.mu1, self.mu2, self.mu3)
        return _frozen(np.stack([q.to_array() for q in rows]))

    @cached_property
    def _maps(self) -> dict:
        """Per-bin maps derived from the frame, cached here by the modules
        that build them: a lookup then hashes a small key, not the pair."""
        return {}

    def to_frame(self, values: np.ndarray) -> np.ndarray:
        """Coordinates of ``(..., 4)`` values in the {1, mu1, mu2, mu3} frame,
        as a new array."""
        return values @ self.frame_matrix.T

    def from_frame(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_frame`."""
        return values @ self.frame_matrix


DEFAULT_AXES = AxisPair(I, J)


def random_axis_pair(rng: np.random.Generator) -> AxisPair:
    """Draw a uniformly random valid axis pair.

    mu1 is a uniform point on the sphere of unit pure-imaginary quaternions;
    mu2 is uniform on the unit circle perpendicular to mu1.
    """
    while True:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        if n > 1e-6:
            break
    v /= n
    while True:
        u = rng.standard_normal(3)
        u -= (u @ v) * v
        n = np.linalg.norm(u)
        if n > 1e-6:
            break
    u /= n
    return AxisPair(Quaternion(0.0, *v), Quaternion(0.0, *u))
