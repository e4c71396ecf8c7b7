"""Finite abelian groups Z_{n1} x ... x Z_{nk}, their duals, and characters.

The group G doubles as its own dual: a frequency is just another coordinate
tuple, and the pairing of a frequency u with a point x is the angle
``2*pi * sum_t (u_t * x_t mod n_t) / n_t`` (the product is reduced mod n_t
before scaling, which keeps the phase error independent of the group size).
A character along a unit pure-imaginary axis mu takes the value
``cos(theta) + mu * sin(theta)`` on the unit circle of the plane span{1, mu}.

Normalization convention, used consistently by the signal and transform
layers: counting measure on G x G (weight 1 per point) and normalized
counting measure on the dual (weight 1/|G|^2 per frequency pair).  This is
the unique pair of weights for which the forward transforms below preserve
the 2-norm verbatim.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quat import AXIS_TOL, Quaternion, _frozen

__all__ = [
    "FiniteAbelianGroup",
    "GroupElement",
    "character_table",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """The group Z_{n1} x ... x Z_{nk}, elements enumerated row-major.

    The canonical enumeration orders coordinate tuples with the last
    coordinate varying fastest; it defines the linear index used by signals
    and by the file format.
    """

    moduli: tuple[int, ...]

    def __init__(self, moduli) -> None:
        # a scalar is the one modulus of a cyclic group, whatever its integer type;
        # operator.index refuses 2.7, which int() would truncate
        scalars = moduli if np.iterable(moduli) else (moduli,)
        try:
            ints = tuple(map(operator.index, scalars))
        except TypeError:
            ints = ()
        if not ints or min(ints) < 1:
            raise ValueError(f"moduli must be positive integers, got {moduli!r}")
        object.__setattr__(self, "moduli", ints)

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    # Per-point Haar weights for the product domain G x G and its dual.
    @property
    def primal_weight(self) -> float:
        return 1.0

    @property
    def dual_weight(self) -> float:
        return 1.0 / float(self.order) ** 2

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def element(self, coords) -> "GroupElement":
        """The element with these coordinates; a bare integer is the one
        coordinate of a cyclic group."""
        try:
            coords = (operator.index(coords),)  # any integer, numpy's too
        except TypeError:  # a sequence of coordinates
            pass
        return GroupElement(self, tuple(coords))

    def element_at(self, index: int) -> "GroupElement":
        return GroupElement(self, tuple(int(c) for c in self.coords_matrix[self.index_of(index)]))

    def index_of(self, p) -> int:
        """The canonical index of ``p``, an element of this group or an index."""
        if isinstance(p, GroupElement):
            if p.group != self:
                raise ValueError("element belongs to a different group")
            return int(np.dot(p.coords, self._strides))
        i = operator.index(p)  # TypeError for a non-integral index
        if not 0 <= i < self.order:
            raise IndexError(f"index {i} out of range for group of order {self.order}")
        return i

    def elements(self) -> list["GroupElement"]:
        """All elements in canonical order (last coordinate fastest)."""
        return [GroupElement(self, tuple(int(c) for c in row)) for row in self.coords_matrix]

    @cached_property
    def _strides(self) -> np.ndarray:
        s = np.ones(self.rank, dtype=np.int64)
        for t in range(self.rank - 2, -1, -1):
            s[t] = s[t + 1] * self.moduli[t + 1]
        return s

    def _indices(self, coords: np.ndarray) -> np.ndarray:
        """Canonical indices of the integer coordinate rows ``coords`` (last
        axis), each coordinate taken mod its modulus first."""
        return (coords % self.moduli) @ self._strides

    @cached_property
    def coords_matrix(self) -> np.ndarray:
        """(order, rank) int64 matrix of coordinates in canonical order."""
        return _frozen(np.arange(self.order)[:, None] // self._strides % self.moduli)

    @cached_property
    def neg_perm(self) -> np.ndarray:
        """Index permutation sending index(x) to index(-x); an involution."""
        return _frozen(self._indices(-self.coords_matrix))

    @cached_property
    def neg_swaps(self) -> tuple[np.ndarray, np.ndarray]:
        """The indices that negation moves, as (i, index(-x_i)) pairs side by
        side, and their images under :attr:`neg_perm`."""
        lo = np.flatnonzero(self.neg_perm > np.arange(self.order))
        moved = np.stack([lo, self.neg_perm[lo]], axis=1).reshape(-1)
        return _frozen(moved), _frozen(self.neg_perm[moved])

    @cached_property
    def angle_table(self) -> np.ndarray:
        """(order, order) table of pairing angles theta[u, x]."""
        th = np.zeros((self.order, self.order), dtype=np.float64)
        for t, n in enumerate(self.moduli):
            c = self.coords_matrix[:, t]
            th += (TWO_PI / n) * ((c[:, None] * c[None, :]) % n)
        return _frozen(th)

    @cached_property
    def dft_matrices(self) -> dict[bool, np.ndarray]:
        """Complex DFT matrices over G, keyed by ``inverse``.

        The forward matrix is exp(-i theta[u, x]), the inverse exp(i theta)/|G|.
        Both are symmetric, read-only and, for a product group, the Kronecker
        product of the factors' matrices.
        """
        fwd = np.exp(-1j * self.angle_table)
        return {False: _frozen(fwd), True: _frozen(fwd.conj() / self.order)}

    @cached_property
    def difference_table(self) -> np.ndarray:
        """(order, order) table d[a, b] = index(element_a - element_b)."""
        c = self.coords_matrix
        return _frozen(self._indices(c[:, None, :] - c[None, :, :]))

    def shift_perm(self, y: "GroupElement") -> np.ndarray:
        """Permutation p with p[index(x)] = index(x + y)."""
        if y.group != self:
            raise ValueError("shift element belongs to a different group")
        return self._indices(self.coords_matrix + y.coords)

    def __repr__(self) -> str:
        return "Z" + "xZ".join(str(n) for n in self.moduli)


@dataclass(frozen=True)
class GroupElement:
    """A point of a finite abelian group; coordinates are kept reduced."""

    group: FiniteAbelianGroup
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != self.group.rank:
            raise ValueError(
                f"expected {self.group.rank} coordinates, got {len(self.coords)}"
            )
        reduced = tuple(operator.index(c) % n for c, n in zip(self.coords, self.group.moduli))
        object.__setattr__(self, "coords", reduced)

    def _check_same_group(self, other: "GroupElement") -> None:
        if not isinstance(other, GroupElement) or other.group != self.group:
            raise ValueError("elements belong to different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check_same_group(other)
        return GroupElement(
            self.group, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check_same_group(other)
        return GroupElement(
            self.group, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-c for c in self.coords))

    @property
    def index(self) -> int:
        return self.group.index_of(self)


def _check_axis(axis: Quaternion) -> None:
    if not axis.is_unit_pure_imaginary(AXIS_TOL):
        raise ValueError(f"character axis must be unit pure-imaginary, got {axis}")


def character_table(group: FiniteAbelianGroup, axis: Quaternion) -> np.ndarray:
    """(order, order, 4) table K[u, x] of character values along ``axis``."""
    _check_axis(axis)
    th = group.angle_table
    return _characters(np.cos(th), np.sin(th), axis)


def _characters(cos: np.ndarray, sin: np.ndarray, axis: Quaternion) -> np.ndarray:
    """cos + axis * sin, entry by entry, as a ``cos.shape + (4,)`` table."""
    out = np.empty(cos.shape + (4,), dtype=np.float64)
    out[..., 0] = cos
    out[..., 1] = axis.x * sin
    out[..., 2] = axis.y * sin
    out[..., 3] = axis.z * sin
    return out
