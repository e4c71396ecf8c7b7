"""Quaternion-valued signals on G x G and spectra on the dual.

A :class:`QSignal` (primal side, counting measure) or :class:`QSpectrum`
(dual side, weight 1/|G|^2 per bin) stores a dense float64 array of shape
``(order, order, 4)``; bin (i1, i2) holds the value at the pair of elements
with canonical indices i1 and i2, and the flat bin index used by file I/O is
``i1 * order + i2``.

Convolution order matters and is fixed here once and for all:

    (f * g)(x) = sum_y f(y) * g(x - y)

with the left factor's quaternion first.  Quaternion products do not
commute, so swapping the factors silently changes results.

All operations are pure; signals are treated as immutable value objects,
so results are deterministic: the same inputs give the same outputs on a
given machine and numpy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .group import FiniteAbelianGroup, GroupElement
from .quat import DEFAULT_AXES, AxisPair, Quaternion, qabs, qconj, qmul

__all__ = [
    "QSignal",
    "QSpectrum",
    "lp_norm",
    "inner_q",
    "inner_real",
    "translate",
    "reflect_conj",
    "convolve",
    "transform_W",
    "transform_beta",
    "random_signal",
    "random_spectrum",
]


class _NonFiniteError(ValueError):
    """Grid values that are NaN or infinite, for instance an overflowed result."""


class _QGrid:
    """Shared machinery for primal signals and dual spectra."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteAbelianGroup, values) -> None:
        # always copy: grids are immutable value objects, never views
        if np.iscomplexobj(values):  # the float64 cast would drop imaginary parts
            raise ValueError("signal values must be real quaternion components")
        self._adopt(group, np.array(values, dtype=np.float64, order="C", copy=True))

    @classmethod
    def _own(cls, group: FiniteAbelianGroup, values: np.ndarray):
        """Wrap a fresh float64 C-ordered array that nothing else holds,
        without the defensive copy; the checks still run."""
        grid = cls.__new__(cls)
        grid._adopt(group, values)
        return grid

    def _adopt(self, group: FiniteAbelianGroup, values: np.ndarray) -> None:
        n = group.order
        if values.shape != (n, n, 4):
            raise ValueError(
                f"expected values of shape {(n, n, 4)}, got {values.shape}"
            )
        if not np.isfinite(values).all():
            raise _NonFiniteError("signal values must be finite (no NaN/Inf)")
        self.group = group
        self.values = values

    # Per-bin Haar weight of the carrier.
    @property
    def weight(self) -> float:
        raise NotImplementedError

    @classmethod
    def zeros(cls, group: FiniteAbelianGroup):
        n = group.order
        return cls(group, np.zeros((n, n, 4)))

    @classmethod
    def constant(cls, group: FiniteAbelianGroup, q: Quaternion):
        n = group.order
        return cls(group, np.broadcast_to(q.to_array(), (n, n, 4)).copy())

    @classmethod
    def delta(cls, group: FiniteAbelianGroup, at=(0, 0), value: Quaternion = Quaternion(1.0)):
        """Point mass ``value`` at the bin pair ``at`` (indices or elements)."""
        i1, i2 = (p.index if isinstance(p, GroupElement) else int(p) for p in at)
        out = cls.zeros(group)
        out.values[i1, i2] = value.to_array()
        return out

    def at(self, x1, x2) -> Quaternion:
        i1 = x1.index if isinstance(x1, GroupElement) else int(x1)
        i2 = x2.index if isinstance(x2, GroupElement) else int(x2)
        return Quaternion.from_array(self.values[i1, i2])

    def copy(self):
        return type(self)(self.group, self.values.copy())

    def _check_same_carrier(self, other: "_QGrid") -> None:
        if type(other) is not type(self) or other.group != self.group:
            raise ValueError(
                f"carrier mismatch: {type(self).__name__} on {self.group} vs "
                f"{type(other).__name__} on {other.group}"
            )

    def __add__(self, other: "_QGrid"):
        self._check_same_carrier(other)
        return type(self)(self.group, self.values + other.values)

    def __sub__(self, other: "_QGrid"):
        self._check_same_carrier(other)
        return type(self)(self.group, self.values - other.values)

    def __mul__(self, s):
        if isinstance(s, (int, float)):
            return type(self)(self.group, self.values * float(s))
        return NotImplemented

    __rmul__ = __mul__

    def left_mul(self, q: Quaternion):
        """Pointwise product q * f(x)."""
        return type(self)(self.group, qmul(q.to_array(), self.values))

    def right_mul(self, q: Quaternion):
        """Pointwise product f(x) * q."""
        return type(self)(self.group, qmul(self.values, q.to_array()))

    def conj(self):
        return type(self)(self.group, qconj(self.values))

    def flat(self) -> np.ndarray:
        """View of the payload as (order^2, 4), bins in canonical order."""
        n = self.group.order
        return self.values.reshape(n * n, 4)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.group!r})"


class QSignal(_QGrid):
    """Quaternion-valued function on G x G under counting measure."""

    @property
    def weight(self) -> float:
        return self.group.primal_weight


class QSpectrum(_QGrid):
    """Quaternion-valued function on the dual of G x G, weight 1/|G|^2."""

    @property
    def weight(self) -> float:
        return self.group.dual_weight


def _lp(values: np.ndarray, p, weight: float) -> float:
    if p == 2:  # the sum of squared components, without a magnitude array
        v = values.reshape(-1)
        return float(np.sqrt(np.dot(v, v) * weight))
    mag = qabs(values)
    if p == 1:
        return float(mag.sum() * weight)
    if p in (np.inf, float("inf"), "inf"):
        return float(mag.max())
    raise ValueError(f"unsupported exponent p={p!r}; use 1, 2 or inf")


def lp_norm(f: _QGrid, p) -> float:
    """Weighted p-norm of a signal or spectrum for p in {1, 2, inf}.

    The squares overflow above about 1e154 and lose precision below about
    1e-154, so a plain result that is non-finite or below 1e-100 is taken
    again on the payload scaled by its largest component.
    """
    with np.errstate(over="ignore"):
        norm = _lp(f.values, p, f.weight)
        if not 1e-100 <= norm < np.inf:
            scale = np.abs(f.values).max()
            if scale > 0:
                norm = float(scale * _lp(f.values / scale, p, f.weight))
    return norm


def inner_q(f: _QGrid, g: _QGrid) -> Quaternion:
    """Quaternion inner product sum_x f(x) * conj(g(x)) * weight.

    Left-linear over quaternion scalars and conjugate-linear on the right:
    inner_q(p*f, q*g) = p * inner_q(f, g) * conj(q).
    """
    f._check_same_carrier(g)
    s = qmul(f.values, qconj(g.values)).sum(axis=(0, 1)) * f.weight
    return Quaternion.from_array(s)


def inner_real(f: _QGrid, g: _QGrid) -> float:
    """Real inner product, the scalar part of :func:`inner_q`."""
    return inner_q(f, g).scalar_part()


def _as_element(group: FiniteAbelianGroup, y) -> GroupElement:
    return y if isinstance(y, GroupElement) else group.element(y)


def translate(f: QSignal, y) -> QSignal:
    """Translation (L_y f)(x1, x2) = f(x1 + y1, x2 + y2).

    On an abelian domain left and right translation coincide; translation is
    a bin permutation, hence exactly norm-preserving.
    """
    y1, y2 = (_as_element(f.group, c) for c in y)
    p1 = f.group.shift_perm(y1)
    p2 = f.group.shift_perm(y2)
    return type(f)(f.group, f.values[p1][:, p2])


def reflect_conj(f: QSignal) -> QSignal:
    """The reflected conjugate f~(x1, x2) = conj(f(-x1, -x2)); an involution."""
    neg = f.group.neg_perm
    return type(f)(f.group, qconj(f.values[neg][:, neg]))


# Up to this group order the DFT over G x G is two products with the group's
# DFT matrices: below it numpy's fixed cost per FFT call outweighs the
# arithmetic (the crossover is measured in the README's performance notes).
DFT_MATRIX_MAX = 16


def _grid_fft(
    values: np.ndarray,
    group: FiniteAbelianGroup,
    fft=np.fft.fftn,
    out=None,
    mirror: bool = False,
) -> np.ndarray:
    """The DFT ``fft`` over G x G of an ``(n, n, ...)`` array, trailing axes
    batched.

    Every DFT in the library goes through here, or through
    ``_grid_fft_butterfly`` for the fast core's planes: ``(n, n)`` complex
    planes and ``(n, n, 2)`` symplectic pairs alike.  ``out`` (which may be
    ``values`` itself) receives the result in place.  With ``mirror`` the
    second frequency comes out negated, X(u, -v): its transform runs the
    opposite direction under the same normalisation, so no gather is needed.

    Up to order ``DFT_MATRIX_MAX`` it is one product with
    ``group.dft_matrices`` per grid axis, the conjugate matrix on axis 1
    when mirrored.  Above it, pocketfft runs on ``moduli * 2`` axes, one per
    cyclic factor: the canonical index is row-major with the last coordinate
    fastest.
    """
    n = group.order
    if n <= DFT_MATRIX_MAX:
        inverse = fft is not np.fft.fftn
        x = values.reshape(n, n, -1)
        dest = out.reshape(x.shape, copy=False) if out is not None else (
            np.empty(x.shape, np.complex128))
        # the matrices are symmetric: axis 1 of each (n, n) slice is x @ m
        t = (group.dft_matrices[inverse, False] @ x.reshape(n, -1)).reshape(x.shape)
        np.matmul(t.transpose(2, 0, 1), group.dft_matrices[inverse, mirror],
                  out=dest.transpose(2, 0, 1))
        return dest.reshape(values.shape)
    k = group.rank
    shape = group.moduli * 2 + values.shape[2:]
    x = values.reshape(shape)
    dest = None if out is None else out.reshape(shape, copy=False)
    # fftn's own passes in its axis order, as 1-d calls: that skips its
    # argument handling, which dominates the cost on small grids
    one_d, opposite = (np.fft.fft, np.fft.ifft) if fft is np.fft.fftn else (np.fft.ifft, np.fft.fft)
    for ax in reversed(range(2 * k)):
        if mirror and ax >= k:
            x = opposite(x, axis=ax, norm="forward", out=dest)
        else:
            x = one_d(x, axis=ax, out=dest)
        dest = x
    return x.reshape(values.shape)


@lru_cache(maxsize=32)
def _butterfly_matrix(group: FiniteAbelianGroup, inverse: bool) -> np.ndarray:
    """The ``(2n, 2n)`` axis-1 matrix of ``_grid_fft_butterfly``.

    A row of pairs, interleaved as in the ``(n, n, 2)`` layout, times it
    gives ((a m + b conj(m))/2, (a m - b conj(m))/2) for the DFT matrix m.
    """
    n = group.order
    m, mc = (group.dft_matrices[inverse, c] / 2 for c in (False, True))
    b = np.empty((n, 2, n, 2), np.complex128)
    b[:, 0, :, 0] = b[:, 0, :, 1] = m
    b[:, 1, :, 0], b[:, 1, :, 1] = mc, -mc
    return _frozen(b.reshape(2 * n, 2 * n))


def _grid_fft_butterfly(planes: np.ndarray, group: FiniteAbelianGroup, fft) -> None:
    """In place on an ``(n, n, 2)`` complex array of planes a and b: with c
    the ``fft`` of a and e the mirrored ``fft`` of b, write ((c + e)/2, (c - e)/2).

    Up to order ``DFT_MATRIX_MAX`` this is two matrix products for both
    planes at once, the add/sub pass folded into the second; above it, two
    ``_grid_fft`` calls and the pass.
    """
    n = group.order
    if n <= DFT_MATRIX_MAX:
        inverse = fft is not np.fft.fftn
        rows = planes.reshape(n, 2 * n, copy=False)
        np.matmul(group.dft_matrices[inverse, False] @ rows,
                  _butterfly_matrix(group, inverse), out=rows)
        return
    c, e = planes[..., 0], planes[..., 1]
    _grid_fft(c, group, fft, out=c)
    _grid_fft(e, group, fft, out=e, mirror=True)
    np.subtract(c, e, out=e)
    e *= 0.5
    c -= e


# Row blocks of this many bytes stay in cache across the terms of a bin map,
# and its block-sized temporaries stay far below one payload.
_BLOCK_BYTES = 1 << 17


def _bin_map(x: np.ndarray, terms, neg: np.ndarray, out: np.ndarray) -> None:
    """out = sum of x[rows][:, cols] @ m over ``terms`` of (flip_rows, flip_cols, m).

    Each term reads the ``(n, n, 4)`` payload with its first and/or second
    variable negated (``neg`` is the group's negation permutation) and
    applies the real 4x4 map ``m`` to every bin, as a row vector.  The work
    goes by row blocks of ``_BLOCK_BYTES``, so no temporary is larger than
    a block.  ``out`` may be ``x`` itself when no term flips rows.
    """
    step = max(1, _BLOCK_BYTES // x[0].nbytes)
    for i in range(0, x.shape[0], step):
        rows = slice(i, i + step)
        dst = out[rows].reshape(-1, 4)
        for t, (flip_rows, flip_cols, m) in enumerate(terms):
            src = x[neg[rows]] if flip_rows else x[rows]
            if flip_cols:
                src = src[:, neg]
            if t:
                dst += src.reshape(-1, 4) @ m
            else:  # matmul copies an overlapping input first
                np.matmul(src.reshape(-1, 4), m, out=dst)


def _swap_rows(plane: np.ndarray, moved: np.ndarray, partner: np.ndarray) -> None:
    """plane[moved] = plane[partner] in place, by row blocks, where each
    pair of rows that trade places is adjacent in ``moved``."""
    step = 2 * max(1, _BLOCK_BYTES // (2 * plane[0].size * plane.itemsize))
    for i in range(0, moved.size, step):
        plane[moved[i:i + step]] = plane[partner[i:i + step]]


# Per frame component (a, b, c, d): whether it reads -x1 and whether -x2.
_W_FLIPS = ((False, False), (False, False), (True, False), (True, False))
_BETA_FLIPS = ((False, False), (False, True), (True, False), (True, True))


def _flip_terms(axes: AxisPair, flips) -> tuple:
    """``_bin_map`` terms that flip frame component k as ``flips[k]`` says.

    Component k of the frame is the projection onto the frame axis e_k,
    the rank-one map outer(e_k, e_k) in standard coordinates; components
    with the same flips share one term.
    """
    terms = axes._maps.get(flips)
    if terms is None:
        frame, sums = axes.frame_matrix, {}
        for k, flip in enumerate(flips):
            sums[flip] = sums.get(flip, 0.0) + np.outer(frame[k], frame[k])
        terms = tuple((rows, cols, _frozen(m)) for (rows, cols), m in sums.items())
        axes._maps[flips] = terms
    return terms


def _frozen(m: np.ndarray) -> np.ndarray:
    """``m`` made read-only, as cached maps are shared by every caller."""
    m.setflags(write=False)
    return m


def convolve(f: QSignal, g: QSignal) -> QSignal:
    """Quaternion convolution (f * g)(x) = sum_y f(y) * g(x - y).

    Not commutative in general.  Left H-linear in f.  The payload viewed as
    complex is the symplectic pair of f = a1 + a2*j; with g = b1 + b2*j,
    f * g = (a1*b1 - a2*conj(b2)) + (a1*b2 + a2*conj(b1))*j (Pei-Ding-Chang),
    and conj(b) has the DFT conj(B(-u, -v)): O(|G|^2 log |G|).
    """
    f._check_same_carrier(g)
    grp, neg = f.group, f.group.neg_perm
    A = _grid_fft(f.values.view(np.complex128), grp)
    B = _grid_fft(g.values.view(np.complex128), grp)
    Bc = np.conj(B[np.ix_(neg, neg)])
    out = np.empty_like(A)
    out[..., 0] = A[..., 0] * B[..., 0] - A[..., 1] * Bc[..., 1]
    out[..., 1] = A[..., 0] * B[..., 1] + A[..., 1] * Bc[..., 0]
    _grid_fft(out, grp, np.fft.ifftn, out=out)
    return QSignal._own(grp, out.view(np.float64))


def transform_W(f: QSignal, axes: AxisPair = DEFAULT_AXES) -> QSignal:
    """Reflect the mu2 and mu3 frame components in the first variable.

    In frame coordinates (a, b, c, d) the map is

        (a, b, c, d)(x1, x2) -> (a(x1,x2), b(x1,x2), c(-x1,x2), d(-x1,x2)),

    i.e. f0 + i f1 + j f2(-x1,.) + k f3(-x1,.) for the default axes.  It is
    its own inverse, preserves all norms, and commutes with left
    multiplication by elements of the plane span{1, mu1}.  It converts the
    sandwiched transform into the right-sided one.  With P the projection
    onto span{mu2, mu3} it is f @ (I - P) + f(-x1, .) @ P per bin, written
    by row blocks into the one array it returns.
    """
    out = np.empty(f.values.shape)
    _bin_map(f.values, _flip_terms(axes, _W_FLIPS), f.group.neg_perm, out)
    return QSignal._own(f.group, out)


def transform_beta(g: QSpectrum, axes: AxisPair = DEFAULT_AXES) -> QSpectrum:
    """Frequency reflections making the multiplication pairing balance.

    In frame coordinates (a, b, c, d) over the dual:

        (a, b, c, d)(u, v) -> (a(u,v), b(u,-v), c(-u,v), d(-u,-v)).

    A bin permutation per component, hence norm-preserving.  Defined on
    spectra only, which is where it is consumed.
    """
    if not isinstance(g, QSpectrum):
        raise TypeError("transform_beta acts on spectra (dual side)")
    out = np.empty(g.values.shape)
    _bin_map(g.values, _flip_terms(axes, _BETA_FLIPS), g.group.neg_perm, out)
    return QSpectrum._own(g.group, out)


def random_signal(group: FiniteAbelianGroup, rng: np.random.Generator) -> QSignal:
    """Signal with iid standard normal components; handy for property checks."""
    n = group.order
    return QSignal(group, rng.standard_normal((n, n, 4)))


def random_spectrum(group: FiniteAbelianGroup, rng: np.random.Generator) -> QSpectrum:
    n = group.order
    return QSpectrum(group, rng.standard_normal((n, n, 4)))
