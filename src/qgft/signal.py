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

Grids are immutable values.  A payload's shape and finiteness are checked
once, when its grid is built, and the array is read-only from then on; to
change values, build a new grid.  All operations are pure, so results are
deterministic: the same inputs give the same outputs on a given machine
and numpy.
"""

from __future__ import annotations

import numpy as np

from .group import FiniteAbelianGroup, GroupElement
from .quat import DEFAULT_AXES, AxisPair, Quaternion, _frozen, _qdot, _qmatrix, qabs, qconj

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
        # always copy: the caller may still hold ``values`` and write into it
        if np.iscomplexobj(values):  # the float64 cast would drop imaginary parts
            raise ValueError("signal values must be real quaternion components")
        self._adopt(group, np.array(values, dtype=np.float64, order="C", copy=True))

    @classmethod
    def _own(cls, group: FiniteAbelianGroup, values: np.ndarray):
        """Wrap a float64 C-ordered array the library has just built, without
        the defensive copy; the checks still run and the array is frozen.  Every
        grid the library builds goes through here: the public constructor copies
        only arrays that callers pass in, and ``decode_qsig``'s bytes."""
        grid = cls.__new__(cls)
        grid._adopt(group, values)
        return grid

    def _adopt(self, group: FiniteAbelianGroup, values: np.ndarray) -> None:
        n = group.order
        if values.shape != (n, n, 4):
            raise ValueError(f"expected values of shape {(n, n, 4)}, got {values.shape}")
        if not np.isfinite(values).all():
            raise _NonFiniteError("signal values must be finite (no NaN/Inf)")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", _frozen(values))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable; build a new grid")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), (self.group, self.values)

    # Per-bin Haar weight of the carrier.
    @property
    def weight(self) -> float:
        raise NotImplementedError

    @classmethod
    def zeros(cls, group: FiniteAbelianGroup):
        return cls._own(group, np.zeros((group.order, group.order, 4)))

    @classmethod
    def constant(cls, group: FiniteAbelianGroup, q: Quaternion):
        return cls._own(group, np.full((group.order, group.order, 4), q.to_array()))

    @classmethod
    def delta(cls, group: FiniteAbelianGroup, at=(0, 0), value: Quaternion = Quaternion(1.0)):
        """Point mass ``value`` at the bin pair ``at`` (indices or elements)."""
        vals = np.zeros((group.order, group.order, 4))
        vals[group.index_of(at[0]), group.index_of(at[1])] = value.to_array()
        return cls._own(group, vals)

    def at(self, x1, x2) -> Quaternion:
        return Quaternion.from_array(self.values[self.group.index_of(x1), self.group.index_of(x2)])

    def _check_same_carrier(self, other: "_QGrid") -> None:
        if type(other) is not type(self) or other.group != self.group:
            raise ValueError(
                f"carrier mismatch: {type(self).__name__} on {self.group} vs "
                f"{type(other).__name__} on {other.group}"
            )

    def __add__(self, other: "_QGrid"):
        self._check_same_carrier(other)
        return self._own(self.group, self.values + other.values)

    def __sub__(self, other: "_QGrid"):
        self._check_same_carrier(other)
        return self._own(self.group, self.values - other.values)

    def __mul__(self, s):
        if isinstance(s, (int, float)):
            return self._own(self.group, self.values * float(s))
        return NotImplemented

    __rmul__ = __mul__

    def left_mul(self, q: Quaternion):
        """Pointwise product q * f(x)."""
        return self._scaled(q, True)

    def right_mul(self, q: Quaternion):
        """Pointwise product f(x) * q."""
        return self._scaled(q, False)

    def _scaled(self, q: Quaternion, left: bool):
        """q * f(x) if ``left``, else f(x) * q: q's real 4x4 matrix
        (``quat._qmatrix``) applied to every bin by ``_bin_map``, whose blocks
        keep each product on the calling thread."""
        out = np.empty(self.values.shape)
        _bin_map(self.values, None, _qmatrix(q.to_array(), left), self.group.neg_perm, out)
        return self._own(self.group, out)

    def conj(self):
        return self._own(self.group, qconj(self.values))

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
    if p == np.inf:
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
    inner_q(p*f, q*g) = p * inner_q(f, g) * conj(q).  The sum is
    ``quat._qdot``'s: the ``(4, 4)`` Gram matrix of the two payloads'
    components, one real product, then the Hamilton table, with no per-bin
    product and no conjugated copy of g.
    """
    f._check_same_carrier(g)
    return Quaternion.from_array(_qdot(f.values, g.values, conj=True) * f.weight)


def inner_real(f: _QGrid, g: _QGrid) -> float:
    """Real inner product, the scalar part of :func:`inner_q`."""
    return inner_q(f, g).scalar_part()


def translate(f: QSignal, y) -> QSignal:
    """Translation (L_y f)(x1, x2) = f(x1 + y1, x2 + y2).

    On an abelian domain left and right translation coincide; translation is
    a bin permutation, hence exactly norm-preserving.
    """
    grp = f.group
    p1, p2 = (grp.shift_perm(c if isinstance(c, GroupElement) else grp.element(c)) for c in y)
    return type(f)._own(grp, f.values[np.ix_(p1, p2)])


def reflect_conj(f: QSignal) -> QSignal:
    """The reflected conjugate f~(x1, x2) = conj(f(-x1, -x2)); an involution."""
    neg = f.group.neg_perm
    return type(f)._own(f.group, qconj(f.values[np.ix_(neg, neg)]))


# Up to this group order every DFT over G is a product with the group's DFT matrices, where
# pocketfft's fixed cost per call outweighs the arithmetic: the whole-grid DFTs and the kernel
# profile (measured in CHANGES.md, "Tiny grids: DFT-matrix products replace pocketfft below a
# measured order"), smoothing (CHANGES.md, "Smoothing at matrix speed up to TINY_CORE_MAX: the
# kernel's real circulant, cached per group and envelope, applied as two real products"), and
# qft's fast core and stage memo (CHANGES.md, "Tiny grids at matrix speed: the defining-sum
# oracle without numpy's argument overhead, and the whole fast core as two cached products").
TINY_CORE_MAX = 32


def _grid_fft(values: np.ndarray, group: FiniteAbelianGroup, inverse: bool = False,
              out=None) -> np.ndarray:
    """The DFT over G x G of an ``(n, n, ...)`` array, trailing axes batched:
    the forward DFT, or the inverse one (normalised by 1/|G|^2) if ``inverse``.

    This is the whole-grid DFT of ``convolve``, of ``smooth`` above
    ``TINY_CORE_MAX`` and of the energy identity, on ``(n, n)`` planes and
    ``(n, n, 2)`` symplectic pairs alike; ``out`` (which may be ``values``
    itself) receives the result in place.  Up to order ``TINY_CORE_MAX`` it
    is one product with ``group.dft_matrices`` per grid axis, each of whose
    inverse sums is scaled by 1/|G| term by term; above it, ``_pocketfft``
    of the second variable, then of the first, which scales after summing.
    """
    n = group.order
    if n <= TINY_CORE_MAX:
        m = group.dft_matrices[inverse]
        x = values.reshape(n, n, -1)
        dest = np.empty(x.shape, np.complex128) if out is None else out.reshape(x.shape, copy=False)
        x = (m @ x.reshape(n, -1)).reshape(x.shape)
        # the matrix is symmetric: axis 1 of each (n, n) slice is x @ m
        np.matmul(x.transpose(2, 0, 1), m, out=dest.transpose(2, 0, 1))
        return dest.reshape(values.shape)
    x = _pocketfft(values, group, inverse, 1, out)
    return _pocketfft(x, group, inverse, 0, x)


def _pocketfft(values: np.ndarray, group: FiniteAbelianGroup, inverse: bool, variable: int,
               out=None, mirror: bool = False) -> np.ndarray:
    """The DFT over G of one grid variable, forward or inverse as in
    ``_grid_fft``: along axis 0 or 1 of ``values`` by ``variable``.  The
    other axis may have any length (a band of rows or of columns), and
    trailing axes are batched; ``out`` (which may be ``values`` itself)
    receives the result in place.  With ``mirror`` the frequency comes out
    negated, X(-u): its transform runs the opposite direction under the
    same normalisation, so no gather is needed.

    One pocketfft call per cyclic factor Z_m with m > 1 (a length-1 DFT is
    the identity), last coordinate first as in ``fftn``, whose argument
    handling the 1-d calls skip: it dominates on small grids.  The
    canonical index is row-major with the last coordinate fastest.
    """
    moduli = tuple(m for m in group.moduli if m > 1) or (1,)  # order 1: one axis
    shape = values.shape[:variable] + moduli + values.shape[variable + 1:]
    x = values.reshape(shape)
    dest = None if out is None else out.reshape(shape, copy=False)
    dft = np.fft.fft if inverse == mirror else np.fft.ifft
    for ax in reversed(range(variable, variable + len(moduli))):
        x = dest = dft(x, axis=ax, norm="forward" if mirror else None, out=dest)
    return x.reshape(values.shape)


# Row blocks of at least this many bytes stay in cache across the gather and
# products of a bin map, and its block-sized scratch stays far below one payload.
_BLOCK_BYTES = 1 << 17
# Up to this many multiply-adds a product runs on the calling thread: OpenBLAS (interface/gemm.c)
# starts its own workers above SMP_THRESHOLD_MIN (65536) times GEMM_MULTITHREAD_THRESHOLD (4 by
# default), and on a busy host a product that waits for one costs milliseconds.  Bin-map blocks
# and qft's tiny-core row blocks stay within it, which leaves their bits as they were.
_BLAS_SERIAL_MAX = 1 << 18


def _block_rows(order: int) -> int:
    """The rows of bins in a ``_bin_map`` block of group order ``order``: ``_BLOCK_BYTES``, one
    row or 1/16 payload, whichever is most (few numpy calls), but at most one payload and at
    most ``_BLAS_SERIAL_MAX`` multiply-adds (16 per bin)."""
    most = max(_BLOCK_BYTES, 32 * order, 2 * order * order) // (32 * order)
    return max(1, min(most, order, _BLAS_SERIAL_MAX // (16 * order)))


def _scratch(order: int) -> np.ndarray:
    """Scratch for one ``_bin_map`` block of group order ``order``."""
    return np.empty(_block_rows(order) * 4 * order)


def _bin_map(x: np.ndarray, flipped, plain: np.ndarray, neg: np.ndarray, out: np.ndarray,
             scratch=None) -> None:
    """out = x @ plain, plus x read at -x1 @ flipped unless ``flipped`` is None.

    The real 4x4 maps act on every bin of the C-ordered ``(n, n, 4)`` payload, as a row vector
    (``neg`` is the group's negation permutation), by ``_block_rows`` blocks.  A plain map out
    of place writes straight into ``out``.  Otherwise a block's row gather goes into ``scratch``
    (a ``_scratch`` by default), its flipped product into ``out`` and its plain product into
    scratch, to be added; ``x`` may be ``out`` if ``flipped`` is None, and the product then goes
    through scratch, not through a copy numpy allocates."""
    n = len(x)
    step = _block_rows(n)
    if flipped is None and x is not out:
        for i in range(0, n, step):
            np.matmul(x[i:i + step].reshape(-1, 4), plain, out=out[i:i + step].reshape(-1, 4))
        return
    scratch = _scratch(n) if scratch is None else scratch
    for i in range(0, n, step):
        block = slice(i, i + step)
        dst, src = out[block].reshape(-1, 4), x[block].reshape(-1, 4)
        tmp = scratch[:dst.size]
        if flipped is None:
            dst[...] = np.matmul(src, plain, out=tmp.reshape(-1, 4))
        else:  # take's "raise" mode would buffer the gather
            gathered = x.take(neg[block], 0, tmp.reshape(x[block].shape), "clip")
            np.matmul(gathered.reshape(-1, 4), flipped, out=dst)
            dst += np.matmul(src, plain, out=tmp.reshape(-1, 4))


def _projection(axes: AxisPair, components: tuple) -> np.ndarray:
    """The projection onto the frame axes e_k for k in ``components``.

    In standard coordinates it is the sum of the rank-one maps outer(e_k, e_k),
    added up from 0.0, so that no entry is a negative zero.  Cached on the
    axis pair.
    """
    m = axes._maps.get(components)
    if m is None:
        frame, m = axes.frame_matrix, 0.0
        for k in components:
            m = m + np.outer(frame[k], frame[k])
        m = axes._maps[components] = _frozen(m)
    return m


def convolve(f: QSignal, g: QSignal) -> QSignal:
    """Quaternion convolution (f * g)(x) = sum_y f(y) * g(x - y).

    Not commutative in general.  Left H-linear in f.  The payload viewed as
    complex is the symplectic pair of f = a1 + a2*j; with g = b1 + b2*j,
    f * g = (a1*b1 - a2*conj(b2)) + (a1*b2 + a2*conj(b1))*j (Pei-Ding-Chang),
    and conj(b) has the DFT conj(B(-u, -v)): O(|G|^2 log |G|).
    """
    if not isinstance(f, QSignal):
        raise TypeError("convolve acts on signals (primal side)")
    f._check_same_carrier(g)
    grp, neg = f.group, f.group.neg_perm
    A = _grid_fft(f.values.view(np.complex128), grp)
    B = _grid_fft(g.values.view(np.complex128), grp)
    Bc = np.conj(B[np.ix_(neg, neg)])
    out = np.empty_like(A)
    out[..., 0] = A[..., 0] * B[..., 0] - A[..., 1] * Bc[..., 1]
    out[..., 1] = A[..., 0] * B[..., 1] + A[..., 1] * Bc[..., 0]
    _grid_fft(out, grp, inverse=True, out=out)
    return QSignal._own(grp, out.view(np.float64))


def transform_W(f: QSignal, axes: AxisPair = DEFAULT_AXES) -> QSignal:
    """Reflect the mu2 and mu3 frame components in the first variable.

    In frame coordinates (a, b, c, d) the map is

        (a, b, c, d)(x1, x2) -> (a(x1,x2), b(x1,x2), c(-x1,x2), d(-x1,x2)),

    i.e. f0 + i f1 + j f2(-x1,.) + k f3(-x1,.) for the default axes.  It is
    its own inverse, preserves all norms, and commutes with left
    multiplication by elements of the plane span{1, mu1}.  It converts the
    sandwiched transform into the right-sided one.  With P the projection
    onto span{mu2, mu3} it is f(-x1, .) @ P + f @ (I - P) per bin, one
    ``_bin_map`` into the one array it returns.
    """
    out = np.empty(f.values.shape)
    _bin_map(f.values, _projection(axes, (2, 3)), _projection(axes, (0, 1)),
             f.group.neg_perm, out)
    return type(f)._own(f.group, out)


def transform_beta(g: QSpectrum, axes: AxisPair = DEFAULT_AXES) -> QSpectrum:
    """Frequency reflections making the multiplication pairing balance.

    In frame coordinates (a, b, c, d) over the dual:

        (a, b, c, d)(u, v) -> (a(u,v), b(u,-v), c(-u,v), d(-u,-v)).

    A bin permutation per component, hence norm-preserving.  Defined on
    spectra only, which is where it is consumed: by the multiplication
    pairing, an oracle-side check.  Each component is the whole payload read
    with its flips, times the projection onto that frame axis, one read at a
    time, so a call allocates a few payload-sized temporaries.
    """
    if not isinstance(g, QSpectrum):
        raise TypeError("transform_beta acts on spectra (dual side)")
    v, neg = g.values, g.group.neg_perm
    out = v.reshape(-1, 4) @ _projection(axes, (0,))
    out += v[:, neg].reshape(-1, 4) @ _projection(axes, (1,))
    out += v[neg].reshape(-1, 4) @ _projection(axes, (2,))
    out += v[np.ix_(neg, neg)].reshape(-1, 4) @ _projection(axes, (3,))
    return QSpectrum._own(g.group, out.reshape(v.shape))


def random_signal(group: FiniteAbelianGroup, rng: np.random.Generator) -> QSignal:
    """Signal with iid standard normal components; handy for property checks."""
    return QSignal._own(group, rng.standard_normal((group.order, group.order, 4)))


def random_spectrum(group: FiniteAbelianGroup, rng: np.random.Generator) -> QSpectrum:
    return QSpectrum._own(group, rng.standard_normal((group.order, group.order, 4)))
