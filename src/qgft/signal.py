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

import contextvars
import threading
from functools import partial

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
        # always copy: the caller may still hold ``values`` and write into it
        if np.iscomplexobj(values):  # the float64 cast would drop imaginary parts
            raise ValueError("signal values must be real quaternion components")
        self._adopt(group, np.array(values, dtype=np.float64, order="C", copy=True))

    @classmethod
    def _own(cls, group: FiniteAbelianGroup, values: np.ndarray):
        """Wrap a float64 C-ordered array the library has just built, without
        the defensive copy; the checks still run and the array is frozen."""
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
        return self._own(self.group, qmul(q.to_array(), self.values))

    def right_mul(self, q: Quaternion):
        """Pointwise product f(x) * q."""
        return self._own(self.group, qmul(self.values, q.to_array()))

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
    inner_q(p*f, q*g) = p * inner_q(f, g) * conj(q).
    """
    f._check_same_carrier(g)
    s = qmul(f.values, qconj(g.values)).sum(axis=(0, 1)) * f.weight
    return Quaternion.from_array(s)


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


# Up to this group order the DFT over G x G is two products with the group's
# DFT matrices, and the fast core of ``qft`` two products with its own: below
# it numpy's fixed cost per FFT call outweighs the arithmetic (the crossover
# is measured in the README's performance notes).
DFT_MATRIX_MAX = 16

# From this group order on, the fast core's passes (by row halves, then by
# column halves) and ``convolve``'s two forward DFTs run on two threads:
# below it, starting threads costs more than the overlap saves (the
# crossover is measured in the README's performance notes).
PARALLEL_DFT_MIN = 288


def _both(first, second, order: int) -> tuple:
    """``(first(), second())`` for work on a grid of group order ``order``.

    From ``PARALLEL_DFT_MIN`` on, ``first`` runs on one short-lived worker
    thread while ``second`` runs here.  The worker is started and joined
    inside the call, so nothing it does outlives the call, and it runs in a
    copy of the caller's context, so ``np.errstate`` holds there too.  An
    exception from either call is raised here once both have finished.  A
    host that cannot start a thread gets the two calls one after the other.
    """
    if order < PARALLEL_DFT_MIN:
        return first(), second()
    result = error = None

    def work():
        nonlocal result, error
        try:
            result = first()
        except BaseException as exc:  # re-raised in the caller
            error = exc

    worker = threading.Thread(target=contextvars.copy_context().run, args=(work,))
    try:
        worker.start()
    except RuntimeError:  # no thread to be had
        return first(), second()
    try:
        other = second()
    finally:
        worker.join()
    if error is not None:
        raise error
    return result, other


def _grid_fft(
    values: np.ndarray,
    group: FiniteAbelianGroup,
    inverse: bool = False,
    out=None,
    mirror: bool = False,
    axis=None,
) -> np.ndarray:
    """The DFT over G x G of an ``(n, n, ...)`` array, trailing axes batched:
    the forward DFT, or the inverse one (normalised by 1/|G|^2) if ``inverse``.

    Every DFT in the library goes through here (the fast core's matrices
    take in its DFTs up to ``qft.TINY_CORE_MAX``): ``(n, n)`` complex planes
    and ``(n, n, 2)`` symplectic pairs alike.  ``out`` (which may be
    ``values`` itself) receives the result in place.  With ``mirror`` the
    second frequency comes out negated, X(u, -v): its transform runs the
    opposite direction under the same normalisation, so no gather is needed.
    With ``axis`` 0 or 1 only that grid variable's DFT runs, and the other
    axis of ``values`` may have any length (a band of columns or of rows).

    Up to order ``DFT_MATRIX_MAX`` it is one product with
    ``group.dft_matrices`` per grid axis, the conjugate matrix on axis 1
    when mirrored.  Above it, pocketfft runs on two axes per cyclic factor
    Z_m with m > 1 (a length-1 DFT is the identity): the canonical index is
    row-major with the last coordinate fastest.
    """
    n = group.order
    if n <= DFT_MATRIX_MAX:
        x = values.reshape(n, n, -1) if axis is None else values.reshape(*values.shape[:2], -1)
        dest = np.empty(x.shape, np.complex128) if out is None else out.reshape(x.shape, copy=False)
        if axis != 1:
            x = (group.dft_matrices[inverse, False] @ x.reshape(n, -1)).reshape(x.shape)
            if axis == 0:
                dest[...] = x
        if axis != 0:  # the matrices are symmetric: axis 1 of each (n, n) slice is x @ m
            np.matmul(x.transpose(2, 0, 1), group.dft_matrices[inverse, mirror],
                      out=dest.transpose(2, 0, 1))
        return dest.reshape(values.shape)
    moduli = tuple(m for m in group.moduli if m > 1) or (1,)  # order 1: one axis
    k = len(moduli)
    lead = values.shape[:1] if axis == 1 else moduli  # the first variable's axes
    shape = lead + (values.shape[1:2] if axis == 0 else moduli) + values.shape[2:]
    x = values.reshape(shape)
    dest = None if out is None else out.reshape(shape, copy=False)
    # fftn's own passes in its axis order, as 1-d calls: that skips its
    # argument handling, which dominates the cost on small grids
    for ax in reversed(range(*{None: (0, 2 * k), 0: (0, k), 1: (1, k + 1)}[axis])):
        mirrored = mirror and ax >= len(lead)
        dft = np.fft.fft if inverse == mirrored else np.fft.ifft
        x = dft(x, axis=ax, norm="forward" if mirrored else None, out=dest)
        dest = x
    return x.reshape(values.shape)


# Row blocks of at least this many bytes stay in cache across the terms of a
# bin map, and its block-sized temporaries stay far below one payload.
_BLOCK_BYTES = 1 << 17


def _scratch(order: int) -> np.ndarray:
    """A ``_bin_map`` block for group order ``order``: ``_BLOCK_BYTES``, one row
    or 1/16 payload, whichever is most (few numpy calls, each a GIL wait).
    Allocate a worker thread's in its caller: a thread that allocates grows its own heap."""
    return np.empty(max(_BLOCK_BYTES, 32 * order, 2 * order * order) // 8)


def _bin_map(x: np.ndarray, terms, neg: np.ndarray, out: np.ndarray, scratch=None,
             rows: slice = slice(None)) -> None:
    """out = sum of x[rows][:, cols] @ m over ``terms`` of (flip_rows, flip_cols, m).

    Each term reads the ``(n, n, 4)`` payload with its first and/or second
    variable negated (``neg`` is the group's negation permutation) and
    applies the real 4x4 map ``m`` to every bin, as a row vector, in the
    ``rows`` of ``out``, by row blocks the size of ``scratch`` (a ``_scratch``
    by default), which holds their row gathers and the products that cannot
    go straight into ``out`` (a gather's gets its own array).  ``x`` and ``out``
    may be column bands if no term flips, and one array for one plain term."""
    scratch = _scratch(len(x)) if scratch is None else scratch
    # a payload's rows of bins make one matrix of bins; a band's do not
    shape = (-1, 4) if x.flags.c_contiguous and out.flags.c_contiguous else (-1,) + x.shape[1:]
    step = max(1, scratch.nbytes // x[0].nbytes)
    start, stop, _ = rows.indices(len(out))
    for i in range(start, stop, step):
        block = slice(i, min(i + step, stop))
        dst = out[block].reshape(shape)
        for t, (flip_rows, flip_cols, m) in enumerate(terms):
            if flip_rows or t or x is out and len(shape) > 2:
                tmp = scratch[:dst.size].reshape((-1,) + x.shape[1:])
            src = x.take(neg[block], 0, tmp, "clip") if flip_rows else x[block]  # "raise" buffers
            src = src[:, neg] if flip_cols else src
            if t:  # the product of a gather into scratch gets an array of its own
                prod = None if flip_rows else tmp.reshape(shape)
                dst += np.matmul(src.reshape(shape), m, out=prod)
            elif len(shape) == 2 or x is not out:  # numpy copies an overlapping payload itself
                np.matmul(src.reshape(shape), m, out=dst)
            else:  # a band in place: through scratch, not a copy numpy allocates
                dst[...] = np.matmul(src, m, out=tmp)


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
    """``m`` made read-only: cached maps and grid payloads are shared by every caller."""
    m.setflags(write=False)
    return m


def convolve(f: QSignal, g: QSignal) -> QSignal:
    """Quaternion convolution (f * g)(x) = sum_y f(y) * g(x - y).

    Not commutative in general.  Left H-linear in f.  The payload viewed as
    complex is the symplectic pair of f = a1 + a2*j; with g = b1 + b2*j,
    f * g = (a1*b1 - a2*conj(b2)) + (a1*b2 + a2*conj(b1))*j (Pei-Ding-Chang),
    and conj(b) has the DFT conj(B(-u, -v)): O(|G|^2 log |G|).  The DFTs of
    f and g are independent and run on two threads from order
    ``PARALLEL_DFT_MIN`` on.
    """
    f._check_same_carrier(g)
    grp, neg = f.group, f.group.neg_perm
    A, B = _both(partial(_grid_fft, f.values.view(np.complex128), grp),
                 partial(_grid_fft, g.values.view(np.complex128), grp), grp.order)
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
    return QSignal._own(group, rng.standard_normal((group.order, group.order, 4)))


def random_spectrum(group: FiniteAbelianGroup, rng: np.random.Generator) -> QSpectrum:
    return QSpectrum._own(group, rng.standard_normal((group.order, group.order, 4)))
