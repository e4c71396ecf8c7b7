"""Quaternion Fourier transforms on G x G: direct evaluators and fast paths.

Conventions (fixed; every identity below depends on them):

* Forward transforms are unweighted sums over G x G; inverse transforms
  carry the dual weight 1/|G|^2.  With these weights the forward maps are
  exactly 2-norm preserving.
* Kernel placement and order per transform, writing k1 = character along
  mu1 in the first variable and k2 = character along mu2 in the second:

  - right-sided   F(u,v) = sum f(x) * conj(k1) * conj(k2)
  - its inverse   f(x)   = w * sum F(u,v) * k2 * k1       (note: k2 first)
  - two-sided     F(u,v) = sum conj(k1) * f(x) * conj(k2)
  - its inverse   f(x)   = w * sum k1 * F(u,v) * k2
  - left-sided    F(u,v) = sum conj(k1) * conj(k2) * f(x)
  - its inverse   f(x)   = w * sum k2 * k1 * F(u,v)       (k1 applied first)

  The reversed kernel order of the right-sided inverse is what makes the
  round trip the identity; it is verified against the definition, not
  assumed.

* On a finite group every function is absolutely summable, so the maps are
  defined on all signals directly; no density or limiting extension step is
  involved.

The ``*_direct`` evaluators are the oracles.  Each hands one stage runner
its two stages, (grid axis, kernel side) in the placement above; a stage
contracts one grid axis with a tabulated character, O(|G|^3) time in an
O(|G|^2) working set.  The tables are symmetric in (u, x), so forward and
inverse sums read them as they are; the multiplication pairing runs the
same stages.  The ``*_fast`` evaluators, which match them to 1e-9 relative
in the 2-norm, share one core (Pei-Ding-Chang, Ell-Sangwine): a symplectic
split into z1, z2 in the plane span{1, mu1}, two in-place full-grid DFTs of
z1 +/- mu1*z2 and one add/sub pass, with a first-axis frequency negation
("flip") of the z2 part, O(|G|^2 log |G|) in total.  The DFTs are pocketfft
FFTs.  From order ``PARALLEL_DFT_MIN`` on the core runs on two threads, by
row halves, then column halves; no other module starts a thread.  Up to
order ``TINY_CORE_MAX`` the whole core, maps and flips included, is two
cheaper real products with cached matrices.  Each kind is three choices
(``sqft_fast`` alone still runs the equivalent chain rqft_fast(W f) instead
of its row):

  kind   inverse  split            z2 flip
  rqft   False    f = z1 + z2*mu2  before the DFTs
  sqft   False    f = z1 + z2*mu2  none (it cancels against W)
  lqft   False    f = z1 + mu2*z2  after the add/sub pass
  irqft  True     f = z1 + z2*mu2  after
  isqft  True     f = z1 + z2*mu2  none
  ilqft  True     f = z1 + mu2*z2  before

Both paths handle arbitrary axis pairs.  The direct path evaluates
general-axis characters as defined.  The fast path maps a general frame onto
the standard one through the algebra isomorphism of the frame change
(Ell-Sangwine), composed into its entry map (frame change, then split) and
its exit map (-mu1, the split's sign, frame change back), so every axis
pair costs the same.  Those maps run by row blocks straight into the result,
and above ``TINY_CORE_MAX`` the result is the one payload-sized array the
fast core allocates; up to it, the core's one temporary is two payloads.
"""

from __future__ import annotations

import contextvars
import struct
import threading
from contextlib import contextmanager
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from .group import FiniteAbelianGroup, _characters
from .quat import DEFAULT_AXES, AxisPair, Quaternion, qmul
from .signal import (
    QSignal,
    QSpectrum,
    _bin_map,
    _frozen,
    _pocketfft,
    _scratch,
    transform_W,
    transform_beta,
)

__all__ = [
    "TransformKind",
    "rqft_direct",
    "irqft_direct",
    "sqft_direct",
    "isqft_direct",
    "lqft_direct",
    "ilqft_direct",
    "rqft_fast",
    "irqft_fast",
    "sqft_fast",
    "isqft_fast",
    "lqft_fast",
    "ilqft_fast",
    "multiplication_pairing",
    "classical_dft_via_rqft",
]


class TransformKind(Enum):
    # declaration order is the order of the per-kind checks in verify reports
    RIGHT = "rqft"
    TWO_SIDED = "sqft"
    LEFT = "lqft"


# ---------------------------------------------------------------------------
# direct (defining-sum) evaluators


_HAMILTON = qmul(np.eye(4)[:, None], np.eye(4))  # [b, c] = e_b * e_c, e = 1, i, j, k
# per kernel side, [b, (c, a)]: component a of e_b * e_c (left) or e_c * e_b
_HAMILTON_SIDES = {True: _HAMILTON.reshape(4, 16), False: _HAMILTON.swapaxes(0, 1).reshape(4, 16)}


def _stage_matrix(k: np.ndarray, left: bool) -> np.ndarray:
    """The ``(4n, 4n)`` real matrix of one stage, from its character table.

    Multiplication by each k[u, x] is a real 4x4 matrix, so summing a grid
    axis against ``k`` is one product with this matrix:
    m[(x, c), (u, a)] = component a of k[u, x] * e_c (left) or
    e_c * k[u, x].  It is built by one product too: on tiny grids,
    ``tensordot``'s argument handling costs more than that.
    """
    n = k.shape[0]
    m = (k.reshape(n * n, 4) @ _HAMILTON_SIDES[left]).reshape(n, n, 4, 4)
    return m.transpose(1, 2, 0, 3).reshape(4 * n, 4 * n)


def _apply_stage(v: np.ndarray, m: np.ndarray, axis: int) -> np.ndarray:
    """One stage's sum over grid axis ``axis`` of a ``(n, n, 4)`` payload:
    O(n^3) time in an O(n^2) working set.  Plain transposes move the axes,
    which costs less than ``moveaxis`` on tiny grids."""
    vt = v.transpose(1, 0, 2) if axis == 0 else v
    out = (vt.reshape(-1, m.shape[0]) @ m).reshape(vt.shape)
    return out.transpose(1, 0, 2) if axis == 0 else out


def _contract(v: np.ndarray, k: np.ndarray, axis: int, left: bool) -> np.ndarray:
    """Sum a character table against one grid axis of a ``(n, n, 4)`` payload.

    Returns out with ``axis`` re-indexed by u: sum_x k[u, x] * v(.., x, ..)
    if ``left``, else sum_x v(.., x, ..) * k[u, x].
    """
    return _apply_stage(v, _stage_matrix(k, left), axis)


# Stage matrices shared by the defining sums inside ``_stage_memo``; None
# outside it, so an oracle called on its own builds its tables as defined.
_STAGE_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "qgft_stage_memo", default=None)
# A memo keeps at most this many: the 24 stages (axis, direction, kernel
# side) of ``verify``'s three fixed axis pairs.  One of its checks draws an
# axis pair per trial, so with no bound a run would keep 2 more per trial.
_STAGE_MEMO_MAX = 24


@contextmanager
def _stage_memo():
    """Let the defining sums inside the block share their stage matrices.

    Up to order ``TINY_CORE_MAX`` an entry is at most 128 KiB, and a memo
    holds at most ``_STAGE_MEMO_MAX`` of them, 3 MiB; above that order
    nothing is kept.  The memo lives in the caller's context and ends with
    the block, an exception included.
    """
    token = _STAGE_MEMO.set({})
    try:
        yield
    finally:
        _STAGE_MEMO.reset(token)


def _defining_sum(x, axes: AxisPair, stages, inverse: bool = False) -> np.ndarray:
    """The defining sum over ``x``'s payload: one stage matrix per stage.

    A stage (a, left) sums grid axis a against the character along
    mu_{a+1}, kernel on the left of the payload if ``left``, and stages run
    in the order given.  Forward sums use conj(exp(mu theta)) =
    exp(-mu theta); inverse sums use exp(mu theta) and the dual weight.
    ``angle_table`` is exactly symmetric, so every table is already
    [output, summed] for both directions; the tables of one call share one
    cos and one sin of it, and each is built just before its stage.

    Inside ``_stage_memo`` and up to ``TINY_CORE_MAX`` the first
    ``_STAGE_MEMO_MAX`` stage matrices are built once and kept read-only,
    keyed on (group, the axis' float bits, ``inverse``, ``left``): the bits,
    because 0.0 == -0.0 but their tables differ in signed zeros.  An entry
    is the matrix a fresh build gives, so the sums are the same with the
    memo or without it.
    """
    grp = x.group
    memo = _STAGE_MEMO.get() if grp.order <= TINY_CORE_MAX else None
    trig = None
    v = x.values
    for axis, left in stages:
        mu = axes.mu2 if axis else axes.mu1
        m = None
        if memo is not None:
            key = (grp, struct.pack("3d", mu.x, mu.y, mu.z), inverse, left)
            m = memo.get(key)
        if m is None:
            if trig is None:
                trig = np.cos(grp.angle_table), np.sin(grp.angle_table)
            m = _stage_matrix(_characters(*trig, (1.0 if inverse else -1.0) * mu), left)
            if memo is not None and len(memo) < _STAGE_MEMO_MAX:
                memo[key] = _frozen(m)
        v = _apply_stage(v, m, axis)
    return v * grp.dual_weight if inverse else v


def rqft_direct(f: QSignal, axes: AxisPair = DEFAULT_AXES) -> QSpectrum:
    """Right-sided transform by its defining sum."""
    return QSpectrum(f.group, _defining_sum(f, axes, ((0, False), (1, False))))


def irqft_direct(F: QSpectrum, axes: AxisPair = DEFAULT_AXES) -> QSignal:
    """Inverse of the right-sided transform; kernel order k2 then k1."""
    return QSignal(F.group, _defining_sum(F, axes, ((1, False), (0, False)), inverse=True))


def sqft_direct(f: QSignal, axes: AxisPair = DEFAULT_AXES) -> QSpectrum:
    """Two-sided (sandwich) transform by its defining sum."""
    return QSpectrum(f.group, _defining_sum(f, axes, ((0, True), (1, False))))


def isqft_direct(F: QSpectrum, axes: AxisPair = DEFAULT_AXES) -> QSignal:
    """Inverse of the two-sided transform."""
    return QSignal(F.group, _defining_sum(F, axes, ((0, True), (1, False)), inverse=True))


def lqft_direct(f: QSignal, axes: AxisPair = DEFAULT_AXES) -> QSpectrum:
    """Left-sided transform: both kernel factors to the left of f."""
    return QSpectrum(f.group, _defining_sum(f, axes, ((1, True), (0, True))))


def ilqft_direct(F: QSpectrum, axes: AxisPair = DEFAULT_AXES) -> QSignal:
    """Inverse of the left-sided transform; k1 meets F first, k2 goes left."""
    return QSignal(F.group, _defining_sum(F, axes, ((0, True), (1, True)), inverse=True))


# ---------------------------------------------------------------------------
# fast paths

# Up to this group order the fast core is ``_tiny_core``'s two products: their
# 40 n^3 multiply-adds cost less than pocketfft's many small calls (the
# crossover is measured in the README's performance notes).
TINY_CORE_MAX = 32

# From this group order on, the fast core's passes run on two threads, by row
# halves, then by column halves: below it, starting threads costs more than the
# overlap saves (the crossover is measured in the README's performance notes).
PARALLEL_DFT_MIN = 288


def _in_halves(phase, order: int) -> None:
    """Run ``phase(part, scratch)`` for ``part`` a slice of ``range(order)``.

    Below ``PARALLEL_DFT_MIN`` that is one call on ``slice(None)``: halves
    would only double the pocketfft calls.  From it on, the first half runs
    on one worker thread while the second runs here, each with a ``_scratch``
    allocated here (a thread that allocates grows its own heap).  The worker
    is started and joined inside the call and runs in a copy of the caller's
    context, taken after the ufunc buffer size is set, so ``np.errstate`` and
    that size hold there too.  An exception from either half is raised here
    once both have finished.  A host that cannot start a thread gets the
    halves one after the other.
    """
    if order < PARALLEL_DFT_MIN:
        phase(slice(None), _scratch(order))
        return
    first = partial(phase, slice(order // 2), _scratch(order))
    second = partial(phase, slice(order // 2, None), _scratch(order))
    error = None

    def work():
        nonlocal error
        try:
            first()
        except BaseException as exc:  # re-raised in the caller
            error = exc

    with np.errstate():  # a band's rows make no one loop: with ufunc buffers no
        np.setbufsize(max(16, order // 32 * 16))  # longer than a row, numpy copies none
        worker = threading.Thread(target=contextvars.copy_context().run, args=(work,))
        try:
            worker.start()
        except RuntimeError:  # no thread to be had
            first()
            second()
            return
        try:
            second()
        finally:
            worker.join()
    if error is not None:
        raise error


def _core_maps(axes: AxisPair, left: bool, before: bool):
    """A kind's ``_bin_map`` maps, frame change included: the entry's
    (flipped or None, plain) and the exit's plain map.

    In frame coordinates v = x M^T (M's rows are 1, mu1, mu2, mu3) the
    entry writes z1 + mu1 z2 and z1 - mu1 z2 as the planes
    (v0 - s v3, v1 + v2) and (v0 + s v3, v1 - v2), with s = 1 for the
    right split and -1 for the left one, whose z2 is the conjugate of the
    right split's; a "before" flip reads v2 and v3 at -x1, through the
    flipped map.  The exit multiplies the f2 plane by -mu1, flips the
    sign of its mu3 part for the left split and maps back, y -> y R M.
    For the default axes M = I and every map is a signed 0/1 matrix, so
    the products are exact.  Cached on the axis pair.
    """
    key = ("core", left, before)
    maps = axes._maps.get(key)
    if maps is not None:
        return maps
    s = -1.0 if left else 1.0
    plain = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]], float)
    mixed = np.array([[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, -1], [-s, 0, s, 0]], float)
    frame = axes.frame_matrix
    if before:
        entry = _frozen(frame.T @ mixed), _frozen(frame.T @ plain)
    else:
        entry = None, _frozen(frame.T @ (plain + mixed))
    rot = np.eye(4)
    rot[2:, 2:] = [[0, -s], [1, 0]]
    maps = axes._maps[key] = entry, _frozen(rot @ frame)
    return maps


def _fast_qft(x, axes: AxisPair, inverse: bool, left: bool, flip) -> np.ndarray:
    """The one fast evaluator, given a kind's row of the module table.

    With z2 already flipped if the row says "before", c = DFT(z1 + mu1 z2)
    and e(u, v) = DFT(z1 - mu1 z2)(u, -v) give the output planes
    f1 = (c + e)/2 and f2 = -mu1 (c - e)/2.  Both planes live in the result
    from the start: the frame components (0, 1) and (2, 3) of each bin,
    viewed as complex.  The frame change is composed into the entry map,
    which writes the planes straight from the input, and into the exit map,
    which applies -mu1, the left split's sign and the way back in place
    (see ``_core_maps``); an "after" flip swaps the rows of f2.  The inverse
    DFTs normalise by 1/|G|^2.  By rows run the entry map and second-variable
    DFTs, then by columns the first-variable DFTs, the add/sub pass to
    (c + e)/2 and (c - e)/2, the swap and the exit map, each phase through
    ``_in_halves``.  Above ``TINY_CORE_MAX`` nothing of payload size is
    allocated but the result; up to it, the core is two products with
    ``_tiny_core``'s matrices and one two-payload temporary.
    """
    assert flip in ("before", "after", None), flip
    grp, n = x.group, x.group.order
    out = np.empty(x.values.shape)
    if n <= TINY_CORE_MAX:
        right, dft = _tiny_core(grp, axes, inverse, left, flip)
        terms = (x.values.reshape(n, 4 * n) @ right).reshape(2 * n, 4 * n)
        np.matmul(dft, terms, out=out.reshape(n, 4 * n))
        return out
    entry, exit_ = _core_maps(axes, left, flip == "before")
    planes = out.view(np.complex128)

    def by_rows(rows, scratch):
        c, e = planes[rows, :, 0], planes[rows, :, 1]
        _bin_map(x.values, *entry, grp.neg_perm, out, scratch, rows)
        _pocketfft(c, grp, inverse, 1, c)
        _pocketfft(e, grp, inverse, 1, e, mirror=True)

    def by_cols(cols, scratch):
        pair, band = planes[:, cols], out[:, cols]
        c, e = pair[..., 0], pair[..., 1]
        _pocketfft(pair, grp, inverse, 0, pair)  # the mirror is on axis 1
        np.subtract(c, e, out=e)
        e *= 0.5
        c -= e
        if flip == "after":  # by bin-map row blocks (a row of e is half a row of bins)
            (moved, partner), step = grp.neg_swaps, 2 * max(1, scratch.nbytes // (4 * e[0].nbytes))
            for i in range(0, len(moved), step):  # pairs that trade places are adjacent
                e[moved[i:i + step]] = e[partner[i:i + step]]
        _bin_map(band, None, exit_, grp.neg_perm, band, scratch)

    _in_halves(by_rows, n)
    _in_halves(by_cols, n)
    return out


@lru_cache(maxsize=8)  # an entry is up to 272 KB; ``verify`` uses 6 per run
def _tiny_core(group: FiniteAbelianGroup, axes: AxisPair, inverse: bool, left: bool, flip):
    """The matrices of ``_fast_qft`` up to ``TINY_CORE_MAX``, on a payload X
    of order n viewed as ``(n, 4n)``.  Apart from the axis-0 DFT D, every
    step of the core (maps, axis-1 DFTs, add/sub pass) acts on the right of
    a row of X, so the core is Re D X R_0 + Im D X R_1.  The first-variable
    negation P acts on the left, and P Re D = Re D P = Re D while
    P Im D = Im D P = -Im D: a flip only changes the sign of the Im D term,
    in the entry's flipped part "before" and in the f2 plane "after".

    Returns R = [R_0 | R_1], ``(4n, 8n)``, and D's real and imaginary parts
    interleaved by column, ``(n, 2n)``: ``(X @ R).reshape(2n, 4n)`` is the
    second product's right factor.  Keyed on the group, the cache is bounded,
    as one on the axis pair is not: Z_1 factors make endless groups of one order.
    """
    n = group.order
    (flipped, plain), exit_ = _core_maps(axes, left, flip == "before")
    mixed = 0.0 if flipped is None else flipped  # the entry's row-flipped part
    d = group.dft_matrices[inverse]
    # [x, p, v]: the axis-1 DFT that takes plane component p at x2 = x to v
    dfts = np.stack([d, d.conj()], axis=1)[:, [0, 0, 1, 1]]
    rights = []
    for k, enter in enumerate((plain + mixed, plain - mixed)):
        s = -1.0 if k and flip == "after" else 1.0
        # [p, q]: a unit in (re a, im a, re b, im b)[p], times the i of Im D,
        # into plane q: (c + e)/2 or (c - e)/2, the latter sign-flipped "after"
        coef = 0.5 * 1j ** k * np.array([[1, s], [1j, 1j * s], [1, -s], [1j, -1j * s]])
        g = (dfts[..., None] * coef[:, None, :]).view(np.float64)
        g = (enter @ g.reshape(n, 4, 4 * n)).reshape(n, 4, n, 4) @ exit_
        rights.append(g.reshape(4 * n, 4 * n))
    dft = np.stack([d.real, d.imag], axis=-1).reshape(n, 2 * n)
    return _frozen(np.concatenate(rights, axis=1)), _frozen(dft)


def rqft_fast(f: QSignal, axes: AxisPair = DEFAULT_AXES) -> QSpectrum:
    """Right-sided transform: forward DFTs, right split, z2 flip before."""
    return QSpectrum._own(f.group, _fast_qft(f, axes, False, False, "before"))


def irqft_fast(F: QSpectrum, axes: AxisPair = DEFAULT_AXES) -> QSignal:
    """Inverse right-sided transform: inverse DFTs, right split, z2 flip after."""
    return QSignal._own(F.group, _fast_qft(F, axes, True, False, "after"))


def sqft_fast(f: QSignal, axes: AxisPair = DEFAULT_AXES) -> QSpectrum:
    """Two-sided transform as right-sided transform of the reflected signal."""
    return rqft_fast(transform_W(f, axes), axes)


def isqft_fast(F: QSpectrum, axes: AxisPair = DEFAULT_AXES) -> QSignal:
    """Inverse two-sided transform W irqft(F): inverse, right split, no z2 flip."""
    return QSignal._own(F.group, _fast_qft(F, axes, True, False, None))


def lqft_fast(f: QSignal, axes: AxisPair = DEFAULT_AXES) -> QSpectrum:
    """Left-sided |G|^2 conj(irqft(conj f)): forward, left split, z2 flip after."""
    return QSpectrum._own(f.group, _fast_qft(f, axes, False, True, "after"))


def ilqft_fast(F: QSpectrum, axes: AxisPair = DEFAULT_AXES) -> QSignal:
    """Inverse left-sided conj(rqft(conj F))/|G|^2: inverse, left split, before."""
    return QSignal._own(F.group, _fast_qft(F, axes, True, True, "before"))


# The transform registry: every kind x direction x mode resolves here.  The
# CLI, bench and verify read these tables at call time and keep no copies.
FORWARD_DIRECT = {
    TransformKind.RIGHT: rqft_direct,
    TransformKind.LEFT: lqft_direct,
    TransformKind.TWO_SIDED: sqft_direct,
}
FORWARD_FAST = {
    TransformKind.RIGHT: rqft_fast,
    TransformKind.LEFT: lqft_fast,
    TransformKind.TWO_SIDED: sqft_fast,
}
INVERSE_DIRECT = {
    TransformKind.RIGHT: irqft_direct,
    TransformKind.LEFT: ilqft_direct,
    TransformKind.TWO_SIDED: isqft_direct,
}
INVERSE_FAST = {
    TransformKind.RIGHT: irqft_fast,
    TransformKind.LEFT: ilqft_fast,
    TransformKind.TWO_SIDED: isqft_fast,
}


# ---------------------------------------------------------------------------
# multiplication pairing and the classical embedding


def multiplication_pairing(
    f: QSignal,
    g: QSpectrum,
    axes: AxisPair = DEFAULT_AXES,
    kernel_order: str = "mu1-mu2",
):
    """Both sides of the spectral/spatial pairing identity.

    Returns (lhs, rhs) with

        lhs = sum_w rqft(f)(w) * g(w) * dual_weight
        rhs = sum_x f(x) * H(x)          (counting measure)

    where H is built from h = transform_beta(g) with both conjugated kernel
    factors on the right of h.  ``kernel_order`` selects their order:
    "mu1-mu2" (the order under which the identity holds exactly and the
    default) or "mu2-mu1" (retained so the discrepancy between the two
    orders can be measured; they differ for general quaternion spectra).
    """
    if f.group != g.group:
        raise ValueError("signal and spectrum must share a group")
    F = rqft_direct(f, axes)
    dw = f.group.dual_weight
    lhs = Quaternion.from_array(qmul(F.values, g.values).sum(axis=(0, 1)) * dw)

    # the forward sums' stages, both kernels on the right: rqft's order or irqft's
    stages = {"mu1-mu2": ((0, False), (1, False)), "mu2-mu1": ((1, False), (0, False))}
    if kernel_order not in stages:
        raise ValueError("kernel_order must be 'mu1-mu2' or 'mu2-mu1'")
    H = _defining_sum(transform_beta(g, axes), axes, stages[kernel_order])
    rhs = Quaternion.from_array(qmul(f.values, H).sum(axis=(0, 1)) * dw)
    return lhs, rhs


def classical_dft_via_rqft(
    values: np.ndarray,
    group: FiniteAbelianGroup,
    axes: AxisPair = DEFAULT_AXES,
) -> np.ndarray:
    """Classical 1-d DFT over G recovered from the right-sided transform.

    ``values`` is a length-|G| complex array, a + b*1j standing for the value
    a + b*mu1 in the plane span{1, mu1}.  The signal is lifted to G x G as
    constant in the second variable; the right-sided transform is then
    sliced at second frequency zero and divided by |G|, which reproduces
    sum_x f(x) exp(-2*pi*i*u*x/n).
    """
    z = np.asarray(values, dtype=np.complex128)
    n = group.order
    if z.shape != (n,):
        raise ValueError(f"expected shape ({n},) complex, got {z.shape}")
    comps = np.zeros((n, n, 4))
    comps[..., 0] = z.real[:, None]
    comps[..., 1] = z.imag[:, None]
    lifted = QSignal(group, axes.from_frame(comps))
    F = rqft_fast(lifted, axes)
    col = axes.to_frame(F.values[:, 0, :])
    return (col[:, 0] + 1j * col[:, 1]) / n
