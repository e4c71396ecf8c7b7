"""Approximate-identity kernel families and smoothing diagnostics.

A kernel family is one real spectral envelope phi on the dual, indexed by
an integer level l >= 0, given as a profile of the circular distance, with
values in [0, 1], equal to 1 at frequency zero, and non-decreasing in l
toward 1.  Each level yields a separable spatial kernel

    P_1(x) = (1/|G|) * sum_u phi(l, u) * chi(u, x)
    P(x1, x2) = P_1(x1) * P_1(x2)

which is real because a function of the circular distance is symmetric
under u -> -u, and has unit total mass because phi(l, 0) = 1.  Convolving a
signal with P smooths it; as the envelope rises to 1 the smoothed signal
returns to the original.

Built-in families (selected by name, shared with the CLI):

* ``dirichlet``         phi(l, u) = 1 if circdist(u) <= l else 0
* ``fejer``             phi(l, u) = max(0, 1 - circdist(u) / (l + 1))
* ``poisson_geometric`` phi(l, u) = exp(-circdist(u) / 2**l)

where circdist is the circular distance min(u, n - u), summed across
coordinates for product groups and computed for the whole dual at once.

The profile P_1 is one inverse DFT over G, and the spatial kernel its outer
product.  Smoothing is the convolution f * P = S X S^T, with X the payload
and S[x, y] = P_1(x - y) the kernel's real circulant.  Up to order
``signal.TINY_CORE_MAX`` both are matrix products, S cached; above it, the
DFT is pocketfft and smoothing a spectral multiply between two whole-grid
FFTs.  Both caches are keyed on the moduli, so no group's tables are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from . import signal
from .group import FiniteAbelianGroup
from .quat import DEFAULT_AXES, AxisPair, _frozen, qabs2
from .signal import QSignal, _grid_fft, _pocketfft, convolve, lp_norm, reflect_conj
from .qft import rqft_fast

__all__ = [
    "KernelFamily",
    "BUILTIN_FAMILIES",
    "circular_distance",
    "builtin_family",
    "spatial_kernel",
    "smooth",
    "convergence_report",
    "energy_identity",
    "energy_identity_pairs",
]


def circular_distance(group: FiniteAbelianGroup) -> np.ndarray:
    """Sum over coordinates of min(u, n - u), per frequency in canonical order.

    Read-only, and cached for the last 8 groups' moduli: every CLI command
    builds a fresh group from its file's header."""
    return _circular_distance(group.moduli)


@lru_cache(maxsize=8)  # an entry is 8 bytes per element
def _circular_distance(moduli: tuple[int, ...]) -> np.ndarray:
    c = FiniteAbelianGroup(moduli).coords_matrix
    return _frozen(np.minimum(c, np.asarray(moduli) - c).sum(axis=1))


@dataclass
class KernelFamily:
    """A named level-indexed spectral envelope.

    ``profile(level, d)`` maps an integer array of circular distances to
    reals in [0, 1].  An envelope that depends on the frequency only through
    its circular distance is even under u -> -u, so its kernel is real.
    """

    name: str
    profile: Callable[[int, np.ndarray], np.ndarray]

    def envelope(self, level: int, group: FiniteAbelianGroup) -> np.ndarray:
        """Envelope values over the canonical dual enumeration."""
        if level < 0:
            raise ValueError("level must be >= 0")
        return self.profile(level, circular_distance(group))


BUILTIN_FAMILIES = ("dirichlet", "fejer", "poisson_geometric")


def builtin_family(name: str) -> KernelFamily:
    """One of the built-in families by name; unknown names are rejected.

    Every level is accepted: numpy takes no exponent past int32 and no divisor
    past the float range, so poisson_geometric caps the level at 2048 and fejer
    at 2**1023, where the envelope is already 1 at every int64 distance.
    """
    if name == "dirichlet":
        return KernelFamily(name, lambda l, d: (d <= l).astype(np.float64))
    if name == "fejer":
        return KernelFamily(name, lambda l, d: np.maximum(0.0, 1.0 - d / min(l + 1, 2**1023)))
    if name == "poisson_geometric":
        return KernelFamily(name, lambda l, d: np.exp(-np.ldexp(d, -min(l, 2048))))
    raise ValueError(f"unknown kernel family {name!r}; choose from {BUILTIN_FAMILIES}")


def _profile(env: np.ndarray, group: FiniteAbelianGroup) -> np.ndarray:
    """P_1(x) = (1/|G|) sum_u phi(u) chi(u, x): one inverse DFT over G, real
    because phi is even: a product with the inverse DFT matrix up to the switch."""
    if group.order <= signal.TINY_CORE_MAX:
        return (group.dft_matrices[True] @ env).real
    return _pocketfft(env, group, True, 0).real


@lru_cache(maxsize=8)  # up to TINY_CORE_MAX an entry is at most 8 KiB
def _circulant(moduli: tuple[int, ...], env: bytes) -> np.ndarray:
    """S[x, y] = P_1(x - y) for the envelope whose float64 bytes are ``env``."""
    group = FiniteAbelianGroup(moduli)
    return _frozen(_profile(np.frombuffer(env), group)[group.difference_table])


def spatial_kernel(family: KernelFamily, level: int, group: FiniteAbelianGroup) -> QSignal:
    """Spatial kernel of ``family`` at ``level``: a real scalar signal of unit
    mass, the outer product P_1 (x) P_1."""
    p1 = _profile(family.envelope(level, group), group)
    vals = np.zeros((group.order, group.order, 4))
    np.outer(p1, p1, out=vals[..., 0])
    return QSignal._own(group, vals)


def _smoothings(f: QSignal, envelopes: Sequence[np.ndarray]) -> Iterator[QSignal]:
    """f * P for each envelope's kernel P, in order: the one smoothing generator.

    Up to ``signal.TINY_CORE_MAX`` (read at call time) each is S X S^T, two real
    products with the cached circulant S, into the one array returned.  Above
    it, f's spectrum (the ``_grid_fft`` of its complex view) is taken once and
    each result is the inverse DFT of spec * phi(u) * phi(v); the last envelope
    multiplies the spectrum in place, so an envelope costs one array, the result.
    """
    grp = f.group
    n = grp.order
    spec = _grid_fft(f.values.view(np.complex128), grp) if n > signal.TINY_CORE_MAX else None
    x = f.values.reshape(n, 4 * n)
    for k, env in enumerate(envelopes, 1):
        if spec is None:
            s = _circulant(grp.moduli, np.asarray(env, dtype=np.float64).tobytes())
            out = np.empty((n, n, 4))
            # S acts on the first variable as a left product, on the second batched per row
            np.matmul(s, (s @ x).reshape(n, n, 4), out=out)
        else:
            weight = np.outer(env, env)[..., None]
            out = np.multiply(spec, weight, out=spec if k == len(envelopes) else None)
            out = _grid_fft(out, grp, inverse=True, out=out).view(np.float64)
        yield QSignal._own(grp, out)


def smooth(f: QSignal, family: KernelFamily, level: int) -> QSignal:
    """Convolve f with the family's level-``level`` spatial kernel (f first).

    The kernel is real, scalar and separable.  Up to ``signal.TINY_CORE_MAX``
    this is S X S^T with S[x, y] = P_1(x - y), two real products: O(|G|^3).
    Above it, it is the spectral multiply ``ifftn(fftn(z) * phi(u) * phi(v))``
    of the payload's symplectic pair z, its complex view: O(|G|^2 log |G|).
    """
    return next(_smoothings(f, [family.envelope(level, f.group)]))


def convergence_report(f: QSignal, family: KernelFamily, lmax: int, p=2) -> list[float]:
    """The sequence ||smooth(f, l) - f||_p for l = 0 .. lmax.

    Each level is ``smooth``'s result.  Up to ``signal.TINY_CORE_MAX`` every
    level is two products with its own cached circulant; above it every level
    multiplies the same spectrum, so f's forward FFT runs once.
    """
    if lmax < 0:
        raise ValueError("lmax must be >= 0")
    envs = [family.envelope(l, f.group) for l in range(lmax + 1)]
    return [lp_norm(sm - f, p) for sm in _smoothings(f, envs)]


def energy_identity_pairs(
    f: QSignal,
    pairs: Sequence[tuple[KernelFamily, int]],
    axes: AxisPair = DEFAULT_AXES,
) -> list[tuple[float, float]]:
    """``energy_identity(f, family, level, axes)`` for each (family, level).

    The autocorrelation of f, its forward FFT and the RQFT energy
    ``|rqft(f)|^2`` do not depend on the kernel, so they are computed once.
    The smoothed autocorrelation's scalar part at the origin is its inverse
    FFT at 0, ``sum_{u,v} phi(u) phi(v) Re S_0(u, v) * dual_weight`` with S_0
    the spectrum of the (w, x) plane, so each pair costs two weighted sums and
    no FFT.
    """
    grp = f.group
    auto = convolve(reflect_conj(f), f)
    spec = _grid_fft(auto.values.view(np.complex128), grp)[..., 0].real
    energy = qabs2(rqft_fast(f, axes).values)
    envs = [family.envelope(level, grp) for family, level in pairs]
    # sum_{u,v} phi(u) * phi(v) * X(u, v) is phi @ X @ phi
    return [(float(env @ spec @ env * grp.dual_weight), float(env @ energy @ env * grp.dual_weight))
            for env in envs]


def energy_identity(
    f: QSignal,
    family: KernelFamily,
    level: int,
    axes: AxisPair = DEFAULT_AXES,
):
    """Both sides of the smoothed-correlation energy identity.

    lhs is the scalar part at the origin of (reflect_conj(f) * f) * P,
    i.e. the autocorrelation of f smoothed by the kernel; rhs is the
    envelope-weighted spectral energy

        sum_{u,v} phi(u) * phi(v) * |rqft(f)(u, v)|^2 * dual_weight.

    The two agree exactly (up to rounding) for every level and family; at
    full passband both reduce to ||f||_2^2.  ``energy_identity_pairs`` checks
    many (family, level) pairs on one signal.
    """
    return energy_identity_pairs(f, [(family, level)], axes)[0]
