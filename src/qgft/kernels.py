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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .group import FiniteAbelianGroup
from .quat import DEFAULT_AXES, AxisPair, qabs2
from .signal import QSignal, _grid_fft, convolve, lp_norm, reflect_conj
from .qft import rqft_direct

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
    """Sum over coordinates of min(u, n - u), per frequency in canonical order."""
    c = group.coords_matrix
    return np.minimum(c, np.asarray(group.moduli) - c).sum(axis=1)


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


def spatial_kernel(family: KernelFamily, level: int, group: FiniteAbelianGroup) -> QSignal:
    """Spatial kernel of ``family`` at ``level``: a real scalar signal of unit mass."""
    env = family.envelope(level, group)
    vals = np.zeros((group.order, group.order, 4))
    vals[..., 0] = _grid_fft(np.outer(env, env), group, inverse=True).real
    return QSignal._own(group, vals)


def _smoothed(
    spec: np.ndarray, group: FiniteAbelianGroup, envelopes: Sequence[np.ndarray]
) -> Iterator[tuple[np.ndarray, QSignal]]:
    """(phi(u) * phi(v), ifftn(spec * phi(u) * phi(v))) for each envelope phi.

    ``spec`` is the ``_grid_fft`` of a payload's complex view; the smoothed
    signal is the second item.  The last envelope multiplies ``spec`` in
    place, so one envelope costs one array, the result.
    """
    for k, env in enumerate(envelopes, 1):
        weight = np.outer(env, env)
        out = np.multiply(spec, weight[..., None], out=spec if k == len(envelopes) else None)
        _grid_fft(out, group, inverse=True, out=out)
        yield weight, QSignal._own(group, out.view(np.float64))


def smooth(f: QSignal, family: KernelFamily, level: int) -> QSignal:
    """Convolve f with the family's level-``level`` spatial kernel (f first).

    The kernel is real, scalar and separable, so this is the spectral multiply
    ``ifftn(fftn(z) * phi(u) * phi(v))`` of the payload's symplectic pair z,
    its complex view: O(|G|^2 log |G|).
    """
    env = family.envelope(level, f.group)
    spec = _grid_fft(f.values.view(np.complex128), f.group)
    return next(_smoothed(spec, f.group, [env]))[1]


def convergence_report(f: QSignal, family: KernelFamily, lmax: int, p=2) -> list[float]:
    """The sequence ||smooth(f, l) - f||_p for l = 0 .. lmax.

    Every level multiplies the same spectrum, so f's forward FFT runs once.
    """
    if lmax < 0:
        raise ValueError("lmax must be >= 0")
    envs = [family.envelope(l, f.group) for l in range(lmax + 1)]
    spec = _grid_fft(f.values.view(np.complex128), f.group)
    return [lp_norm(sm - f, p) for _, sm in _smoothed(spec, f.group, envs)]


def energy_identity_pairs(
    f: QSignal,
    pairs: Sequence[tuple[KernelFamily, int]],
    axes: AxisPair = DEFAULT_AXES,
) -> list[tuple[float, float]]:
    """``energy_identity(f, family, level, axes)`` for each (family, level).

    The autocorrelation of f, its forward FFT and the RQFT energy
    ``|rqft(f)|^2`` do not depend on the kernel, so they are computed once;
    each pair costs one envelope multiply and one inverse FFT.
    """
    grp = f.group
    auto = convolve(reflect_conj(f), f)
    spec = _grid_fft(auto.values.view(np.complex128), grp)
    energy = qabs2(rqft_direct(f, axes).values)
    envs = [family.envelope(level, grp) for family, level in pairs]
    return [
        (float(sm.values[0, 0, 0]), float((weight * energy).sum() * grp.dual_weight))
        for weight, sm in _smoothed(spec, grp, envs)
    ]


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
