"""Approximate-identity kernel families and smoothing diagnostics.

A kernel family is a pair of real spectral envelopes (phi1, phi2) on the
dual, indexed by an integer level l >= 0, with values in [0, 1], equal to 1
at frequency zero, and non-decreasing in l toward 1.  Each level yields a
spatial kernel

    P_t(x) = (1/|G|) * sum_u phi_t(l, u) * chi(u, x),      t = 1, 2
    P(x1, x2) = P_1(x1) * P_2(x2)

which is real for envelopes symmetric under u -> -u and has unit total mass
because phi_t(l, 0) = 1.  Convolving a signal with P smooths it; as the
envelopes rise to 1 the smoothed signal returns to the original.

Built-in families (selected by name, shared with the CLI):

* ``dirichlet``         phi(l, u) = 1 if circdist(u) <= l else 0
* ``fejer``             phi(l, u) = max(0, 1 - circdist(u) / (l + 1))
* ``poisson_geometric`` phi(l, u) = exp(-circdist(u) / 2**l)

where circdist is the circular distance min(u, n - u), summed across
coordinates for product groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .group import DualElement, FiniteAbelianGroup
from .quat import DEFAULT_AXES, AxisPair, qabs2
from .signal import QSignal, _grid_fft, convolve, lp_norm, reflect_conj
from .qft import rqft_direct

__all__ = [
    "KernelFamily",
    "SpatialKernel",
    "BUILTIN_FAMILIES",
    "circular_distance",
    "builtin_family",
    "spatial_kernel",
    "smooth",
    "convergence_report",
    "energy_identity",
]


def circular_distance(el: DualElement) -> int:
    """Sum over coordinates of min(u, n - u)."""
    return sum(min(c, n - c) for c, n in zip(el.coords, el.group.moduli))


@dataclass
class KernelFamily:
    """A named pair of level-indexed spectral envelopes.

    ``phi1`` and ``phi2`` map (level, frequency) to a real in [0, 1].
    """

    name: str
    phi1: Callable[[int, DualElement], float]
    phi2: Callable[[int, DualElement], float]

    def envelope(self, which: int, level: int, group: FiniteAbelianGroup) -> np.ndarray:
        """Envelope values over the canonical dual enumeration."""
        phi = self.phi1 if which == 1 else self.phi2
        return np.array([phi(level, u) for u in group.elements()], dtype=np.float64)


def _distance_family(name: str, profile: Callable[[int, int], float]) -> KernelFamily:
    def phi(level: int, u: DualElement) -> float:
        return profile(level, circular_distance(u))

    return KernelFamily(name, phi, phi)


BUILTIN_FAMILIES = ("dirichlet", "fejer", "poisson_geometric")


def builtin_family(name: str) -> KernelFamily:
    """One of the built-in families by name; unknown names are rejected.

    The families are distance-based and do not depend on the group beyond
    the circular distance of each frequency.
    """
    if name == "dirichlet":
        return _distance_family(name, lambda l, d: 1.0 if d <= l else 0.0)
    if name == "fejer":
        return _distance_family(name, lambda l, d: max(0.0, 1.0 - d / (l + 1)))
    if name == "poisson_geometric":
        return _distance_family(name, lambda l, d: float(np.exp(-math.ldexp(d, -l))))
    raise ValueError(f"unknown kernel family {name!r}; choose from {BUILTIN_FAMILIES}")


@dataclass(frozen=True)
class SpatialKernel:
    """A level's spatial kernel; real-valued with unit total mass."""

    level: int
    values: QSignal


def _envelopes(family: KernelFamily, level: int, group: FiniteAbelianGroup):
    """Both envelopes at ``level``, checked symmetric under u -> -u."""
    if level < 0:
        raise ValueError("level must be >= 0")
    envs = (family.envelope(1, level, group), family.envelope(2, level, group))
    for env in envs:
        if np.abs(env - env[group.neg_perm]).max() > 1e-9 * (1.0 + np.abs(env).max()):
            raise ValueError(
                f"family {family.name!r} is not symmetric under frequency "
                "negation at this level; its spatial kernel is not real"
            )
    return envs


def spatial_kernel(family: KernelFamily, level: int, group: FiniteAbelianGroup) -> SpatialKernel:
    """Spatial kernel of ``family`` at ``level`` on G x G.

    Requires envelopes symmetric under u -> -u (true of the built-ins);
    otherwise the defining sums are not real and construction fails.
    """
    env1, env2 = _envelopes(family, level, group)
    n = group.order
    vals = np.zeros((n, n, 4))
    vals[..., 0] = _grid_fft(np.outer(env1, env2), group, np.fft.ifftn).real
    return SpatialKernel(level=level, values=QSignal(group, vals))


def smooth(f: QSignal, family: KernelFamily, level: int) -> QSignal:
    """Convolve f with the family's level-``level`` spatial kernel (f first).

    The kernel is real, scalar and separable, so this is the spectral multiply
    ``ifftn(fftn(f) * phi1(u) * phi2(v))`` componentwise: O(|G|^2 log |G|).
    """
    env1, env2 = _envelopes(family, level, f.group)
    spec = _grid_fft(f.values, f.group) * np.outer(env1, env2)[..., None]
    return QSignal(f.group, _grid_fft(spec, f.group, np.fft.ifftn).real)


def convergence_report(f: QSignal, family: KernelFamily, lmax: int, p=2) -> list[float]:
    """The sequence ||smooth(f, l) - f||_p for l = 0 .. lmax."""
    if lmax < 0:
        raise ValueError("lmax must be >= 0")
    return [lp_norm(smooth(f, family, l) - f, p) for l in range(lmax + 1)]


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

        sum_{u,v} phi1(u) * phi2(v) * |rqft(f)(u, v)|^2 * dual_weight.

    The two agree exactly (up to rounding) for every level and family; at
    full passband both reduce to ||f||_2^2.
    """
    grp = f.group
    lhs = float(smooth(convolve(reflect_conj(f), f), family, level).values[0, 0, 0])

    F = rqft_direct(f, axes)
    env1, env2 = _envelopes(family, level, grp)
    rhs = float(
        (env1[:, None] * env2[None, :] * qabs2(F.values)).sum() * grp.dual_weight
    )
    return lhs, rhs
