"""Quaternion Fourier analysis on finite abelian groups.

Right-, left-, and two-sided quaternion Fourier transforms on G x G for
G = Z_{n1} x ... x Z_{nk}, with definition-faithful direct evaluators,
FFT-factorized fast evaluators, approximate-identity smoothing kernels,
a binary signal container, and a randomized verification harness.
"""

from .quat import (
    AXIS_TOL,
    DEFAULT_AXES,
    AxisPair,
    I,
    J,
    K,
    ONE,
    Quaternion,
    random_axis_pair,
)
from .group import (
    FiniteAbelianGroup,
    GroupElement,
    character_table,
)
from .signal import (
    QSignal,
    QSpectrum,
    convolve,
    inner_q,
    inner_real,
    lp_norm,
    random_signal,
    random_spectrum,
    reflect_conj,
    transform_W,
    transform_beta,
    translate,
)
from .qft import (
    TransformKind,
    classical_dft_via_rqft,
    ilqft_direct,
    ilqft_fast,
    irqft_direct,
    irqft_fast,
    isqft_direct,
    isqft_fast,
    lqft_direct,
    lqft_fast,
    multiplication_pairing,
    rqft_direct,
    rqft_fast,
    sqft_direct,
    sqft_fast,
)
from .kernels import (
    BUILTIN_FAMILIES,
    KernelFamily,
    builtin_family,
    circular_distance,
    convergence_report,
    energy_identity,
    energy_identity_pairs,
    smooth,
    spatial_kernel,
)
from .verify import CheckResult, VerifyReport, run_verification

__version__ = "0.1.0"
