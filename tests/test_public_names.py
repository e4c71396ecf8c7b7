"""The public surface of ``qgft``: a name is added or dropped only together
with an edit here."""

import types

import qgft

PUBLIC_NAMES = (
    "AXIS_TOL", "AxisPair", "BUILTIN_FAMILIES", "CheckResult", "DEFAULT_AXES",
    "FiniteAbelianGroup", "GroupElement", "I", "J", "K", "KernelFamily", "ONE",
    "QSignal", "QSpectrum", "Quaternion", "TransformKind", "VerifyReport",
    "builtin_family", "character_table", "circular_distance",
    "classical_dft_via_rqft", "convergence_report", "convolve", "energy_identity",
    "energy_identity_pairs", "ilqft_direct", "ilqft_fast", "inner_q", "inner_real",
    "irqft_direct", "irqft_fast", "isqft_direct", "isqft_fast", "lp_norm",
    "lqft_direct", "lqft_fast", "multiplication_pairing", "random_axis_pair",
    "random_signal", "random_spectrum", "reflect_conj", "rqft_direct", "rqft_fast",
    "run_verification", "smooth", "spatial_kernel", "sqft_direct", "sqft_fast",
    "transform_W", "transform_beta", "translate",
)


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(qgft).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == sorted(PUBLIC_NAMES)
