import pytest

from qgft import qft, verify
from qgft.qft import TransformKind
from qgft.verify import run_verification

# (name, axes label, tolerance) of every check, in report order
CHECKS = [
    ("character-orthogonality", "default", 1e-09),
    ("reflection-isometry", "default", 1e-10),
    ("reflection-slice-pairing", "default", 1e-10),
    ("reflection-isometry", "random-1", 1e-10),
    ("reflection-slice-pairing", "random-1", 1e-10),
    ("reflection-isometry", "random-2", 1e-10),
    ("reflection-slice-pairing", "random-2", 1e-10),
    ("reflection-plane-linearity", "default", 1e-12),
    ("reflection-involution", "default", 1e-12),
    ("translation-isometry", "default", 1e-12),
    ("convolution-left-linearity", "default", 1e-10),
    ("component-norm-identities", "default", 1e-12),
    ("rqft-inversion", "default", 1e-09),
    ("plancherel-rqft", "default", 1e-10),
    ("sqft-reflection-relation", "default", 1e-10),
    ("sqft-inversion", "default", 1e-09),
    ("rqft-inversion", "random-1", 1e-09),
    ("plancherel-rqft", "random-1", 1e-10),
    ("sqft-reflection-relation", "random-1", 1e-10),
    ("sqft-inversion", "random-1", 1e-09),
    ("rqft-inversion", "random-2", 1e-09),
    ("plancherel-rqft", "random-2", 1e-10),
    ("sqft-reflection-relation", "random-2", 1e-10),
    ("sqft-inversion", "random-2", 1e-09),
    ("plancherel-sqft", "default", 1e-10),
    ("plancherel-lqft", "default", 1e-10),
    ("parseval-quaternionic-rqft", "default", 1e-10),
    ("rqft-unitary-onto", "default", 1e-10),
    ("rqft-uniqueness", "default", 1e-09),
    ("rqft-sup-bound", "default", 1e-12),
    ("rqft-left-linearity", "default", 1e-10),
    ("sqft-plane-linearity", "default", 1e-10),
    ("sqft-equals-rqft-plane-valued", "default", 1e-12),
    ("sqft-equals-rqft-even-first-variable", "default", 1e-12),
    ("isqft-reflection-identity", "default", 1e-10),
    ("adjoint-pairing", "default", 1e-10),
    ("component-parseval-sqft", "default", 1e-10),
    ("multiplication-formula", "default", 1e-09),
    ("fast-direct-rqft", "default", 1e-09),
    ("fast-direct-sqft", "default", 1e-09),
    ("fast-direct-lqft", "default", 1e-09),
    ("fast-direct-irqft", "default", 1e-09),
    ("fast-direct-isqft", "default", 1e-09),
    ("fast-direct-ilqft", "default", 1e-09),
    ("fast-direct-rqft", "random", 1e-09),
    ("classical-embedding", "default", 1e-10),
    ("kernel-total-mass", "default", 1e-10),
    ("kernel-envelope-monotone", "default", 0.0),
    ("smoothing-exact-at-full-band", "default", 1e-10),
    ("smoothing-monotone-decay", "default", 1e-12),
    ("energy-identity", "default", 1e-09),
]


def _failed(z3x4):
    report = run_verification(z3x4, trials=1)
    return {(c.name, c.axes) for c in report.checks if not c.passed}


def test_suite_keeps_its_checks(z3x4):
    report = run_verification(z3x4, trials=1)
    assert [(c.name, c.axes, c.tolerance) for c in report.checks] == CHECKS
    assert report.all_passed


def _scaled(fn):
    return lambda x, *axes: fn(x, *axes) * (1 + 1e-6)


def test_scaled_rqft_direct_fails_the_checks_that_use_it(monkeypatch, z3x4):
    monkeypatch.setattr(verify, "rqft_direct", _scaled(verify.rqft_direct))
    both_sides = {"rqft-inversion", "plancherel-rqft", "sqft-reflection-relation"}
    assert _failed(z3x4) == {
        (name, label) for name in both_sides for label in ("default", "random-1", "random-2")
    } | {
        ("parseval-quaternionic-rqft", "default"),
        ("rqft-unitary-onto", "default"),
        ("rqft-uniqueness", "default"),
        ("sqft-equals-rqft-plane-valued", "default"),
        ("sqft-equals-rqft-even-first-variable", "default"),
        ("fast-direct-rqft", "random"),
    }


@pytest.mark.parametrize("kind", list(TransformKind))
def test_scaled_fast_evaluator_fails_its_agreement_check(monkeypatch, z3x4, kind):
    monkeypatch.setitem(qft.FORWARD_FAST, kind, _scaled(qft.FORWARD_FAST[kind]))
    assert _failed(z3x4) == {(f"fast-direct-{kind.value}", "default")}
