import dataclasses
import json

import numpy as np
import pytest

from qgft import (AxisPair, FiniteAbelianGroup, Quaternion, kernels, qft, random_signal, signal,
                  verify)
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
    ("convolution-defining-sum", "default", 1e-10),
]


def _failed(z3x4):
    report = run_verification(z3x4, trials=1)
    return {(c.name, c.axes) for c in report.checks if not c.passed}


def test_suite_keeps_its_checks(z3x4):
    report = run_verification(z3x4, trials=1)
    assert [(c.name, c.axes, c.tolerance) for c in report.checks] == CHECKS
    assert report.all_passed


def test_trivial_group_passes_every_check():
    report = run_verification(FiniteAbelianGroup((1,)), trials=1)
    assert [(c.name, c.axes, c.tolerance) for c in report.checks] == CHECKS
    assert report.all_passed and not any(c.skipped for c in report.checks)


def _scaled(fn):
    return lambda *args: fn(*args) * (1 + 1e-6)


def _at(labels, *names):
    return {(name, label) for name in names for label in labels}


ALL_AXES = ("default", "random-1", "random-2")
# (namespace, name) -> the exact (check, axes) set that fails once the
# evaluator found there is scaled by 1 + 1e-6; the linearity checks and the
# one-sided rqft-sup-bound cannot see a scaling, so they pass throughout
SUBSTITUTIONS = [
    pytest.param(verify, "rqft_direct",
                 _at(ALL_AXES, "rqft-inversion", "plancherel-rqft", "sqft-reflection-relation")
                 | _at(["default"], "parseval-quaternionic-rqft", "rqft-unitary-onto",
                       "rqft-uniqueness", "sqft-equals-rqft-plane-valued",
                       "sqft-equals-rqft-even-first-variable")
                 | {("fast-direct-rqft", "random")},
                 id="verify.rqft_direct"),
    pytest.param(verify, "irqft_direct",
                 _at(ALL_AXES, "rqft-inversion")
                 | _at(["default"], "rqft-unitary-onto", "rqft-uniqueness",
                       "isqft-reflection-identity", "adjoint-pairing"),
                 id="verify.irqft_direct"),
    pytest.param(verify, "sqft_direct",
                 _at(ALL_AXES, "sqft-reflection-relation", "sqft-inversion")
                 | _at(["default"], "plancherel-sqft", "sqft-equals-rqft-plane-valued",
                       "sqft-equals-rqft-even-first-variable", "adjoint-pairing",
                       "component-parseval-sqft"),
                 id="verify.sqft_direct"),
    pytest.param(verify, "isqft_direct",
                 _at(ALL_AXES, "sqft-inversion") | _at(["default"], "isqft-reflection-identity"),
                 id="verify.isqft_direct"),
    pytest.param(verify, "lqft_direct", _at(["default"], "plancherel-lqft"),
                 id="verify.lqft_direct"),
    pytest.param(verify, "transform_W",
                 _at(ALL_AXES, "reflection-isometry", "reflection-slice-pairing",
                     "sqft-reflection-relation")
                 | _at(["default"], "reflection-involution", "isqft-reflection-identity",
                       "adjoint-pairing"),
                 id="verify.transform_W"),
    # convolution-left-linearity is linear, so only the defining sum sees it
    pytest.param(verify, "convolve", {("convolution-defining-sum", "default")},
                 id="verify.convolve"),
    *[pytest.param(table, kind, {(f"fast-direct-{prefix}{kind.value}", "default")},
                   id=f"{name}.{kind.value}")
      for prefix, name, table in (("", "FORWARD_FAST", qft.FORWARD_FAST),
                                  ("i", "INVERSE_FAST", qft.INVERSE_FAST))
      for kind in TransformKind],
    pytest.param(kernels, "rqft_fast", {("energy-identity", "default")},
                 id="kernels.rqft_fast"),
    pytest.param(kernels, "convolve", {("energy-identity", "default")},
                 id="kernels.convolve"),
    pytest.param(qft, "rqft_direct", {("multiplication-formula", "default")},
                 id="qft.rqft_direct"),
    pytest.param(qft, "transform_beta", {("multiplication-formula", "default")},
                 id="qft.transform_beta"),
    pytest.param(qft, "rqft_fast",
                 {("classical-embedding", "default"), ("fast-direct-sqft", "default")},
                 id="qft.rqft_fast"),
]


@pytest.mark.parametrize("namespace, name, fails", SUBSTITUTIONS)
def test_scaled_evaluator_fails_exactly_the_checks_that_see_it(monkeypatch, z3x4,
                                                               namespace, name, fails):
    if isinstance(namespace, dict):
        monkeypatch.setitem(namespace, name, _scaled(namespace[name]))
    else:
        monkeypatch.setattr(namespace, name, _scaled(getattr(namespace, name)))
    assert _failed(z3x4) == fails


def test_energy_identity_check_shares_signal_work(monkeypatch, z3x4):
    # one autocorrelation and one fast spectrum per signal, for all pairs
    calls = {"convolve": 0, "rqft_fast": 0}

    def counting(name):
        fn = getattr(kernels, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(kernels, name, counting(name))
    report = run_verification(z3x4, trials=2)
    assert report.all_passed
    assert calls == {"convolve": 2, "rqft_fast": 2}


def test_json_matches_asdict_rendering():
    g = FiniteAbelianGroup((3,))
    report = run_verification(g, trials=1, seed=5, tol=1e-3)
    report.checks += run_verification(g, trials=0).checks[:3]
    assert any(c.note for c in report.checks if not c.skipped)
    expected = {
        "seed": 5,
        "group": report.group,
        "trials": 1,
        "tol_override": 1e-3,
        "passed": report.all_passed,
        "checks": [dataclasses.asdict(c) for c in report.checks],
    }
    assert report.to_json() == json.dumps(expected, indent=2)


# --- the run's stage-matrix memo -------------------------------------------------


def _record_builds(monkeypatch):
    """The memo in scope (or None) at each character table the oracle builds."""
    builds, build = [], qft._characters

    def recording(*args):
        builds.append(qft._STAGE_MEMO.get())
        return build(*args)

    monkeypatch.setattr(qft, "_characters", recording)
    return builds


def test_run_builds_each_stage_matrix_once(monkeypatch, z3x4):
    builds = _record_builds(monkeypatch)
    assert run_verification(z3x4, trials=2).all_passed
    memo = builds[0]
    assert memo and all(m is memo for m in builds)
    assert len(builds) == len(memo)  # one build per key
    assert not any(m.flags.writeable for m in memo.values())
    assert qft._STAGE_MEMO.get() is None


def test_memo_stays_bounded_as_trials_grow(monkeypatch, z3x4):
    # fast-direct-rqft with random axes draws a new axis pair per trial
    builds = _record_builds(monkeypatch)
    run_verification(z3x4, trials=4)
    assert len(builds[0]) == qft._STAGE_MEMO_MAX < len(builds)


def test_memo_ends_with_a_run_that_raises(monkeypatch, z3x4):
    builds = _record_builds(monkeypatch)

    def broken(*args, **kwargs):
        raise RuntimeError("substituted evaluator")

    monkeypatch.setattr(verify, "sqft_direct", broken)
    with pytest.raises(RuntimeError, match="substituted evaluator"):
        run_verification(z3x4, trials=1)
    assert builds and builds[-1] is not None  # the memo was open when it raised
    assert qft._STAGE_MEMO.get() is None


def test_memo_keeps_signed_zero_axes_apart(monkeypatch, z3x4):
    # 0.0 == -0.0, but the two axes' tables differ in signed zeros
    builds = _record_builds(monkeypatch)
    f = random_signal(z3x4, np.random.default_rng(1))
    with qft._stage_memo():
        qft.rqft_direct(f, AxisPair(Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0)))
        qft.rqft_direct(f, AxisPair(Quaternion(0, 1, -0.0, 0), Quaternion(0, -0.0, 1, 0)))
    assert len(builds) == 4


def test_oracle_outside_a_run_stores_nothing(monkeypatch, z3x4):
    builds = _record_builds(monkeypatch)
    f = random_signal(z3x4, np.random.default_rng(1))
    qft.rqft_direct(f)
    qft.rqft_direct(f)
    assert builds == [None] * 4  # both tables of both calls, each built afresh


def test_run_above_tiny_core_max_stores_nothing(monkeypatch):
    builds = _record_builds(monkeypatch)
    group = FiniteAbelianGroup((33,))
    assert group.order > signal.TINY_CORE_MAX
    assert run_verification(group, trials=1).all_passed
    assert builds and all(m == {} for m in builds)
