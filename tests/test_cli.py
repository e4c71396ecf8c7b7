import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgft import (
    AxisPair,
    FiniteAbelianGroup,
    QSignal,
    QSpectrum,
    Quaternion,
    TransformKind,
    lp_norm,
    random_axis_pair,
    random_signal,
    random_spectrum,
)
from qgft import cli, qft, signal, verify
from qgft.cli import main, parse_group_spec, CliError
from qgft.fileio import encode_qsig, read_ppm, read_qsig, write_ppm, write_qsig
from qgft.kernels import BUILTIN_FAMILIES


def run(*argv):
    return main([str(a) for a in argv])


def test_parse_group_spec():
    assert parse_group_spec("8").moduli == (8,)
    assert parse_group_spec("3x4").moduli == (3, 4)
    assert parse_group_spec("2X2x3").moduli == (2, 2, 3)
    with pytest.raises(CliError):
        parse_group_spec("8x")
    with pytest.raises(CliError):
        parse_group_spec("0")


def test_transform_inverse_round_trip(rng, tmp_path, z8):
    f = random_signal(z8, rng)
    src = tmp_path / "f.qsig"
    write_qsig(str(src), f)
    for kind in ("rqft", "sqft", "lqft"):
        for mode in ("fast", "direct"):
            spec = tmp_path / "F.qsig"
            back = tmp_path / "g.qsig"
            assert run("transform", src, spec, "--kind", kind, "--mode", mode) == 0
            assert run("inverse", spec, back, "--kind", kind, "--mode", mode) == 0
            g = read_qsig(str(back))
            assert lp_norm(g - f, 2) <= 1e-9 * lp_norm(f, 2)


def test_transform_modes_agree(rng, tmp_path, z3x4):
    f = random_signal(z3x4, rng)
    src = tmp_path / "f.qsig"
    write_qsig(str(src), f)
    fast = tmp_path / "fast.qsig"
    direct = tmp_path / "direct.qsig"
    for kind in ("rqft", "sqft", "lqft"):
        assert run("transform", src, fast, "--kind", kind) == 0
        assert run("transform", src, direct, "--kind", kind, "--mode", "direct") == 0
        a, b = read_qsig(str(fast)), read_qsig(str(direct))
        assert lp_norm(a - b, 2) <= 1e-9 * lp_norm(f, 2)


def test_transform_delta_gives_ones(tmp_path, z4):
    src = tmp_path / "delta.qsig"
    write_qsig(str(src), QSignal.delta(z4))
    out = tmp_path / "ones.qsig"
    assert run("transform", src, out) == 0
    F = read_qsig(str(out))
    assert isinstance(F, QSpectrum)
    assert np.allclose(F.values[..., 0], 1.0, atol=1e-12)
    assert np.allclose(F.values[..., 1:], 0.0, atol=1e-12)


def test_transform_with_custom_axes(rng, tmp_path, z4):
    f = random_signal(z4, rng)
    src = tmp_path / "f.qsig"
    write_qsig(str(src), f)
    out = tmp_path / "F.qsig"
    axes = "0 0 1 0 0 0 0 1".split()  # (j, k)
    back = tmp_path / "g.qsig"
    assert run("transform", src, out, "--axes", *axes) == 0
    assert run("inverse", out, back, "--axes", *axes) == 0
    g = read_qsig(str(back))
    assert lp_norm(g - f, 2) <= 1e-9 * lp_norm(f, 2)
    # invalid axes: parallel pair
    bad = "0 1 0 0 0 1 0 0".split()
    assert run("transform", src, out, "--axes", *bad) == 2


@pytest.mark.parametrize("command, sample, direction", [
    ("transform", random_signal, "FORWARD"),
    ("inverse", random_spectrum, "INVERSE"),
], ids=["transform", "inverse"])
def test_dispatch_through_the_registry(command, sample, direction, rng, tmp_path, z3x4):
    # every kind x mode reaches its own table entry, with the axes as given
    x = sample(z3x4, rng)
    src, out = tmp_path / "x.qsig", tmp_path / "y.qsig"
    write_qsig(str(src), x)
    for kind in TransformKind:
        for mode in ("fast", "direct"):
            table = getattr(qft, f"{direction}_{mode.upper()}")
            pair = random_axis_pair(rng)
            vals = [float(c) for mu in (pair.mu1, pair.mu2) for c in mu.to_array()]
            argv = ("--kind", kind.value, "--mode", mode, "--axes", *map(repr, vals))
            assert run(command, src, out, *argv) == 0
            axes = AxisPair(Quaternion(*vals[:4]), Quaternion(*vals[4:]))
            assert out.read_bytes() == encode_qsig(table[kind](x, axes))


def test_side_and_format_errors(rng, tmp_path, z4, capsys):
    f = random_signal(z4, rng)
    primal = tmp_path / "p.qsig"
    write_qsig(str(primal), f)
    dual = tmp_path / "d.qsig"
    assert run("transform", primal, dual) == 0

    out = tmp_path / "o.qsig"
    assert run("transform", dual, out) == 2     # dual fed to forward
    assert run("inverse", primal, out) == 2     # primal fed to inverse
    assert run("smooth", dual, out) == 2

    garbage = tmp_path / "g.qsig"
    garbage.write_bytes(b"NOPE" + bytes(40))
    assert run("transform", garbage, out) == 2
    capsys.readouterr()
    truncated = tmp_path / "t.qsig"
    truncated.write_bytes(write_and_trim(f))
    assert run("transform", truncated, out) == 2
    assert "length" in capsys.readouterr().err
    assert run("transform", tmp_path / "missing.qsig", out) == 2
    assert not out.exists()


def test_directory_paths_exit_2(rng, tmp_path, z4, capsys):
    src = tmp_path / "s.qsig"
    write_qsig(str(src), random_signal(z4, rng))
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    assert run("transform", src, f"{outdir}/") == 2        # output is a directory
    assert run("transform", outdir, tmp_path / "o.qsig") == 2  # input is a directory
    err = capsys.readouterr().err
    assert err.count("qgft: error:") == 2 and "Traceback" not in err
    assert not list(tmp_path.rglob(".tmp-*"))
    assert not (tmp_path / "o.qsig").exists()


def write_and_trim(sig):
    return encode_qsig(sig)[:-16]


def test_smooth_reports_delta_and_sweeps(rng, tmp_path, z8, capsys):
    f = random_signal(z8, rng)
    src = tmp_path / "f.qsig"
    write_qsig(str(src), f)

    out = tmp_path / "s.qsig"
    assert run("smooth", src, out, "--family", "dirichlet", "--level", 4) == 0
    smoothed = read_qsig(str(out))
    assert lp_norm(smoothed - f, 2) <= 1e-10 * lp_norm(f, 2)

    const = tmp_path / "c.qsig"
    write_qsig(str(const), QSignal.constant(z8, Quaternion(1, 2, 3, 4)))
    assert run("smooth", const, out, "--family", "poisson_geometric", "--level", 1) == 0
    assert np.allclose(read_qsig(str(out)).values, QSignal.constant(z8, Quaternion(1, 2, 3, 4)).values, atol=1e-12)

    capsys.readouterr()
    deltas = []
    for level in range(4):
        assert run("smooth", src, out, "--family", "fejer", "--level", level) == 0
        err_line = capsys.readouterr().err.strip()
        assert err_line.startswith("delta_l2 = ")
        deltas.append(float(err_line.split("=")[1]))
    assert deltas == sorted(deltas, reverse=True)  # monotone shrinking residual

    with pytest.raises(SystemExit) as exc:
        run("smooth", src, out, "--family", "unknown")
    assert exc.value.code == 2


def test_verify_deterministic_and_exit_codes(tmp_path, capsys, monkeypatch):
    args = ("verify", "--group", "4", "--trials", "4", "--seed", "9")
    assert run(*args) == 0
    first = capsys.readouterr().out
    assert run(*args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "result: PASS" in first

    json_path = tmp_path / "report.json"
    assert run(*args, "--json", json_path) == 0
    capsys.readouterr()
    import json

    report = json.loads(json_path.read_text())
    assert report["passed"] is True
    assert {c["name"] for c in report["checks"]} >= {
        "rqft-inversion",
        "plancherel-rqft",
        "multiplication-formula",
        "energy-identity",
    }

    with pytest.raises(SystemExit) as exc:  # verify has no fault-injection option
        run("verify", "--group", "4", "--self-test-corrupt")
    assert exc.value.code == 2
    capsys.readouterr()

    # a faulty oracle is substituted instead, and the suite must catch it
    rqft_direct = verify.rqft_direct
    monkeypatch.setattr(verify, "rqft_direct",
                        lambda f, *axes: rqft_direct(f, *axes) * (1 + 1e-6))
    assert run("verify", "--group", "4", "--trials", "3") == 1
    out = capsys.readouterr().out
    assert "[FAIL] rqft-inversion" in out


def test_verify_zero_trials(capsys):
    assert run("verify", "--group", "6", "--trials", "0") == 0
    out = capsys.readouterr().out
    assert "SKIP" in out and "FAIL" not in out


def test_verify_canonical_invocation(capsys):
    assert run("verify", "--group", "8", "--trials", "25", "--seed", "42") == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out and "FAIL" not in out


def test_verify_tol_override(capsys):
    # an impossible tolerance must fail; a huge one must pass
    assert run("verify", "--group", "4", "--trials", "2", "--tol", "1e-30") == 1
    assert run("verify", "--group", "4", "--trials", "2", "--tol", "10") == 0
    capsys.readouterr()


def test_verify_rejects_bad_tol(capsys):
    for tol in ("-1", "nan"):
        assert run("verify", "--group", "4", "--trials", "1", "--tol", tol) == 2
        captured = capsys.readouterr()
        assert "qgft: error: --tol" in captured.err and "FAIL" not in captured.out


def test_smooth_poisson_geometric_huge_level(rng, tmp_path, z4):
    f = random_signal(z4, rng)
    src, out = tmp_path / "f.qsig", tmp_path / "o.qsig"
    write_qsig(str(src), f)
    assert run("smooth", src, out, "--family", "poisson_geometric", "--level", 2000) == 0
    assert lp_norm(read_qsig(str(out)) - f, 2) <= 1e-12 * lp_norm(f, 2)


def test_smooth_reports_finite_delta_for_huge_values(rng, tmp_path, z8, capsys):
    # components near 1e200 overflow when squared, not when smoothed
    src, out = tmp_path / "big.qsig", tmp_path / "o.qsig"
    write_qsig(str(src), QSignal(z8, random_signal(z8, rng).values * 1e200))
    assert run("smooth", src, out, "--family", "fejer", "--level", 2) == 0
    delta = float(capsys.readouterr().err.strip().removeprefix("delta_l2 = "))
    assert np.isfinite(delta) and delta > 1e190


def test_verify_bad_group():
    assert run("verify", "--group", "8y3", "--trials", "1") == 2


def test_image_round_trip(rng, tmp_path):
    pix = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    src = tmp_path / "in.ppm"
    write_ppm(str(src), pix)
    q = tmp_path / "img.qsig"
    assert run("img2q", src, q) == 0
    sig = read_qsig(str(q))
    assert isinstance(sig, QSignal)
    assert sig.group.moduli == (16,)
    assert np.allclose(sig.values[..., 0], 0.0)
    assert np.allclose(sig.values[..., 1:], pix / 255.0)

    out = tmp_path / "out.ppm"
    assert run("q2img", q, out) == 0
    assert src.read_bytes() == out.read_bytes()


def test_image_bridge_matches_reference_arithmetic(rng, tmp_path, z8):
    pix = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    src, q = tmp_path / "in.ppm", tmp_path / "img.qsig"
    write_ppm(str(src), pix)
    assert run("img2q", src, q) == 0
    ref = np.zeros((8, 8, 4))
    ref[..., 1:] = pix.astype(np.float64) / 255.0
    assert read_qsig(str(q)).values.tobytes() == ref.tobytes()

    vals = rng.uniform(-0.5, 1.5, size=(8, 8, 4))
    vals[0, :, 1:] = (np.arange(24).reshape(8, 3) + 0.5) / 255.0  # halfway points
    write_qsig(str(q), QSignal(z8, vals))
    out = tmp_path / "out.ppm"
    assert run("q2img", q, out) == 0
    ref = np.floor(np.clip(vals[..., 1:], 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    assert np.array_equal(read_ppm(str(out))[2], ref)


def test_img2q_all_black(tmp_path):
    src = tmp_path / "black.ppm"
    write_ppm(str(src), np.zeros((2, 2, 3), dtype=np.uint8))
    q = tmp_path / "black.qsig"
    assert run("img2q", src, q) == 0
    assert np.array_equal(read_qsig(str(q)).values, np.zeros((2, 2, 4)))


def test_img2q_rejects_non_square(rng, tmp_path, capsys):
    pix = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
    src = tmp_path / "rect.ppm"
    write_ppm(str(src), pix)
    assert run("img2q", src, tmp_path / "x.qsig") == 2
    assert "square" in capsys.readouterr().err


def test_q2img_clamps(tmp_path, z4):
    vals = np.zeros((4, 4, 4))
    vals[..., 1] = 2.0   # clamps to 255
    vals[..., 2] = -1.0  # clamps to 0
    vals[0, 0, 3] = 0.5  # rounds half-up to 128
    src = tmp_path / "v.qsig"
    write_qsig(str(src), QSignal(z4, vals))
    out = tmp_path / "v.ppm"
    assert run("q2img", src, out) == 0
    _, _, pix = read_ppm(str(out))
    assert pix[..., 0].max() == pix[..., 0].min() == 255
    assert pix[..., 1].max() == 0
    assert pix[0, 0, 2] == 128


def test_spectrum_rendering(rng, tmp_path, z8):
    zero = tmp_path / "z.qsig"
    write_qsig(str(zero), QSpectrum.zeros(z8))
    out = tmp_path / "z.ppm"
    assert run("spectrum", out, out) == 2  # missing input is a usage error
    assert run("spectrum", zero, out) == 0
    _, _, pix = read_ppm(str(out))
    assert pix.max() == 0  # all black

    delta = tmp_path / "d.qsig"
    write_qsig(str(delta), QSpectrum.delta(z8))
    assert run("spectrum", delta, out) == 0
    _, _, pix = read_ppm(str(out))
    assert pix[4, 4].tolist() == [255, 255, 255]  # zero frequency centered
    assert pix.sum() == 3 * 255

    const = tmp_path / "c.qsig"
    write_qsig(str(const), QSpectrum.constant(z8, Quaternion(2.0)))
    assert run("spectrum", const, out) == 0
    _, _, pix = read_ppm(str(out))
    assert pix.min() == 255  # uniform white

    primal = tmp_path / "p.qsig"
    write_qsig(str(primal), QSignal.zeros(z8))
    assert run("spectrum", primal, out) == 2

    # finite files whose squared magnitudes overflow float64
    write_qsig(str(const), QSpectrum.constant(z8, Quaternion(2.0)) * 1e200)
    assert run("spectrum", const, out) == 0
    _, _, pix = read_ppm(str(out))
    assert pix.min() == 255  # uniform white

    # and whose squared magnitudes underflow to 0
    for factor in (1e300, 1e-170, 1e-300):
        write_qsig(str(delta), QSpectrum.delta(z8) * factor)
        assert run("spectrum", delta, out) == 0
        _, _, pix = read_ppm(str(out))
        assert pix[4, 4].tolist() == [255, 255, 255]  # zero frequency centered
        assert pix.sum() == 3 * 255

    # a general spectrum renders the same at every scale, also where its
    # squared magnitudes are subnormal and keep only a few bits
    values = rng.standard_normal((8, 8, 4))
    rendered = {}
    for factor in (1e-140, 1e-155, 1e-162):
        write_qsig(str(const), QSpectrum(z8, values * factor))
        assert run("spectrum", const, out) == 0
        rendered[factor] = read_ppm(str(out))[2].tobytes()
    assert rendered[1e-155] == rendered[1e-140]
    assert rendered[1e-162] == rendered[1e-140]


def test_bench(capsys):
    assert run("bench", "--sizes", 16, 32, "--repeats", 3) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert len(out.strip().splitlines()) == 3
    for repeats in (0, -1):
        assert run("bench", "--sizes", 4, "--repeats", repeats) == 2
        err = capsys.readouterr().err
        assert "--repeats must be >= 1" in err and "Traceback" not in err


def test_negative_seed_is_a_usage_error(capsys):
    for argv in (("verify", "--group", 4, "--trials", 1), ("bench", "--sizes", 8)):
        assert run(*argv, "--seed", -1) == 2
        captured = capsys.readouterr()
        assert "qgft: error: --seed must be >= 0" in captured.err
        assert captured.out == ""


def test_bench_gate_starts_at_its_size_floor(capsys):
    # a one-bin direct sum can beat the fast path's fixed cost, so the
    # smallest sizes are timed but not compared
    assert run("bench", "--sizes", 1, 2, 3, "--repeats", 1) == 0
    out, err = capsys.readouterr()
    assert "note:" not in err
    assert all(line.split()[-2:] == ["-", "-"] for line in out.splitlines()[1:])


def test_dump_hostile_header_exits_2(tmp_path, capsys):
    src = tmp_path / "huge.qsig"
    src.write_bytes(b"QSG1" + bytes([1, 255, 0, 0]) + b"\xff\xff\xff\xff" * 255)
    assert run("dump", src) == 2
    err = capsys.readouterr().err
    assert "qgft: error:" in err and "Traceback" not in err


def test_groups_of_rank_above_32(rng, tmp_path, capsys):
    # the format allows 255 moduli; numpy takes 32 meshgrid inputs and 64 axes
    z17 = FiniteAbelianGroup((17,))
    f = random_signal(z17, rng)
    for name, moduli in (("a", (17,)), ("b", (17,) + (1,) * 32)):
        write_qsig(str(tmp_path / f"{name}.qsig"), QSignal(FiniteAbelianGroup(moduli), f.values))
        for argv in (("transform",), ("transform", "--mode", "direct"), ("smooth",)):
            out = tmp_path / f"{name}-{'-'.join(argv)}.qsig"
            assert run(argv[0], tmp_path / f"{name}.qsig", out, *argv[1:]) == 0
        assert run("dump", tmp_path / f"{name}.qsig") == 0
    for argv in (("transform",), ("transform", "--mode", "direct"), ("smooth",)):
        a, b = (read_qsig(str(tmp_path / f"{name}-{'-'.join(argv)}.qsig")) for name in "ab")
        assert b.group.rank == 33 and a.values.tobytes() == b.values.tobytes()
    for spec in ("x".join(["17"] + ["1"] * 32), "x".join(["2"] + ["1"] * 70)):
        assert run("verify", "--group", spec, "--trials", 1) == 0
    assert capsys.readouterr().out.count("result: PASS (52 checks") == 2


# From signal.PARALLEL_DFT_MIN on, one of the fast core's two plane DFTs
# runs on a worker thread; this group is at or above it.
THREADED_MODULI = (16, 18)


@pytest.mark.parametrize("argv, side, moduli", [
    (("transform",), "primal", (8,)),
    # above qft.TINY_CORE_MAX, where the inverse DFTs sum before they scale
    (("inverse", "--kind", "sqft"), "dual", (33,)),
    (("smooth", "--level", "2"), "primal", (8,)),
    (("transform",), "primal", THREADED_MODULI),
    (("inverse", "--kind", "sqft"), "dual", THREADED_MODULI),
], ids=["transform", "inverse", "smooth", "transform-threaded", "inverse-threaded"])
def test_overflowing_result_exits_2(tmp_path, capsys, argv, side, moduli):
    # a finite file whose transform or smoothing overflows float64; the
    # worker thread must see the command's errstate, or its FFT warns
    group = FiniteAbelianGroup(moduli)
    assert moduli != THREADED_MODULI or group.order >= signal.PARALLEL_DFT_MIN
    grid = QSpectrum if side == "dual" else QSignal
    src, out = tmp_path / "big.qsig", tmp_path / "out.qsig"
    write_qsig(str(src), grid(group, np.full((group.order, group.order, 4), 1e308)))
    assert run(argv[0], src, out, *argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.count("qgft: error:") == 1 and "overflow" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not out.exists() and not list(tmp_path.rglob(".tmp-*"))


def test_tiny_inverse_weights_before_it_sums(tmp_path):
    # up to TINY_CORE_MAX the dual weight rides in the fast core's matrices,
    # so an inverse whose exact result is representable does not overflow
    group = FiniteAbelianGroup((8,))
    assert group.order <= qft.TINY_CORE_MAX
    src, out = tmp_path / "big.qsig", tmp_path / "out.qsig"
    write_qsig(str(src), QSpectrum(group, np.full((8, 8, 4), 1e308)))
    assert run("inverse", src, out, "--kind", "sqft") == 0
    ones = QSpectrum.constant(group, Quaternion(1.0, 1.0, 1.0, 1.0))
    want = qft.isqft_direct(ones).values * 1e308  # 1e308 at bin (0, 0), 0 elsewhere
    assert np.abs(read_qsig(str(out)).values - want).max() <= 1e-15 * 1e308


def test_dump(rng, tmp_path, capsys, z3x4):
    f = random_signal(z3x4, rng)
    src = tmp_path / "f.qsig"
    write_qsig(str(src), f)
    assert run("dump", src) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "bin,x1,x2,w,x,y,z"
    assert len(out) == 2 + 144
    first = out[2].split(",")
    assert first[:3] == ["0", "0:0", "0:0"]
    assert [float(v) for v in first[3:]] == list(f.values[0, 0])


# One valid call per subcommand; the corpus below derives bad ones from it.
VALID_ARGS = {
    "transform": ["f.qsig", "F.qsig", "--kind", "lqft", "--axes", *"0 1 0 0 0 0 1 0".split()],
    "inverse": ["F.qsig", "g.qsig", "--mode", "direct"],
    "smooth": ["f.qsig", "s.qsig", "--family", "dirichlet", "--level", "3"],
    "verify": ["--group", "3x4", "--trials", "1", "--json", "r.json"],
    "img2q": ["in.ppm", "f.qsig"],
    "q2img": ["f.qsig", "out.ppm"],
    "spectrum": ["F.qsig", "view.ppm"],
    "bench": ["--sizes", "8", "16", "--kind", "sqft", "--repeats", "1"],
    "dump": ["f.qsig"],
}


def argv_corpus(name):
    valid = [name, *VALID_ARGS[name]]
    choice = "--family" if name == "smooth" else "--kind"
    return [
        valid,
        [name, "--help"],
        [*valid, "--bogus"],          # unknown option
        [*valid, choice, "bad"],      # bad choice
        [name],                       # missing positional or required option
        [*valid, "extra"],            # extra positional: the top parser's usage
    ]


def parse_outcome(parser, argv, capsys):
    """(namespace, exit code, stdout, stderr) of one parse."""
    try:
        ns, code = parser.parse_args(argv), None
    except SystemExit as exc:
        ns, code = None, exc.code
    return (ns, code, *capsys.readouterr())


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_one_command_parser_matches_full_parser(name, capsys):
    for argv in argv_corpus(name):
        one = parse_outcome(cli.build_parser(name), argv, capsys)
        assert one == parse_outcome(cli.build_parser(), argv, capsys), argv


def test_one_command_parser_knows_no_other_command(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser("smooth").parse_args(["dump", "f.qsig"])
    choices = capsys.readouterr().err.split("invalid choice: 'dump'")[1]
    assert "smooth" in choices and "transform" not in choices


def test_every_call_builds_its_own_parser(monkeypatch):
    built, parsers = [], []
    build = cli.build_parser

    def spy(*args):
        built.append(args)
        parsers.append(build(*args))
        return parsers[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    for _ in range(2):
        assert main(["verify", "--group", "1", "--trials", "0"]) == 0
    assert built == [("verify",), ("verify",)]
    assert parsers[0] is parsers[1]


def test_parser_is_built_once_per_command():
    assert cli.build_parser("smooth") is cli.build_parser("smooth")
    assert cli.build_parser("smooth") is not cli.build_parser("dump")
    full = cli.build_parser()
    for name in ["nope", "", "--help", "-x", None]:
        assert cli.build_parser(name) is full


def test_parses_share_no_mutable_default():
    parse = cli.build_parser("bench").parse_args
    with contextlib.suppress(AttributeError):  # a tuple default cannot be changed
        parse(["bench"]).sizes.append(512)
    assert list(parse(["bench"]).sizes) == [16, 32, 64, 128, 256]


def test_shared_parser_formats_text_when_printed(monkeypatch, capsys):
    corpus = [["--help"], ["nope"], ["transform", "--help"], ["transform"],
              ["bench", "--help"], ["bench", "--sizes"]]
    outcomes = {}
    for columns in ["40", "200"]:
        monkeypatch.setenv("COLUMNS", columns)
        outcomes[columns] = [parse_outcome(cli.build_parser(argv[0]), argv, capsys)
                             for argv in corpus]
        for argv, shared in zip(corpus, outcomes[columns]):
            fresh = cli._parser.__wrapped__(argv[0] if argv[0] in cli.COMMANDS else None)
            assert shared == parse_outcome(fresh, argv, capsys), (columns, argv)
    assert outcomes["40"] != outcomes["200"]  # the width is read at print time


@pytest.mark.parametrize("argv", [
    ("verify", "--group", "4294967296", "--trials", "1"),
    ("verify", "--group", "65536x65536", "--trials", "1"),
    ("bench", "--sizes", "8", "4294967296"),
], ids=["verify-cyclic", "verify-product", "bench"])
def test_order_beyond_any_array_exits_2(argv, capsys):
    # rejected before anything is allocated or printed
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("qgft: error: order 4294967296 is too large")
    assert err.count("\n") == 1


@pytest.mark.parametrize("target, argv", [
    ("run_verification", ("verify", "--group", "4", "--trials", "1")),
    ("random_signal", ("bench", "--sizes", "4")),
])
def test_out_of_memory_exits_2(target, argv, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(cli, target, exhausted)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err == "qgft: error: out of memory: Unable to allocate 298. GiB for an array\n"


# -- argv drawn from a small grammar: exit 0, 1 or 2, never a traceback -------

GRAMMAR_INPUTS = ["f.qsig", "F.qsig", "big.qsig", "bad.qsig", "img.ppm", "rect.ppm",
                  "bad.ppm", "missing.qsig", "dir"]
GRAMMAR_OUTPUTS = ["out.qsig", "out.ppm", "report.json", "nodir/out.qsig", "dir"]
# option -> (good values, bad values); each value is a list of tokens
GRAMMAR_VALUES = {
    "--kind": ([["rqft"], ["sqft"], ["lqft"]], [["qqft"]]),
    "--mode": ([["fast"], ["direct"]], [["slow"]]),
    "--axes": ([["0", "1", "0", "0", "0", "0", "1", "0"]],
               [["0", "1", "0", "0"] * 2, ["nan"] * 8, ["1e400"] * 8, ["1", "2"]]),
    "--family": ([[f] for f in BUILTIN_FAMILIES], [["gauss"]]),
    "--level": ([["0"], ["3"], ["2000"]], [["-1"], ["x"]]),
    "--group": ([["1"], ["4"], ["2x2"]], [["0"], ["8x"], ["-3"], ["4294967296"]]),
    "--trials": ([["0"], ["1"]], [["-1"], ["x"]]),
    "--seed": ([["0"], ["7"]], [["-1"], ["x"]]),
    "--tol": ([["1e-30"], ["10"]], [["-1"], ["nan"], ["x"]]),
    "--json": ([["report.json"]], [["nodir/r.json"], ["dir"]]),
    "--sizes": ([["1"], ["2", "8"]], [["0"], ["4294967296"], ["x"], []]),
    "--repeats": ([["1"]], [["0"], ["x"]]),
}
GRAMMAR_OPTIONS = {
    "transform": ["--kind", "--mode", "--axes"],
    "inverse": ["--kind", "--mode", "--axes"],
    "smooth": ["--family", "--level"],
    "verify": ["--seed", "--tol", "--json"],
    "bench": ["--kind", "--repeats", "--seed"],
}
# always drawn, so verify has a group and no draw runs long
GRAMMAR_ALWAYS = {"verify": ["--group", "--trials"], "bench": ["--sizes"]}
GRAMMAR_ARITY = {"verify": 0, "bench": 0, "dump": 1}  # positionals; others take 2
GRAMMAR_GOOD_INPUT = {"inverse": "F.qsig", "spectrum": "F.qsig", "img2q": "img.ppm"}
STRAY_TOKENS = ["extra", "--bogus", "-x", "--", "-h"]


@st.composite
def grammar_argv(draw):
    def pick(good, bad):  # good three times in four, so most calls reach a handler
        return draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 0 else good))

    command = pick(list(cli.COMMANDS), ["nope", "--help", ""])
    argv = [command]
    arity = pick([GRAMMAR_ARITY.get(command, 2)], [0, 1, 2, 3])
    for k in range(arity):
        argv.append(pick(GRAMMAR_OUTPUTS[:3], GRAMMAR_OUTPUTS[3:]) if k else
                     pick([GRAMMAR_GOOD_INPUT.get(command, "f.qsig")], GRAMMAR_INPUTS))
    own = GRAMMAR_OPTIONS.get(command)
    chosen = draw(st.lists(st.sampled_from(own), max_size=2)) if own else []
    for opt in chosen + GRAMMAR_ALWAYS.get(command, []):
        argv += [opt, *pick(*GRAMMAR_VALUES[opt])]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAY_TOKENS)))
    return argv


def test_argv_grammar_never_raises(tmp_path, monkeypatch, rng):
    z2 = parse_group_spec("2")
    write_qsig(str(tmp_path / "f.qsig"), random_signal(z2, rng))
    write_qsig(str(tmp_path / "F.qsig"), QSpectrum(z2, rng.standard_normal((2, 2, 4))))
    write_qsig(str(tmp_path / "big.qsig"), QSignal(z2, np.full((2, 2, 4), 1e308)))
    (tmp_path / "bad.qsig").write_bytes(b"NOPE" + bytes(40))
    write_ppm(str(tmp_path / "img.ppm"), rng.integers(0, 256, (2, 2, 3), dtype=np.uint8))
    write_ppm(str(tmp_path / "rect.ppm"), rng.integers(0, 256, (2, 3, 3), dtype=np.uint8))
    (tmp_path / "bad.ppm").write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    (tmp_path / "dir").mkdir()
    monkeypatch.chdir(tmp_path)  # relative outputs, stray tokens included, land here

    @settings(max_examples=100, deadline=None)
    @given(grammar_argv())
    def check(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a usage error, or help
            assert exc.code == 2 or (exc.code == 0 and {"-h", "--help"} & set(argv)), argv
        else:
            assert code in (0, 1, 2), argv

    check()
    assert cli._parser.cache_info().currsize <= len(cli.COMMANDS) + 1
