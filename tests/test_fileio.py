import errno
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qgft import (
    FiniteAbelianGroup,
    QSignal,
    QSpectrum,
    random_signal,
    random_spectrum,
    rqft_fast,
)
from qgft.cli import main
from qgft.fileio import (
    _PPM_MAX_HEAD,
    PpmFormatError,
    QsigFormatError,
    decode_ppm,
    decode_qsig,
    encode_ppm,
    encode_qsig,
    read_ppm,
    read_qsig,
    write_qsig,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_qsig_round_trip_bit_exact(rng, tmp_path, z8, z3x4):
    for make, g in [
        (random_signal, z8),
        (random_spectrum, z8),
        (random_signal, z3x4),
        (random_signal, FiniteAbelianGroup((1,))),
    ]:
        sig = make(g, rng)
        path = tmp_path / "sig.qsig"
        write_qsig(str(path), sig)
        back = read_qsig(str(path))
        assert type(back) is type(sig)
        assert back.group == sig.group
        assert back.values.tobytes() == sig.values.tobytes()


def test_qsig_side_byte(rng, tmp_path, z4):
    p = tmp_path / "a.qsig"
    write_qsig(str(p), random_signal(z4, rng))
    assert isinstance(read_qsig(str(p)), QSignal)
    write_qsig(str(p), random_spectrum(z4, rng))
    assert isinstance(read_qsig(str(p)), QSpectrum)


def test_qsig_header_layout(rng, z3x4):
    data = encode_qsig(random_signal(z3x4, rng))
    assert data[:4] == b"QSG1"
    assert data[4] == 1          # version
    assert data[5] == 2          # rank
    assert data[6] == 0          # primal
    assert data[7] == 0          # reserved
    assert data[8:16] == (3).to_bytes(4, "little") + (4).to_bytes(4, "little")
    assert len(data) == 16 + 12 * 12 * 4 * 8


def _malformed(good):
    """(bytes, message pattern) for each way a valid file can be broken."""
    return [
        (b"XXXX" + good[4:], "magic"),
        (good[:4] + b"\x02" + good[5:], "version"),
        (good[:6] + b"\x05" + good[7:], "side"),
        (good[:7] + b"\x01" + good[8:], "reserved"),
        (good[:-8], "length"),
        (good + b"\x00" * 8, "length"),
        (good[:6], "truncated"),
    ]


# rank 255, every modulus 2**32 - 1 and no payload: the order has
# thousands of digits and must be refused before it is formatted
_HOSTILE_HEADER = b"QSG1" + bytes([1, 255, 0, 0]) + b"\xff\xff\xff\xff" * 255


def test_qsig_reader_rejects_malformed(rng, z4):
    for data, pattern in _malformed(encode_qsig(random_signal(z4, rng))):
        with pytest.raises(QsigFormatError, match=pattern):
            decode_qsig(data)


def test_qsig_reader_bounds_hostile_header():
    assert len(_HOSTILE_HEADER) == 1028
    with pytest.raises(QsigFormatError, match="payload too short"):
        decode_qsig(_HOSTILE_HEADER)


def _file_error(path, data, read=read_qsig, error=QsigFormatError):
    path.write_bytes(data)
    with pytest.raises(error) as info:
        read(str(path))
    return str(info.value)


def test_qsig_file_reader_rejects_malformed(rng, z4, tmp_path):
    cases = _malformed(encode_qsig(random_signal(z4, rng)))
    cases.append((_HOSTILE_HEADER, "payload too short"))
    for data, pattern in cases:
        with pytest.raises(QsigFormatError, match=pattern) as decoded:
            decode_qsig(data)
        assert _file_error(tmp_path / "bad.qsig", data) == str(decoded.value)


def test_qsig_file_reader_checks_header_before_allocating(tmp_path):
    # a Z_4096 header (a 512 MB payload) over 8 KB of file
    data = b"QSG1" + bytes([1, 1, 0, 0]) + (4096).to_bytes(4, "little")
    tracemalloc.start()
    try:
        message = _file_error(tmp_path / "big.qsig", data + bytes(8192))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "payload length mismatch" in message
    assert peak < 1 << 20


@pytest.mark.parametrize("moduli", [(1,), (5,), (1, 2, 3), (3, 4)])
def test_qsig_reader_returns_owned_aligned_arrays(rng, tmp_path, moduli):
    # header sizes 12, 12, 20 and 16 bytes: rank 3 puts the payload at an
    # offset that is not a multiple of 8
    sig = random_signal(FiniteAbelianGroup(moduli), rng)
    path = tmp_path / "a.qsig"
    write_qsig(str(path), sig)
    back = read_qsig(str(path))
    values = back.values
    assert values.dtype == np.float64
    flags = values.flags
    assert flags.c_contiguous and flags.aligned and not flags.writeable
    assert flags.owndata  # so not a view of the bytes it was read from
    assert values.tobytes() == sig.values.tobytes()


def _run_qgft(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "qgft", *map(str, args)], env=env,
                          capture_output=True, timeout=120, **kwargs)


@pytest.mark.parametrize("how", ["redirect", "pipe"])
def test_qsig_reader_takes_stdin(rng, tmp_path, z3x4, how):
    # "< file" gives a regular file, a pipe gives a FIFO read to its end
    src, out = tmp_path / "in.qsig", tmp_path / "out.qsig"
    sig = random_signal(z3x4, rng)
    write_qsig(str(src), sig)
    if how == "redirect":
        with open(src, "rb") as fh:
            res = _run_qgft("transform", "/dev/stdin", out, stdin=fh)
    else:
        res = _run_qgft("transform", "/dev/stdin", out, input=src.read_bytes())
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == encode_qsig(rqft_fast(sig))


def test_written_payload_cannot_turn_non_finite(z4, tmp_path):
    # the writer makes no finiteness pass: a grid cannot change once checked
    sig = QSignal.zeros(z4)
    with pytest.raises(ValueError, match="read-only"):
        sig.values[0, 0, 0] = np.inf
    with pytest.raises(AttributeError, match="immutable"):
        sig.values = np.full((4, 4, 4), np.inf)
    out = tmp_path / "z.qsig"
    write_qsig(str(out), sig)
    assert out.read_bytes() == encode_qsig(QSignal.zeros(z4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_qsig_reader_rejects_non_finite(z4, tmp_path, bad):
    payload = np.zeros((4, 4, 4))
    payload[1, 2, 3] = bad
    data = encode_qsig(QSignal.zeros(z4))[:12] + payload.astype("<f8").tobytes()
    with pytest.raises(QsigFormatError, match="finite"):
        decode_qsig(data)
    path = tmp_path / "bad.qsig"
    path.write_bytes(data)
    with pytest.raises(QsigFormatError, match="finite"):
        read_qsig(str(path))
    r, w = os.pipe()
    try:
        os.write(w, data)  # far below a pipe's buffer
        os.close(w)
        with pytest.raises(QsigFormatError, match="finite"):
            read_qsig(f"/dev/fd/{r}")
    finally:
        os.close(r)
    out = tmp_path / "out.qsig"
    res = _run_qgft("transform", path, out)
    assert res.returncode == 2
    assert res.stderr.decode().splitlines()[-1] == (
        "qgft: error: signal values must be finite (no NaN/Inf)")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.qsig"]


@pytest.mark.parametrize("read, head, error", [
    (read_qsig, encode_qsig(QSignal.zeros(FiniteAbelianGroup((2,)))), "length mismatch"),
    (read_qsig, bytes(8), "bad magic"),  # what /dev/zero gives
    (read_ppm, b"P5\n2 2\n255\n", "expected P6 magic"),
    (read_ppm, b"P6\n2 2\n255\n", "raster length 13 does not match 2x2"),  # 12 bytes due
], ids=["overlong", "zeros", "ppm-bad-magic", "ppm-overlong"])
def test_stream_is_read_no_further_than_its_header_allows(tmp_path, read, head, error):
    # a valid Z_2 file (12 header bytes, 128 payload bytes), zeros or a PPM
    # header, then up to 64 MiB more: the reader must stop long before the end
    fifo, sent = _feed_fifo(tmp_path, head)
    with pytest.raises((QsigFormatError, PpmFormatError), match=error):
        read(str(fifo))
    assert sent() < 2 << 20


def test_img2q_refuses_a_non_square_stream_from_its_header(tmp_path, capsys):
    # a 20000x10000 header with 600 MB of raster due: refused before any is read
    fifo, sent = _feed_fifo(tmp_path, b"P6\n20000 10000\n255\n")
    assert main(["img2q", str(fifo), str(tmp_path / "out.qsig")]) == 2
    assert "only square images are accepted" in capsys.readouterr().err
    assert sent() < 2 << 20


def _feed_fifo(tmp_path, head):
    """A FIFO that a thread feeds ``head`` and then 64 MiB of zeros, until the
    reader closes it; and a function that waits for the thread and returns
    how many bytes it sent."""
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)
    sent = []

    def writer():
        with open(fifo, "wb", buffering=0) as fh:
            try:
                sent.append(fh.write(head))
                block = bytes(1 << 16)
                for _ in range(1024):
                    sent.append(fh.write(block))
            except BrokenPipeError:
                pass

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()

    def total():
        thread.join(timeout=60)
        assert not thread.is_alive()
        return sum(sent)

    return fifo, total


@pytest.mark.parametrize("make, moduli", [
    (random_signal, (1,)), (random_signal, (8,)), (random_spectrum, (8,)),
    (random_signal, (3, 4)), (random_spectrum, (512,)),
])
def test_qsig_writer_writes_encoded_bytes(rng, tmp_path, make, moduli):
    sig = make(FiniteAbelianGroup(moduli), rng)
    path = tmp_path / "w.qsig"
    write_qsig(str(path), sig)
    assert path.read_bytes() == encode_qsig(sig)


def test_qsig_writer_failure_leaves_no_file(rng, tmp_path, z4, monkeypatch):
    real_fdopen = os.fdopen

    def fdopen_failing_second_write(*args, **kwargs):
        fh = real_fdopen(*args, **kwargs)
        write, calls = fh.write, []

        def failing_write(chunk):
            calls.append(len(chunk))
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(chunk)

        fh.write = failing_write
        return fh

    monkeypatch.setattr(os, "fdopen", fdopen_failing_second_write)
    with pytest.raises(OSError, match="No space left"):
        write_qsig(str(tmp_path / "x.qsig"), random_signal(z4, rng))
    assert list(tmp_path.iterdir()) == []


def test_no_temp_litter(rng, tmp_path, z4):
    write_qsig(str(tmp_path / "x.qsig"), random_signal(z4, rng))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.qsig"]


def test_ppm_round_trip(rng):
    pix = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    w, h, back = decode_ppm(encode_ppm(pix))
    assert (w, h) == (7, 5)
    assert np.array_equal(back, pix)


def test_ppm_header_tolerates_comments():
    raster = bytes(range(12))
    data = b"P6\n# a comment\n2 2\n255\n" + raster
    w, h, pix = decode_ppm(data)
    assert (w, h) == (2, 2)
    assert pix.tobytes() == raster


def test_ppm_header_must_end_within_limit(tmp_path):
    # a comment pads the header to exactly _PPM_MAX_HEAD bytes, then to one more
    path = tmp_path / "long.ppm"
    for pad in (0, 1):
        head = b"P6\n#" + b"c" * (_PPM_MAX_HEAD - 13 + pad) + b"\n1 1\n255\n"
        assert len(head) == _PPM_MAX_HEAD + pad
        data = head + bytes(3)
        if pad == 0:
            path.write_bytes(data)
            assert decode_ppm(data)[:2] == read_ppm(str(path))[:2] == (1, 1)
            continue
        with pytest.raises(PpmFormatError, match="truncated PPM header") as decoded:
            decode_ppm(data)
        assert _file_error(path, data, read_ppm, PpmFormatError) == str(decoded.value)


def test_ppm_rejects_malformed():
    with pytest.raises(PpmFormatError, match="magic"):
        decode_ppm(b"P5\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(PpmFormatError, match="maxval"):
        decode_ppm(b"P6\n2 2\n65535\n" + b"\x00" * 24)
    with pytest.raises(PpmFormatError, match="raster length"):
        decode_ppm(b"P6\n2 2\n255\n" + b"\x00" * 11)
    with pytest.raises(PpmFormatError, match="header"):
        decode_ppm(b"P6\n2 2")


# --- hostile bytes: the decoders raise only their own format errors ---------

# 1.5 is 0x3FF8...: one changed top byte (0x7F or 0xFF) makes it a NaN
_QSIG_SAMPLES = [
    encode_qsig(grid(FiniteAbelianGroup(mods), np.full((n, n, 4), 1.5)))
    for grid in (QSignal, QSpectrum)
    for mods, n in (((1,), 1), ((2,), 2), ((1, 2), 2))
]
_PPM_SAMPLES = [
    encode_ppm(np.arange(6, dtype=np.uint8).reshape(1, 2, 3)),
    b"P6\n# c\n1 2\n255\n" + bytes(range(6)),
    # a header 3 bytes short of _PPM_MAX_HEAD
    b"P6\n#" + b"c" * (_PPM_MAX_HEAD - 16) + b"\n1 2\n255\n" + bytes(range(6)),
]
_FUZZ = settings(max_examples=150, deadline=None)


def _mutated(samples):
    """A sample with one byte replaced."""
    return st.sampled_from(samples).flatmap(lambda data: st.builds(
        lambda i, b: data[:i] + bytes([b]) + data[i + 1:],
        st.integers(0, len(data) - 1), st.integers(0, 255)))


def _truncated(samples):
    """A proper prefix of a sample."""
    return st.sampled_from(samples).flatmap(
        lambda data: st.integers(0, len(data) - 1).map(lambda n: data[:n]))


def _decodes_or_refuses(decode, error, data):
    try:
        decode(data)
    except error:
        pass


@_FUZZ
@given(st.binary(max_size=128) | _mutated(_QSIG_SAMPLES) | _truncated(_QSIG_SAMPLES))
def test_decode_qsig_hostile_bytes(data):
    _decodes_or_refuses(decode_qsig, QsigFormatError, data)


@settings(_FUZZ, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=128) | _mutated(_QSIG_SAMPLES) | _truncated(_QSIG_SAMPLES))
def test_read_qsig_matches_decode_qsig(tmp_path, data):
    path = tmp_path / "fuzz.qsig"
    try:
        decoded = decode_qsig(data)
    except QsigFormatError as exc:
        assert _file_error(path, data) == str(exc)
        return
    path.write_bytes(data)
    read = read_qsig(str(path))
    assert type(read) is type(decoded)
    assert read.group == decoded.group
    assert read.values.tobytes() == decoded.values.tobytes()


@_FUZZ
@given(st.binary(max_size=64) | _mutated(_PPM_SAMPLES) | _truncated(_PPM_SAMPLES))
def test_decode_ppm_hostile_bytes(data):
    _decodes_or_refuses(decode_ppm, PpmFormatError, data)


@settings(_FUZZ, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=64) | _mutated(_PPM_SAMPLES) | _truncated(_PPM_SAMPLES))
def test_read_ppm_matches_decode_ppm(tmp_path, data):
    path = tmp_path / "fuzz.ppm"
    try:
        decoded = decode_ppm(data)
    except PpmFormatError as exc:
        assert _file_error(path, data, read_ppm, PpmFormatError) == str(exc)
        return
    path.write_bytes(data)
    width, height, pixels = read_ppm(str(path))
    assert (width, height) == decoded[:2]
    assert pixels.tobytes() == decoded[2].tobytes()
