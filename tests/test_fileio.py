import errno
import os
import stat
import subprocess
import sys
import threading
import time
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
    write_ppm,
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
        (good[:5] + b"\x00" + good[6:], "rank must be >= 1"),
        (good[:8] + bytes(4) + good[12:], r"bad moduli \(0,\)"),
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


def _read_pipe(data, read=read_qsig):
    """``read`` of ``data`` sent through a pipe, whose buffer must hold it whole."""
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        return read(f"/dev/fd/{r}")
    finally:
        os.close(r)


def _pipe_error(data, read=read_qsig, error=QsigFormatError):
    with pytest.raises(error) as info:
        _read_pipe(data, read)
    return str(info.value)


def test_qsig_stream_reader_gives_the_decoders_messages(rng, z4):
    # a stream's header and length are refused with the in-memory decoder's words
    good = encode_qsig(random_signal(z4, rng))
    assert len(good) == 524
    for data, pattern in _malformed(good) + [(_HOSTILE_HEADER, "payload too short")]:
        with pytest.raises(QsigFormatError, match=pattern) as decoded:
            decode_qsig(data)
        want = str(decoded.value)
        if data == good + bytes(8):  # a stream is read only one byte past its end
            want = want.replace("has 532 bytes", "has 525 bytes")
            assert "has 525 bytes" in want
        assert _pipe_error(data) == want


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
    regular, stream = read_qsig(str(path)), _read_pipe(path.read_bytes())
    # so not a view of the bytes it was read from; a stream's may view its read buffer
    assert regular.values.flags.owndata
    for back in (regular, stream):
        values = back.values
        assert type(back) is QSignal and values.dtype == np.float64
        flags = values.flags
        assert flags.c_contiguous and flags.aligned and not flags.writeable
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
    with pytest.raises(QsigFormatError, match="finite"):
        _read_pipe(data)
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


def test_stream_header_split_across_writes_is_read_whole(rng, tmp_path, z3x4):
    # the writer sends 3 bytes, pauses, then the rest: the reader waits for the header
    sig = random_signal(z3x4, rng)
    pixels = rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8)
    for data, read in ((encode_qsig(sig), read_qsig), (encode_ppm(pixels), read_ppm)):
        fifo = tmp_path / f"{read.__name__}.fifo"
        os.mkfifo(fifo)

        def writer():
            with open(fifo, "wb", buffering=0) as fh:
                fh.write(data[:3])
                time.sleep(0.1)
                fh.write(data[3:])

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        back = read(str(fifo))
        thread.join(timeout=60)
        assert not thread.is_alive()
        if read is read_qsig:
            assert type(back) is QSignal and back.values.tobytes() == sig.values.tobytes()
        else:
            assert back[:2] == (4, 4) and np.array_equal(back[2], pixels)


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
    # the first write call moves part of the file, the second finds the disk full
    real_writev, calls = os.writev, []

    def writev_failing_second_call(fd, buffers):
        calls.append(fd)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_writev(fd, [memoryview(buffers[0])[:7]])

    monkeypatch.setattr(os, "writev", writev_failing_second_call)
    with pytest.raises(OSError, match="No space left"):
        write_qsig(str(tmp_path / "x.qsig"), random_signal(z4, rng))
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []


def _capped(monkeypatch, cap):
    """Make every read and write system call the file layer makes move at most
    ``cap`` bytes, as a short transfer would."""
    real_read, real_preadv, real_writev = os.read, os.preadv, os.writev

    def first_bytes(buffers):
        left, parts = cap, []
        for buf in buffers:
            parts.append(memoryview(buf).cast("B")[:left])
            left -= len(parts[-1])
        return parts

    monkeypatch.setattr(os, "read", lambda fd, n: real_read(fd, min(n, cap)))
    monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset:
                        real_preadv(fd, first_bytes(buffers), offset))
    monkeypatch.setattr(os, "writev", lambda fd, buffers: real_writev(fd, first_bytes(buffers)))


@pytest.mark.parametrize("make, moduli", [
    (random_signal, (1,)), (random_spectrum, (3, 4)), (random_signal, (512,)),
])
def test_qsig_short_transfers_are_resumed(rng, tmp_path, monkeypatch, make, moduli):
    sig = make(FiniteAbelianGroup(moduli), rng)
    path = tmp_path / "w.qsig"
    _capped(monkeypatch, 7)
    write_qsig(str(path), sig)
    if sig.group.order < 512:  # 8 MB at 7 bytes a call is slow to read back
        back = read_qsig(str(path))
        assert type(back) is type(sig)
        assert back.values.tobytes() == sig.values.tobytes()
    monkeypatch.undo()
    assert path.read_bytes() == encode_qsig(sig)


@pytest.mark.parametrize("shape", [(2, 3, 3), (32, 32, 3)])
def test_ppm_short_transfers_are_resumed(rng, tmp_path, monkeypatch, shape):
    pixels = rng.integers(0, 256, size=shape, dtype=np.uint8)
    path = tmp_path / "w.ppm"
    _capped(monkeypatch, 7)
    write_ppm(str(path), pixels)
    width, height, back = read_ppm(str(path))
    monkeypatch.undo()
    assert (height, width) == shape[:2]
    assert np.array_equal(back, pixels)
    assert path.read_bytes() == encode_ppm(pixels)


def _fake_size(monkeypatch, path, size):
    """Make ``os.fstat`` report ``size`` bytes for the file at ``path``."""
    real_fstat, target = os.fstat, os.stat(path)

    def fstat(fd):
        st = real_fstat(fd)
        if (st.st_dev, st.st_ino) != (target.st_dev, target.st_ino):
            return st
        fields = list(st)
        fields[stat.ST_SIZE] = size
        return os.stat_result(fields)

    monkeypatch.setattr(os, "fstat", fstat)


@pytest.mark.parametrize("cap", [None, 5])
def test_file_shrinking_while_read_is_refused(rng, tmp_path, z3x4, monkeypatch, capsys, cap):
    # the header check passes on the size fstat reports; the bytes read fall one row short
    data = encode_qsig(random_signal(z3x4, rng))
    qsig = tmp_path / "short.qsig"
    qsig.write_bytes(data[:-12 * 4 * 8])
    image = encode_ppm(rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8))
    ppm = tmp_path / "short.ppm"
    ppm.write_bytes(image[:-4 * 3])
    _fake_size(monkeypatch, qsig, len(data))
    _fake_size(monkeypatch, ppm, len(image))
    if cap is not None:
        _capped(monkeypatch, cap)
    with pytest.raises(QsigFormatError) as info:
        read_qsig(str(qsig))
    assert str(info.value) == (f"payload length mismatch: file has {len(data) - 384} "
                               f"bytes, expected {len(data)} for group {z3x4!r}")
    with pytest.raises(PpmFormatError, match="^raster length 36 does not match 4x4$"):
        read_ppm(str(ppm))
    capsys.readouterr()
    assert main(["transform", str(qsig), str(tmp_path / "t.qsig")]) == 2
    assert main(["img2q", str(ppm), str(tmp_path / "i.qsig")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[:2] for line in err] == [["qgft", "error"]] * 2
    assert "payload length mismatch" in err[0] and "raster length 36" in err[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["short.ppm", "short.qsig"]


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002], ids=oct)
def test_outputs_get_the_mode_a_plain_open_gives(rng, tmp_path, z4, umask):
    # a temp file alone would leave every output at 0o600, whatever the umask
    src = tmp_path / "f.qsig"
    write_qsig(str(src), random_signal(z4, rng))
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "wb"):
            pass
        assert main(["transform", str(src), str(tmp_path / "t.qsig")]) == 0
        assert main(["q2img", str(src), str(tmp_path / "q.ppm")]) == 0
        assert main(["verify", "--group", "2", "--trials", "1",
                     "--json", str(tmp_path / "r.json")]) == 0
        write_qsig(str(tmp_path / "kept.qsig"), random_signal(z4, rng))
        os.chmod(tmp_path / "kept.qsig", 0o640)
        assert main(["transform", str(src), str(tmp_path / "kept.qsig")]) == 0
    finally:
        os.umask(old)
    want = os.stat(tmp_path / "plain").st_mode
    assert want & 0o777 == 0o666 & ~umask
    for name in ("t.qsig", "q.ppm", "r.json"):
        assert os.stat(tmp_path / name).st_mode == want, name
    assert os.stat(tmp_path / "kept.qsig").st_mode & 0o7777 == 0o640


def test_new_output_mode_comes_from_the_kernel(rng, tmp_path, z4, monkeypatch):
    # the temp file is created with 0o666 and the kernel applies the umask:
    # the writer neither reads nor sets the process-wide umask
    set_umask = os.umask
    old = set_umask(0o027)

    def no_umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", no_umask)
    try:
        write_qsig(str(tmp_path / "new.qsig"), random_signal(z4, rng))
    finally:
        set_umask(old)
    assert os.stat(tmp_path / "new.qsig").st_mode & 0o7777 == 0o666 & ~0o027


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


_PPM_MALFORMED = [  # (bytes, message pattern)
    (b"P5\n2 2\n255\n" + b"\x00" * 12, "magic"),
    (b"P6\n2 2\n65535\n" + b"\x00" * 24, "maxval"),
    (b"P6\n2 2\n255\n" + b"\x00" * 11, "raster length 11 "),
    (b"P6\n2 2\n255\n" + b"\x00" * 13, "raster length 13 "),
    (b"P6\n2 2", "header"),
    (b"P6\n0 2\n255\n", "bad dimensions 0x2"),
    (b"P6\n2 -1\n255\n", "bad dimensions 2x-1"),
]


def test_ppm_rejects_malformed():
    for data, pattern in _PPM_MALFORMED:
        with pytest.raises(PpmFormatError, match=pattern):
            decode_ppm(data)
    with pytest.raises(PpmFormatError, match=r"expected \(h, w, 3\) pixels, got \(2, 2\)"):
        encode_ppm(np.zeros((2, 2)))


def test_ppm_stream_reader_gives_the_decoders_messages():
    for data, pattern in _PPM_MALFORMED:
        with pytest.raises(PpmFormatError, match=pattern) as decoded:
            decode_ppm(data)
        assert _pipe_error(data, read_ppm, PpmFormatError) == str(decoded.value)


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
