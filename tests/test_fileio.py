import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgft import FiniteAbelianGroup, QSignal, QSpectrum, random_signal, random_spectrum
from qgft.fileio import (
    PpmFormatError,
    QsigFormatError,
    decode_ppm,
    decode_qsig,
    encode_ppm,
    encode_qsig,
    read_qsig,
    write_qsig,
)


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


def test_qsig_reader_rejects_malformed(rng, z4):
    good = encode_qsig(random_signal(z4, rng))
    with pytest.raises(QsigFormatError, match="magic"):
        decode_qsig(b"XXXX" + good[4:])
    with pytest.raises(QsigFormatError, match="version"):
        decode_qsig(good[:4] + b"\x02" + good[5:])
    with pytest.raises(QsigFormatError, match="side"):
        decode_qsig(good[:6] + b"\x05" + good[7:])
    with pytest.raises(QsigFormatError, match="reserved"):
        decode_qsig(good[:7] + b"\x01" + good[8:])
    with pytest.raises(QsigFormatError, match="length"):
        decode_qsig(good[:-8])
    with pytest.raises(QsigFormatError, match="length"):
        decode_qsig(good + b"\x00" * 8)
    with pytest.raises(QsigFormatError, match="truncated"):
        decode_qsig(good[:6])


def test_qsig_reader_bounds_hostile_header():
    # rank 255, every modulus 2**32 - 1 and no payload: the order has
    # thousands of digits and must be refused before it is formatted
    header = b"QSG1" + bytes([1, 255, 0, 0]) + b"\xff\xff\xff\xff" * 255
    assert len(header) == 1028
    with pytest.raises(QsigFormatError, match="payload too short"):
        decode_qsig(header)


def test_qsig_writer_rejects_non_finite(z4, tmp_path):
    sig = QSignal.zeros(z4)
    sig.values[0, 0, 0] = np.inf
    out = tmp_path / "bad.qsig"
    with pytest.raises(QsigFormatError, match="non-finite"):
        write_qsig(str(out), sig)
    assert not out.exists()  # no partial file on failure


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


@_FUZZ
@given(st.binary(max_size=64) | _mutated(_PPM_SAMPLES) | _truncated(_PPM_SAMPLES))
def test_decode_ppm_hostile_bytes(data):
    _decodes_or_refuses(decode_ppm, PpmFormatError, data)
