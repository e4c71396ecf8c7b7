"""Binary codecs: the QSIG signal container and minimal P6 PPM images.

QSIG layout (all little-endian):

    offset  size  field
    0       4     magic "QSG1"
    4       1     version, must be 1
    5       1     rank k (number of moduli of the axis group G)
    6       1     side: 0 = primal (G x G), 1 = dual
    7       1     reserved, must be 0
    8       4*k   moduli n1..nk as uint32
    ...           payload: |G|^2 * 4 float64, components (w, x, y, z) per
                  bin, bins ordered by index(x1) * |G| + index(x2)

Writers refuse non-finite payloads and go through a temp file plus rename,
so a failed command never leaves a partial output behind.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile

import numpy as np

from .group import FiniteAbelianGroup
from .signal import QSignal, QSpectrum, _NonFiniteError

__all__ = [
    "QsigFormatError",
    "PpmFormatError",
    "read_qsig",
    "write_qsig",
    "read_ppm",
    "write_ppm",
    "atomic_write_bytes",
]

MAGIC = b"QSG1"
VERSION = 1
SIDE_PRIMAL = 0
SIDE_DUAL = 1
_HEADER = struct.Struct("<4sBBBB")


class QsigFormatError(Exception):
    """Malformed QSIG input (bad magic, header, or payload length)."""


class PpmFormatError(Exception):
    """Malformed or unsupported PPM input."""


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def encode_qsig(sig: QSignal | QSpectrum) -> bytes:
    if not np.isfinite(sig.values).all():
        raise QsigFormatError("refusing to write non-finite values")
    side = SIDE_DUAL if isinstance(sig, QSpectrum) else SIDE_PRIMAL
    grp = sig.group
    header = _HEADER.pack(MAGIC, VERSION, grp.rank, side, 0)
    moduli = struct.pack(f"<{grp.rank}I", *grp.moduli)
    return b"".join((header, moduli, np.ascontiguousarray(sig.flat(), dtype="<f8")))


def write_qsig(path: str, sig: QSignal | QSpectrum) -> None:
    atomic_write_bytes(path, encode_qsig(sig))


def decode_qsig(data: bytes) -> QSignal | QSpectrum:
    if len(data) < _HEADER.size:
        raise QsigFormatError("truncated header")
    magic, version, rank, side, reserved = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise QsigFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise QsigFormatError(f"unsupported version {version}")
    if rank < 1:
        raise QsigFormatError("rank must be >= 1")
    if side not in (SIDE_PRIMAL, SIDE_DUAL):
        raise QsigFormatError(f"bad side byte {side}")
    if reserved != 0:
        raise QsigFormatError("reserved byte must be 0")
    off = _HEADER.size
    need = off + 4 * rank
    if len(data) < need:
        raise QsigFormatError("truncated moduli block")
    moduli = struct.unpack_from(f"<{rank}I", data, off)
    if any(n < 1 for n in moduli):
        raise QsigFormatError(f"bad moduli {moduli}")
    # bound the order by the bytes present before it is formatted or used:
    # 255 moduli of 2**32 - 1 give an order with thousands of digits
    n = math.prod(moduli)
    if n > len(data):
        raise QsigFormatError(
            f"payload too short: a group of order above {len(data)} needs more "
            f"than the {len(data) - need} payload bytes present"
        )
    group = FiniteAbelianGroup(moduli)
    expected = need + n * n * 4 * 8
    if len(data) != expected:
        raise QsigFormatError(
            f"payload length mismatch: file has {len(data)} bytes, "
            f"expected {expected} for group {group!r}"
        )
    payload = np.frombuffer(data, dtype="<f8", offset=need).reshape(n, n, 4)
    cls = QSpectrum if side == SIDE_DUAL else QSignal
    try:
        return cls(group, payload)  # the grid constructor copies
    except _NonFiniteError as exc:
        raise QsigFormatError(str(exc)) from exc


def read_qsig(path: str) -> QSignal | QSpectrum:
    with open(path, "rb") as fh:
        return decode_qsig(fh.read())


# ---------------------------------------------------------------------------
# PPM (binary P6, maxval 255)


def _tokens(data: bytes):
    """Header tokens of a PNM file, skipping whitespace and # comments."""
    i = 0
    while i < len(data):
        c = data[i : i + 1]
        if c.isspace():
            i += 1
            continue
        if c == b"#":
            while i < len(data) and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        yield data[i:j], j
        i = j


def decode_ppm(data: bytes):
    """Parse a binary P6 image; returns (width, height, uint8 (h, w, 3))."""
    it = _tokens(data)
    try:
        (magic, _), (w_tok, _), (h_tok, _), (maxval_tok, end) = (
            next(it), next(it), next(it), next(it),
        )
    except StopIteration:
        raise PpmFormatError("truncated PPM header") from None
    if magic != b"P6":
        raise PpmFormatError(f"expected P6 magic, got {magic!r}")
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    except ValueError:
        raise PpmFormatError("non-numeric PPM header field") from None
    if maxval != 255:
        raise PpmFormatError(f"only maxval 255 is supported, got {maxval}")
    if width < 1 or height < 1:
        raise PpmFormatError(f"bad dimensions {width}x{height}")
    raster = data[end + 1 :]  # exactly one whitespace byte after maxval
    if len(raster) != width * height * 3:
        raise PpmFormatError(
            f"raster length {len(raster)} does not match {width}x{height}"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)
    return width, height, pixels


def read_ppm(path: str):
    with open(path, "rb") as fh:
        return decode_ppm(fh.read())


def encode_ppm(pixels: np.ndarray) -> bytes:
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise PpmFormatError(f"expected (h, w, 3) pixels, got {pixels.shape}")
    h, w = pixels.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def write_ppm(path: str, pixels: np.ndarray) -> None:
    atomic_write_bytes(path, encode_ppm(pixels))
