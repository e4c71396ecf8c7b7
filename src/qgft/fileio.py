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

Readers check the header (against the input's size, where known up front)
before anything of payload size is allocated or read, and refuse NaN and
Inf.  A grid's payload is read-only once checked, so writers check nothing
again; they go through a temp file plus rename, so a failed command never
leaves a partial output behind.  A file's payload is read straight into
the grid's array and written straight from it: one copy each way.
"""

from __future__ import annotations

import itertools
import os
import stat
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
_MAX_HEAD = _HEADER.size + 4 * 255  # the longest header and moduli block
# A file up to this size leaves in one write call, header and payload
# together; a larger chunk is written straight from its own memory.
_WRITE_BUFFER = 1 << 16


class QsigFormatError(Exception):
    """Malformed QSIG input (bad magic, header, or payload length)."""


class PpmFormatError(Exception):
    """Malformed or unsupported PPM input."""


def atomic_write_bytes(path: str, *chunks) -> None:
    """Write the bytes-like ``chunks``, in order, to ``path`` via a
    same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb", buffering=_WRITE_BUFFER) as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _qsig_parts(sig: QSignal | QSpectrum) -> tuple[bytes, np.ndarray]:
    """Header plus moduli, and the C-ordered little-endian payload array."""
    side = SIDE_DUAL if isinstance(sig, QSpectrum) else SIDE_PRIMAL
    grp = sig.group
    head = _HEADER.pack(MAGIC, VERSION, grp.rank, side, 0) + struct.pack(
        f"<{grp.rank}I", *grp.moduli)
    return head, np.ascontiguousarray(sig.values, dtype="<f8")


def encode_qsig(sig: QSignal | QSpectrum) -> bytes:
    return b"".join(_qsig_parts(sig))


def write_qsig(path: str, sig: QSignal | QSpectrum) -> None:
    # the payload goes to the file from the grid's own array, not via bytes
    head, payload = _qsig_parts(sig)
    atomic_write_bytes(path, head, memoryview(payload).cast("B"))


def _parse_head(head: bytes, size: int | None):
    """Check a QSIG header, and against the input's total ``size`` in bytes
    unless that is None (a stream's size is known only at its end).

    ``head`` holds at least the first ``min(size, _MAX_HEAD)`` bytes.
    Returns (grid class, group, payload offset); nothing of payload size
    is allocated.
    """
    if len(head) < _HEADER.size:
        raise QsigFormatError("truncated header")
    magic, version, rank, side, reserved = _HEADER.unpack_from(head, 0)
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
    if len(head) < need:
        raise QsigFormatError("truncated moduli block")
    moduli = struct.unpack_from(f"<{rank}I", head, off)
    if any(n < 1 for n in moduli):
        raise QsigFormatError(f"bad moduli {moduli}")
    group = FiniteAbelianGroup(moduli)
    if size is not None:
        # bound the order by the bytes present before it is formatted or used:
        # 255 moduli of 2**32 - 1 give an order with thousands of digits
        n = group.order
        if n > size:
            raise QsigFormatError(
                f"payload too short: a group of order above {size} needs more "
                f"than the {size - need} payload bytes present"
            )
        _check_length(size, need + n * n * 4 * 8, group)
    return (QSpectrum if side == SIDE_DUAL else QSignal), group, need


def _check_length(size: int, expected: int, group: FiniteAbelianGroup) -> None:
    if size != expected:
        raise QsigFormatError(
            f"payload length mismatch: file has {size} bytes, "
            f"expected {expected} for group {group!r}"
        )


def _grid(make, group: FiniteAbelianGroup, values: np.ndarray):
    try:
        return make(group, values)
    except _NonFiniteError as exc:
        raise QsigFormatError(str(exc)) from exc


def decode_qsig(data: bytes) -> QSignal | QSpectrum:
    cls, group, off = _parse_head(data, len(data))
    n = group.order
    payload = np.frombuffer(data, dtype="<f8", offset=off).reshape(n, n, 4)
    return _grid(cls, group, payload)  # the grid constructor copies


def read_qsig(path: str) -> QSignal | QSpectrum:
    """Read a QSIG file; a regular file's payload is read straight into the
    grid's array, after its header has been checked against the file size."""
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):
            return decode_qsig(_read_stream(fh))
        size = st.st_size
        cls, group, off = _parse_head(fh.read(_MAX_HEAD), size)
        n = group.order
        values = np.empty((n, n, 4), dtype="<f8")
        fh.seek(off)
        got = fh.readinto(memoryview(values).cast("B"))
        _check_length(off + got, size, group)  # the file shrank while read
        # a no-op on little-endian hosts; elsewhere one conversion to native
        return _grid(cls._own, group, np.asarray(values, dtype=np.float64))


def _read_stream(fh) -> bytearray:
    """A stream's bytes: its header is checked as soon as it has arrived, the
    rest is read to one byte past its declared end."""
    data = bytearray(fh.read(_HEADER.size))
    if len(data) == _HEADER.size:
        data += fh.read(4 * data[5])  # the moduli block; byte 5 is the rank
    _, group, off = _parse_head(data, None)
    return _read_to(fh, data, off + group.order ** 2 * 4 * 8 + 1)


def _read_to(fh, data: bytearray, end: int) -> bytearray:
    """``data`` extended from ``fh`` in chunks of at most 1 MiB, to ``end`` bytes."""
    while len(data) < end and (chunk := fh.read(min(end - len(data), 1 << 20))):
        data += chunk
    return data


# ---------------------------------------------------------------------------
# PPM (binary P6, maxval 255)

_PPM_MAX_HEAD = 4096  # a header, comments included, must end within this many bytes


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


def _ppm_head(data: bytes, size: int | None):
    """Check a P6 header in the first _PPM_MAX_HEAD bytes of ``data`` and, unless
    ``size`` is None (a stream), the raster length; returns (width, height, offset)."""
    head = data[:_PPM_MAX_HEAD]
    tokens = list(itertools.islice(_tokens(head), 4))
    if len(tokens) < 4 or tokens[3][1] == len(head) < len(data):  # maxval cut off
        raise PpmFormatError(f"truncated PPM header (it must end within {_PPM_MAX_HEAD} bytes)")
    (magic, _), (w_tok, _), (h_tok, _), (maxval_tok, end) = tokens
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
    off = end + 1  # exactly one whitespace byte after maxval
    if size is not None and (raster := max(size - off, 0)) != width * height * 3:
        raise PpmFormatError(f"raster length {raster} does not match {width}x{height}")
    return width, height, off


def decode_ppm(data: bytes):
    """Parse a binary P6 image; returns (width, height, uint8 (h, w, 3))."""
    width, height, off = _ppm_head(data, len(data))
    pixels = np.frombuffer(data, dtype=np.uint8, offset=off).reshape(height, width, 3)
    return width, height, pixels


def read_ppm(path: str, *, _accept=lambda width, height: None):
    """Read a P6 file: its header first, then at most the raster and one byte.
    ``_accept(width, height)`` may raise to refuse the image from its header."""
    with open(path, "rb") as fh:
        head = fh.read(_PPM_MAX_HEAD + 1)
        st = os.fstat(fh.fileno())
        width, height, off = _ppm_head(head, st.st_size if stat.S_ISREG(st.st_mode) else None)
        _accept(width, height)
        end = off + width * height * 3 + 1
        return decode_ppm(_read_to(fh, bytearray(head[:end]), end))


def encode_ppm(pixels: np.ndarray) -> bytes:
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise PpmFormatError(f"expected (h, w, 3) pixels, got {pixels.shape}")
    h, w = pixels.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def write_ppm(path: str, pixels: np.ndarray) -> None:
    atomic_write_bytes(path, encode_ppm(pixels))
