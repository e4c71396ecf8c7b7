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

Readers work on the raw descriptor.  They take a header in one read (a
stream's until it is whole) and check it, against the input's size where
known up front, before anything of payload size is allocated or read.  One
helper then reads either format's payload: a file's straight into a fresh
array with one ``preadv``, a stream's in 1 MiB chunks to one byte past its
declared end, checked once and kept as read.  NaN and Inf are refused.  No
read path calls ``decode_qsig`` or ``decode_ppm``, the in-memory codecs.
Writers check nothing again (a grid is read-only once checked): they write a
temp file, created as ``open`` would, with one ``writev`` straight from the
array and rename it, so a failed command leaves no partial output.  Short
transfers are resumed.  Measured in CHANGES.md, "Read and write files at the
cost of their system calls" and "One payload reader for both file formats".
"""

from __future__ import annotations

import errno
import itertools
import math
import os
import stat
import struct

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


class QsigFormatError(Exception):
    """Malformed QSIG input (bad magic, header, or payload length)."""


class PpmFormatError(Exception):
    """Malformed or unsupported PPM input."""


def atomic_write_bytes(path: str, *chunks) -> None:
    """Write the bytes-like ``chunks``, in order and with one ``writev``, to
    ``path`` via a same-directory temp file, created as ``open(path, "wb")``
    creates one (the kernel applies the umask), and rename; an existing
    output passes its mode on."""
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            if mode is not None:
                os.fchmod(fd, mode)
            views = [memoryview(chunk).cast("B") for chunk in chunks]
            while views:  # resumed after a short transfer: Linux moves <= 0x7ffff000 bytes
                done = os.writev(fd, views)
                while views and done >= len(views[0]):
                    done -= len(views.pop(0))
                if views:
                    views[0] = views[0][done:]
        finally:
            os.close(fd)
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
    atomic_write_bytes(path, *_qsig_parts(sig))


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
        _check_length(size, need, group)
    return (QSpectrum if side == SIDE_DUAL else QSignal), group, need


def _check_length(size: int, off: int, group: FiniteAbelianGroup) -> None:
    """Check that ``size`` bytes are an ``off``-byte header and ``group``'s payload."""
    # bound the order by the bytes present before it is formatted or used:
    # 255 moduli of 2**32 - 1 give an order with thousands of digits
    n = group.order
    if n > size:
        raise QsigFormatError(
            f"payload too short: a group of order above {size} needs more "
            f"than the {size - off} payload bytes present"
        )
    if size != off + n * n * 4 * 8:
        raise QsigFormatError(
            f"payload length mismatch: file has {size} bytes, "
            f"expected {off + n * n * 4 * 8} for group {group!r}"
        )


def _grid(make, group: FiniteAbelianGroup, values: np.ndarray):
    try:
        return make(group, values)
    except _NonFiniteError as exc:
        raise QsigFormatError(str(exc)) from exc


def decode_qsig(data: bytes) -> QSignal | QSpectrum:
    """QSIG bytes in memory to a grid, which copies them; no read path calls it."""
    cls, group, off = _parse_head(data, len(data))
    n = group.order
    payload = np.frombuffer(data, dtype="<f8", offset=off).reshape(n, n, 4)
    return _grid(cls, group, payload)


def read_qsig(path: str) -> QSignal | QSpectrum:
    """Read a QSIG file: its header first, then its payload through
    ``_read_payload``, checked once and adopted by the grid as read."""
    fd = os.open(path, os.O_RDONLY)
    try:
        size, head = _read_head(fd, path, _MAX_HEAD)
        cls, group, off = _parse_head(head, size)
        n = group.order
        values = _read_payload(fd, size, head, off, (n, n, 4), "<f8",
                               lambda got: _check_length(off + got, off, group))
        # a no-op on little-endian hosts; elsewhere one conversion to native
        return _grid(cls._own, group, np.asarray(values, dtype=np.float64))
    finally:
        os.close(fd)


def _read_head(fd: int, path: str, limit: int) -> tuple[int | None, bytes]:
    """A regular file's size (None for a stream) and the first ``limit`` bytes of
    ``fd``, fewer only at its end: a regular file takes one read, and a stream
    is read until its header is whole, however its writer splits it."""
    st = os.fstat(fd)
    if stat.S_ISDIR(st.st_mode):  # refused as ``open`` refuses it
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    size = st.st_size if stat.S_ISREG(st.st_mode) else None
    want = min(size, limit) if size else limit  # a size of 0 may mean unknown (/proc)
    return size, _read_to(fd, b"", want)


def _read_payload(fd: int, size: int | None, head: bytes, off: int, shape, dtype, check):
    """The array of ``shape`` and ``dtype`` at byte ``off`` of ``fd``, whose start
    ``head`` holds, once ``check`` has passed the count of bytes read.  A
    regular file's bytes go straight into a fresh array with one ``preadv``,
    short only at its end; a stream is read to one byte past the declared
    end, so a size it only declares is never allocated, and the array views it."""
    if size is None:
        end = math.prod(shape) * np.dtype(dtype).itemsize + 1
        data = _read_to(fd, bytearray(head[off : off + end]), end)
        check(len(data))
        return np.frombuffer(data, dtype).reshape(shape)
    out = np.empty(shape, dtype)
    view = memoryview(out).cast("B")
    have = head[off : off + len(view)]
    got = len(have)
    view[:got] = have
    while got < len(view) and (done := os.preadv(fd, [view[got:]], off + got)):
        got += done
    check(got)  # the file shrank while read
    return out


def _read_to(fd: int, data: bytes | bytearray, end: int) -> bytes | bytearray:
    """``data`` extended from ``fd`` in chunks of at most 1 MiB, to ``end`` bytes or EOF."""
    while len(data) < end and (chunk := os.read(fd, min(end - len(data), 1 << 20))):
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
    if size is not None:
        _check_raster(max(size - off, 0), width, height)
    return width, height, off


def _check_raster(raster: int, width: int, height: int) -> None:
    if raster != width * height * 3:
        raise PpmFormatError(f"raster length {raster} does not match {width}x{height}")


def decode_ppm(data: bytes):
    """Parse a binary P6 image; returns (width, height, uint8 (h, w, 3))."""
    width, height, off = _ppm_head(data, len(data))
    pixels = np.frombuffer(data, dtype=np.uint8, offset=off).reshape(height, width, 3)
    return width, height, pixels


def read_ppm(path: str, *, _accept=lambda width, height: None):
    """Read a P6 file: its header first, then its raster through ``_read_payload``.
    ``_accept(width, height)`` may raise to refuse the image from its header."""
    fd = os.open(path, os.O_RDONLY)
    try:
        size, head = _read_head(fd, path, _PPM_MAX_HEAD + 1)
        width, height, off = _ppm_head(head, size)
        _accept(width, height)
        pixels = _read_payload(fd, size, head, off, (height, width, 3), np.uint8,
                               lambda got: _check_raster(got, width, height))
        return width, height, pixels
    finally:
        os.close(fd)


def _ppm_parts(pixels: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Header, and the C-ordered uint8 (h, w, 3) raster."""
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise PpmFormatError(f"expected (h, w, 3) pixels, got {pixels.shape}")
    h, w = pixels.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h), pixels


def encode_ppm(pixels: np.ndarray) -> bytes:
    return b"".join(_ppm_parts(pixels))


def write_ppm(path: str, pixels: np.ndarray) -> None:
    # the raster goes to the file from the image's own array, not via bytes
    atomic_write_bytes(path, *_ppm_parts(pixels))
