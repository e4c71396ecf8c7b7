"""Output checks and input writers for the benchmark, independent of qgft.

Nothing here imports the package under test: the QSIG and PPM readers,
the quaternion product, the characters and the smoothing envelopes are
written out again from the formats and definitions in the README and the
module docstrings, so a defect in the library cannot also hide in the
oracle that checks it.

Every ``check_*`` function returns a list of problem strings; an empty
list means the output is correct.  The tolerances are the library's
published contracts and are not to be loosened.
"""

from __future__ import annotations

import json
import struct

import numpy as np

PLANCHEREL_TOL = 1e-12  # | ||F||_2 / ||f||_2 - 1 |
SPOT_TOL = 1e-9  # |F(u, v) - defining sum| / ||f||_2
ROUND_TRIP_TOL = 1e-12  # ||inverse(F) - f||_2 / ||f||_2
SMOOTH_TOL = 1e-10  # ||smooth(f) - spectral reference||_2 / ||reference||_2

SIDE_PRIMAL = 0
SIDE_DUAL = 1
_HEADER = struct.Struct("<4sBBBB")


class Grid:
    """A decoded QSIG file: group moduli, side and (n, n, 4) values."""

    def __init__(self, moduli, side, values):
        self.moduli = tuple(moduli)
        self.side = side
        self.values = values

    @property
    def order(self) -> int:
        return int(np.prod(self.moduli))


def encode_qsig(moduli, side: int, values: np.ndarray) -> bytes:
    header = _HEADER.pack(b"QSG1", 1, len(moduli), side, 0)
    payload = np.ascontiguousarray(values, dtype="<f8").tobytes()
    return header + struct.pack(f"<{len(moduli)}I", *moduli) + payload


def decode_qsig(data: bytes) -> Grid:
    """Strict QSIG decoder; raises ValueError on any malformed field."""
    if len(data) < _HEADER.size:
        raise ValueError("truncated header")
    magic, version, rank, side, reserved = _HEADER.unpack_from(data, 0)
    if magic != b"QSG1" or version != 1 or rank < 1 or reserved != 0:
        raise ValueError(f"bad header {magic!r} v{version} rank {rank}")
    if side not in (SIDE_PRIMAL, SIDE_DUAL):
        raise ValueError(f"bad side byte {side}")
    off = _HEADER.size + 4 * rank
    if len(data) < off:
        raise ValueError("truncated moduli block")
    moduli = struct.unpack_from(f"<{rank}I", data, _HEADER.size)
    n = int(np.prod(moduli))
    if len(data) != off + n * n * 32:
        raise ValueError(f"payload length {len(data) - off} for group {moduli}")
    values = np.frombuffer(data, dtype="<f8", offset=off).reshape(n, n, 4)
    return Grid(moduli, side, values.astype(np.float64))


def read_qsig(path: str) -> Grid:
    with open(path, "rb") as fh:
        return decode_qsig(fh.read())


def encode_ppm(pixels: np.ndarray) -> bytes:
    """P6 bytes in the exact layout ``qgft q2img`` writes."""
    h, w = pixels.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(pixels, np.uint8).tobytes()


def write_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


# ---------------------------------------------------------------------------
# quaternion algebra and characters, from the definitions


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of broadcastable (..., 4) arrays."""
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy + py * qw + pz * qx - px * qz,
            pw * qz + pz * qw + px * qy - py * qx,
        ],
        axis=-1,
    )


def conj(q: np.ndarray) -> np.ndarray:
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def coords(moduli) -> np.ndarray:
    """(|G|, rank) coordinates in canonical order, last coordinate fastest."""
    grids = np.meshgrid(*(np.arange(n) for n in moduli), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def character_row(moduli, u: int, mu: np.ndarray) -> np.ndarray:
    """(|G|, 4) values cos(theta(u, x)) + mu sin(theta(u, x)) over x."""
    c = coords(moduli)
    theta = np.zeros(len(c))
    for t, n in enumerate(moduli):
        theta += (2.0 * np.pi / n) * ((c[u, t] * c[:, t]) % n)
    row = np.empty((len(c), 4))
    row[:, 0] = np.cos(theta)
    row[:, 1:] = np.sin(theta)[:, None] * np.asarray(mu, dtype=np.float64)[1:]
    return row


def defining_sum(kind: str, f: np.ndarray, moduli, u: int, v: int, mu1, mu2) -> np.ndarray:
    """One bin F(u, v) of a forward transform by its defining sum, O(|G|^2).

    right-sided  sum f(x) * conj(k1) * conj(k2)
    two-sided    sum conj(k1) * f(x) * conj(k2)
    left-sided   sum conj(k1) * conj(k2) * f(x)
    with k1 = character of u along mu1 at x1 and k2 of v along mu2 at x2.
    """
    c1 = conj(character_row(moduli, u, mu1))[:, None, :]  # over x1
    c2 = conj(character_row(moduli, v, mu2))  # over x2
    if kind == "rqft":
        return qmul(qmul(f, c1).sum(axis=0), c2).sum(axis=0)
    if kind == "sqft":
        return qmul(qmul(c1, f).sum(axis=0), c2).sum(axis=0)
    if kind == "lqft":
        inner = qmul(c2[None, :, :], f).sum(axis=1)  # over x2, per x1
        return qmul(c1[:, 0, :], inner).sum(axis=0)
    raise ValueError(f"unknown kind {kind!r}")


def norm2(values: np.ndarray, weight: float = 1.0) -> float:
    return float(np.sqrt((values * values).sum() * weight))


# ---------------------------------------------------------------------------
# checks


def check_grid(out: Grid, moduli, side: int) -> list[str]:
    problems = []
    if out.moduli != tuple(moduli):
        problems.append(f"group {out.moduli} != {tuple(moduli)}")
    if out.side != side:
        problems.append(f"side {out.side} != {side}")
    if not np.isfinite(out.values).all():
        problems.append("non-finite values")
    return problems


def check_forward(kind: str, f: np.ndarray, moduli, out: Grid, mu1, mu2, bins) -> list[str]:
    """Plancherel ratio plus defining-sum spot checks at ``bins``."""
    problems = check_grid(out, moduli, SIDE_DUAL)
    if problems:
        return problems
    n = out.order
    nf = norm2(f)
    ratio = norm2(out.values, 1.0 / n**2) / nf
    if not abs(ratio - 1.0) <= PLANCHEREL_TOL:
        problems.append(f"{kind}: Plancherel ratio {ratio!r} off 1 by more than {PLANCHEREL_TOL}")
    for u, v in bins:
        ref = defining_sum(kind, f, moduli, u, v, mu1, mu2)
        err = norm2(out.values[u, v] - ref) / nf
        if not err <= SPOT_TOL:
            problems.append(f"{kind}: bin ({u}, {v}) off the defining sum by {err:.3e} relative")
    return problems


def check_equal(expected: np.ndarray, moduli, out: Grid) -> list[str]:
    """Bit-exact primal output, as ``img2q`` promises."""
    problems = check_grid(out, moduli, SIDE_PRIMAL)
    if not problems and not np.array_equal(out.values, expected):
        problems.append(f"{int((out.values != expected).sum())} values differ from the expected bits")
    return problems


def check_round_trip(f: np.ndarray, moduli, out: Grid) -> list[str]:
    problems = check_grid(out, moduli, SIDE_PRIMAL)
    if problems:
        return problems
    err = norm2(out.values - f) / norm2(f)
    if not err <= ROUND_TRIP_TOL:
        problems.append(f"round trip misses by {err:.3e} relative")
    return problems


def check_same_bytes(expected: bytes, path: str) -> list[str]:
    with open(path, "rb") as fh:
        got = fh.read()
    if got == expected:
        return []
    if len(got) != len(expected):
        return [f"{path}: {len(got)} bytes, expected {len(expected)}"]
    first = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
    return [f"{path}: first differing byte at offset {first}"]


def image_values(pixels: np.ndarray) -> np.ndarray:
    """The primal signal ``qgft img2q`` makes of an (n, n, 3) image."""
    n = pixels.shape[0]
    vals = np.zeros((n, n, 4))
    vals[..., 1:] = pixels.astype(np.float64) / 255.0
    return vals


def image_pixels(values: np.ndarray) -> np.ndarray:
    """The pixels ``qgft q2img`` makes of a primal signal: clamp, round half up."""
    return np.floor(np.clip(values[..., 1:], 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def envelope(family: str, level: int, n: int) -> np.ndarray:
    """Built-in kernel envelope over Z_n at ``level`` (see qgft.kernels)."""
    u = np.arange(n)
    d = np.minimum(u, n - u).astype(np.float64)
    if family == "dirichlet":
        return (d <= level).astype(np.float64)
    if family == "fejer":
        return np.maximum(0.0, 1.0 - d / (level + 1))
    if family == "poisson_geometric":
        return np.exp(-d / 2.0**level)
    raise ValueError(f"unknown family {family!r}")


def smooth_reference(f: np.ndarray, family: str, level: int) -> np.ndarray:
    """Componentwise spectral smoothing over Z_n x Z_n with a real separable kernel."""
    n = f.shape[0]
    env = envelope(family, level, n)
    mask = env[:, None] * env[None, :]
    spec = np.fft.fft2(f, axes=(0, 1)) * mask[..., None]
    return np.fft.ifft2(spec, axes=(0, 1)).real


def check_smooth(f: np.ndarray, n: int, family: str, level: int, out: Grid) -> list[str]:
    problems = check_grid(out, (n,), SIDE_PRIMAL)
    if problems:
        return problems
    ref = smooth_reference(f, family, level)
    err = norm2(out.values - ref) / norm2(ref)
    if not err <= SMOOTH_TOL:
        problems.append(f"smooth {family}: {err:.3e} relative from the spectral reference")
    return problems


def check_verify_report(path: str, seed: int) -> list[str]:
    with open(path, "rb") as fh:
        report = json.loads(fh.read())
    if report.get("seed") != seed:
        return [f"verify report is for seed {report.get('seed')}, expected {seed}"]
    if report.get("passed") is not True:
        failed = [c.get("name") for c in report.get("checks", []) if not c.get("passed")]
        return [f"verify report not passed: {failed}"]
    return []
