"""Morton (Z-order) codes for 2D and 3D points.

The linear BVH construction (Karras 2012) sorts points along a space-filling
curve before building the hierarchy; ArborX uses the Z-curve.  This module
provides vectorized bit-interleaving encoders for 2D (up to 31 bits/dim) and
3D (up to 21 bits/dim) plus a scalar reference encoder for the tests.

The paper (Section 4.1) attributes its one pathological dataset
(GeoLife24M3D) to Z-curve under-resolution and suggests 128-bit codes; the
``bits`` parameter exposes the resolution knob, and
:func:`morton_encode_high` encodes a second, finer key per point, whose
lexicographic order with the first is that of the double-width code.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import DimensionError, InvalidInputError

#: Maximum bits per dimension that fit interleaved into a uint64.
MAX_BITS_2D = 31
MAX_BITS_3D = 21

_U = np.uint64


def normalize_to_grid(points: np.ndarray, bits: int,
                      lo: Optional[np.ndarray] = None,
                      hi: Optional[np.ndarray] = None) -> np.ndarray:
    """Map points into integer grid coordinates ``[0, 2**bits - 1]``.

    ``lo``/``hi`` default to the tight bounding box of the input.  Degenerate
    extents (all points sharing a coordinate) map to grid coordinate 0.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise InvalidInputError(
            f"expected non-empty (n, d) points, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("points contain non-finite coordinates")
    # One contiguous row per dimension: NumPy reduces and broadcasts along
    # a long contiguous axis ~10x faster than across a short last one,
    # and every value is the same.
    columns = np.ascontiguousarray(points.T)
    if lo is None:
        lo = columns.min(axis=1)
    if hi is None:
        hi = columns.max(axis=1)
    lo = np.asarray(lo, dtype=np.float64)
    extent = np.asarray(hi, dtype=np.float64) - lo
    scale = np.where(extent > 0.0, (2.0**bits - 1.0) / np.where(extent > 0, extent, 1.0), 0.0)
    grid = (columns - lo.reshape(-1, 1)) * scale.reshape(-1, 1)
    np.clip(grid, 0.0, 2.0**bits - 1.0, out=grid)
    return grid.astype(np.uint64).T


def _expand_bits_2d(v: np.ndarray) -> np.ndarray:
    """Spread the low 31 bits of ``v`` so consecutive bits are 2 apart."""
    v = v & _U(0x7FFFFFFF)
    v = (v | (v << _U(16))) & _U(0x0000FFFF0000FFFF)
    v = (v | (v << _U(8))) & _U(0x00FF00FF00FF00FF)
    v = (v | (v << _U(4))) & _U(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << _U(2))) & _U(0x3333333333333333)
    v = (v | (v << _U(1))) & _U(0x5555555555555555)
    return v


def _expand_bits_3d(v: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of ``v`` so consecutive bits are 3 apart."""
    v = v & _U(0x1FFFFF)
    v = (v | (v << _U(32))) & _U(0x001F00000000FFFF)
    v = (v | (v << _U(16))) & _U(0x001F0000FF0000FF)
    v = (v | (v << _U(8))) & _U(0x100F00F00F00F00F)
    v = (v | (v << _U(4))) & _U(0x10C30C30C30C30C3)
    v = (v | (v << _U(2))) & _U(0x1249249249249249)
    return v


def morton_encode(points: np.ndarray, bits: Optional[int] = None) -> np.ndarray:
    """Vectorized Morton codes for an ``(n, 2)`` or ``(n, 3)`` point array.

    Returns a uint64 code per point.  ``bits`` defaults to the maximum
    resolution for the dimension (31 for 2D, 21 for 3D).
    """
    points = np.asarray(points)
    if points.ndim != 2:
        raise InvalidInputError(f"expected (n, d) points, got {points.shape}")
    d = points.shape[1]
    if d == 2:
        max_bits = MAX_BITS_2D
    elif d == 3:
        max_bits = MAX_BITS_3D
    else:
        raise DimensionError(f"Morton codes support d in (2, 3), got d={d}")
    if bits is None:
        bits = max_bits
    if not 1 <= bits <= max_bits:
        raise InvalidInputError(f"bits must be in [1, {max_bits}] for d={d}")
    grid = normalize_to_grid(points, bits)
    if d == 2:
        return (_expand_bits_2d(grid[:, 0])
                | (_expand_bits_2d(grid[:, 1]) << _U(1)))
    return (_expand_bits_3d(grid[:, 0])
            | (_expand_bits_3d(grid[:, 1]) << _U(1))
            | (_expand_bits_3d(grid[:, 2]) << _U(2)))


def morton_encode_scalar(coords: Tuple[int, ...], bits: int) -> int:
    """Reference bit-by-bit Morton encoder for a single grid coordinate.

    Interleaves with dimension 0 in the least significant position,
    matching :func:`morton_encode`.
    """
    d = len(coords)
    if d not in (2, 3):
        raise DimensionError(f"Morton codes support d in (2, 3), got d={d}")
    code = 0
    for bit in range(bits):
        for axis in range(d):
            if (coords[axis] >> bit) & 1:
                code |= 1 << (bit * d + axis)
    return code


def morton_encode_high(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Double-resolution Morton codes as ``(hi, lo)`` uint64 pairs.

    The paper attributes its GeoLife pathology to Z-curve under-resolution
    and proposes 128-bit Morton codes (Section 4.1).  This implements that
    fix: each dimension gets twice the bits (62 for 2D, 42 for 3D).  The
    *coarse* halves of the grid coordinates interleave into ``hi`` and the
    *fine* halves into ``lo``; comparing ``(hi, lo)`` lexicographically is
    then exactly the order of the conceptual double-width interleaved code,
    because all coarse bits of every dimension outrank all fine bits.
    """
    points = np.asarray(points)
    if points.ndim != 2:
        raise InvalidInputError(f"expected (n, d) points, got {points.shape}")
    d = points.shape[1]
    if d == 2:
        bits = 2 * MAX_BITS_2D  # 62 bits/dim
        half = MAX_BITS_2D
        expand = _expand_bits_2d
    elif d == 3:
        bits = 2 * MAX_BITS_3D  # 42 bits/dim
        half = MAX_BITS_3D
        expand = _expand_bits_3d
    else:
        raise DimensionError(f"Morton codes support d in (2, 3), got d={d}")
    grid = normalize_to_grid(points, bits)
    coarse = grid >> _U(half)
    fine = grid & _U((1 << half) - 1)

    def interleave(g: np.ndarray) -> np.ndarray:
        code = expand(g[:, 0])
        code = code | (expand(g[:, 1]) << _U(1))
        if d == 3:
            code = code | (expand(g[:, 2]) << _U(2))
        return code

    return interleave(coarse), interleave(fine)


def bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Exact bit length of each uint64 (0 for 0), vectorized.

    Splits into 32-bit halves and uses ``frexp``; every uint32 is exactly
    representable in float64, so the exponent returned by ``frexp`` equals
    the bit length exactly (no log2 rounding hazards).
    """
    x = np.asarray(x, dtype=np.uint64)
    hi = (x >> _U(32)).astype(np.float64)
    lo = (x & _U(0xFFFFFFFF)).astype(np.float64)
    _, hi_exp = np.frexp(hi)
    _, lo_exp = np.frexp(lo)
    return np.where(hi > 0, hi_exp + 32, lo_exp).astype(np.int64)


def common_prefix_length_high(hi: np.ndarray, lo: np.ndarray,
                              i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Karras delta for double-width ``(hi, lo)`` codes (range [0, 128]).

    Falls through to the index tie-break (conceptually appending the index)
    when both words agree; out-of-range ``j`` yields -1.
    """
    hi = np.asarray(hi, dtype=np.uint64)
    lo = np.asarray(lo, dtype=np.uint64)
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    n = hi.shape[0]
    valid = (j >= 0) & (j < n)
    j_safe = np.where(valid, j, 0)
    xor_hi = hi[i] ^ hi[j_safe]
    xor_lo = lo[i] ^ lo[j_safe]
    delta = np.where(xor_hi != 0,
                     64 - bit_length_u64(xor_hi),
                     128 - bit_length_u64(xor_lo))
    idx_xor = (i.astype(np.uint64)) ^ (j_safe.astype(np.uint64))
    tie = 128 + (64 - bit_length_u64(idx_xor))
    delta = np.where((xor_hi == 0) & (xor_lo == 0), tie, delta)
    return np.where(valid, delta, -1)


def common_prefix_length(codes: np.ndarray, i: np.ndarray,
                         j: np.ndarray) -> np.ndarray:
    """Karras' delta: common-prefix length of codes at ``i`` and ``j``.

    When two codes are equal, the comparison falls through to the *indices*
    (conceptually appending the 64-bit index to the code), guaranteeing
    strictly decreasing deltas away from every node and a well-formed
    hierarchy even with duplicate points.  Out-of-range ``j`` yields -1.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    n = codes.shape[0]
    valid = (j >= 0) & (j < n)
    j_safe = np.where(valid, j, 0)
    xor = codes[i] ^ codes[j_safe]
    delta = 64 - bit_length_u64(xor)
    idx_xor = (i.astype(np.uint64)) ^ (j_safe.astype(np.uint64))
    tie = 64 - bit_length_u64(idx_xor)
    delta = np.where(xor == 0, 64 + tie, delta)
    return np.where(valid, delta, -1)
