"""Geometric primitives: distance kernels and Morton (Z-curve) codes.

Everything in this package is a vectorized NumPy kernel operating on arrays
of points/boxes; scalar reference implementations used by the test suite
live next to their vectorized counterparts.
"""

from repro.geometry.distance import (
    all_pairs_sq,
    gather_pair_sq,
    point_box_sq,
    points_sq,
)
from repro.geometry.morton import (
    MAX_BITS_2D,
    MAX_BITS_3D,
    bit_length_u64,
    common_prefix_length,
    morton_encode,
    morton_encode_scalar,
    normalize_to_grid,
)

__all__ = [
    "all_pairs_sq",
    "gather_pair_sq",
    "point_box_sq",
    "points_sq",
    "MAX_BITS_2D",
    "MAX_BITS_3D",
    "bit_length_u64",
    "common_prefix_length",
    "morton_encode",
    "morton_encode_scalar",
    "normalize_to_grid",
]
