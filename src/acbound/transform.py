"""8x8 DCT as a 64-dimensional orthogonal map, and zigzag order.

The forward transform of a level-shifted pixel block always lands inside
the ball of radius 2**10 around the origin, and its AC energy is strictly
below 2**20.  The DCT output does not feed the bound engine: the
transform serves the encoding pipeline and the verification harnesses.
"""

from __future__ import annotations

import numpy as np

from .entropy_model import ParameterError

BLOCK_SIZE = 8
PIXEL_MIN = -128
PIXEL_MAX = 127

# K[x, u] = 0.5 * C(u) * cos((2x + 1) u pi / 16), C(0) = 1/sqrt(2), else 1.
_x = np.arange(BLOCK_SIZE).reshape(-1, 1)
_u = np.arange(BLOCK_SIZE).reshape(1, -1)
DCT_MATRIX = 0.5 * np.cos((2 * _x + 1) * _u * np.pi / 16)
DCT_MATRIX[:, 0] /= np.sqrt(2.0)
DCT_MATRIX.setflags(write=False)

# ZIGZAG_OF_RASTER[row * 8 + col] = zigzag index of that raster cell.
ZIGZAG_OF_RASTER = (
    0, 1, 5, 6, 14, 15, 27, 28,
    2, 4, 7, 13, 16, 26, 29, 42,
    3, 8, 12, 17, 25, 30, 41, 43,
    9, 11, 18, 24, 31, 40, 44, 53,
    10, 19, 23, 32, 39, 45, 52, 54,
    20, 22, 33, 38, 46, 51, 55, 60,
    21, 34, 37, 47, 50, 56, 59, 61,
    35, 36, 48, 49, 57, 58, 62, 63,
)

# RASTER_OF_ZIGZAG[k] = flat raster index visited at zigzag step k.
RASTER_OF_ZIGZAG = tuple(
    raster for raster, _ in sorted(enumerate(ZIGZAG_OF_RASTER), key=lambda t: t[1])
)


def validate_pixel_block(block) -> np.ndarray:
    """Check an 8x8 grid of level-shifted pixels and return it as int array."""
    arr = np.asarray(block)
    if arr.shape != (BLOCK_SIZE, BLOCK_SIZE):
        raise ParameterError(f"pixel block must be 8x8, got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ParameterError("pixel block must hold integers")
    if arr.min() < PIXEL_MIN or arr.max() > PIXEL_MAX:
        raise ParameterError(f"pixel values outside [{PIXEL_MIN}, {PIXEL_MAX}]")
    return arr.astype(np.int64)


def level_shift(raw) -> np.ndarray:
    """Shift raw 8-bit samples (0..255) to the signed range used here."""
    arr = np.asarray(raw)
    if arr.min() < 0 or arr.max() > 255:
        raise ParameterError("raw samples outside 0..255")
    return arr.astype(np.int64) - 128


def forward_dct(block) -> np.ndarray:
    """F = K^T f K in double precision."""
    f = validate_pixel_block(block).astype(np.float64)
    return DCT_MATRIX.T @ f @ DCT_MATRIX


def inverse_dct(coeffs) -> np.ndarray:
    """f = K F K^T; round-trips forward_dct to 1e-9 per entry."""
    F = np.asarray(coeffs, dtype=np.float64)
    if F.shape != (BLOCK_SIZE, BLOCK_SIZE):
        raise ParameterError(f"coefficient grid must be 8x8, got {F.shape}")
    return DCT_MATRIX @ F @ DCT_MATRIX.T


def zigzag_scan(grid) -> np.ndarray:
    """Flatten an 8x8 grid into the 64-entry zigzag sequence."""
    flat = np.asarray(grid).reshape(64)
    return flat[list(RASTER_OF_ZIGZAG)]
