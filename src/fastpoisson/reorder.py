"""Cache-blocked gather/scatter of the lines of a field along one axis.

Mixed-boundary solves transform one axis at a time.  When the target axis is
not the contiguous one, the lines along it are strided in memory;
:func:`gather_lines` copies the field into a C-contiguous array with that
axis moved last, where a vectorized 1D transform can run, and
:func:`scatter_lines` copies the result back.  It is pure data movement (no
arithmetic) in square tiles of the last two axes for cache friendliness.

``gather_lines`` followed by ``scatter_lines`` is the identity, bit-exact.
"""

from __future__ import annotations

import numpy as np

# edge of the square blocks the copies go through
_TILE = 64


def gather_lines(field: np.ndarray, axis: int) -> np.ndarray:
    """A fresh C-contiguous copy of ``field`` (two or more axes) with
    ``axis`` moved last.  ``field`` may be a strided view; it is not modified.
    """
    src = np.moveaxis(field, axis, -1)
    buffer = np.empty(src.shape, dtype=src.dtype)
    _tiled_copy(src, buffer)
    return buffer


def scatter_lines(buffer: np.ndarray, field: np.ndarray, axis: int) -> None:
    """Inverse of :func:`gather_lines`: write ``buffer`` back into ``field``."""
    _tiled_copy(buffer, np.moveaxis(field, axis, -1))


def _tiled_copy(src, dst):
    # tile the last two axes; iterate any outer axis directly
    rows, cols = src.shape[-2:]
    for outer in np.ndindex(src.shape[:-2]):
        s, d = src[outer], dst[outer]
        for r in range(0, rows, _TILE):
            for c in range(0, cols, _TILE):
                d[r : r + _TILE, c : c + _TILE] = s[r : r + _TILE, c : c + _TILE]
