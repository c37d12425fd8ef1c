"""Cache-blocked line gather/scatter between a d-dimensional field and a 2D line buffer.

Mixed-boundary solves transform one axis at a time.  When the target axis is
not the contiguous one, the lines along it are strided in memory; this module
copies them into a contiguous ``(num_lines, n)`` buffer, where a vectorized 1D
transform can run, and copies the results back.  It is pure data movement
(no arithmetic) organized in tiles for cache friendliness, and is the seam
where a distributed exchange would slot in.

``gather`` followed by ``scatter`` is the identity, bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# edge of the square blocks the copies go through
_TILE = 64


@dataclass(frozen=True)
class ReorderPlan:
    """Extents of the source field and the axis whose lines are gathered."""

    extents: tuple
    axis: int

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(int(e) for e in self.extents))
        if not 1 <= len(self.extents) <= 3:
            raise ValueError(f"1 to 3 axes supported, got extents {self.extents}")
        axis = self.axis % len(self.extents)
        object.__setattr__(self, "axis", axis)

    @property
    def line_length(self) -> int:
        return self.extents[self.axis]

    @property
    def num_lines(self) -> int:
        return math.prod(self.extents) // self.line_length

    @property
    def buffer_shape(self) -> tuple:
        return (self.num_lines, self.line_length)


def make_buffer(plan: ReorderPlan, dtype=np.float64) -> np.ndarray:
    return np.empty(plan.buffer_shape, dtype=dtype)


def gather_lines(plan: ReorderPlan, field: np.ndarray, buffer: np.ndarray) -> None:
    """Copy every line of ``field`` along the plan axis into contiguous buffer rows.

    ``field`` may be an arbitrarily strided view; it is not modified.
    """
    src = _lines_view(plan, field)
    dst = _buffer_view(plan, buffer, src.shape)
    _tiled_copy(src, dst)


def scatter_lines(plan: ReorderPlan, buffer: np.ndarray, field: np.ndarray) -> None:
    """Inverse of :func:`gather_lines`: write buffer rows back into the field."""
    dst = _lines_view(plan, field)
    src = _buffer_view(plan, buffer, dst.shape)
    _tiled_copy(src, dst)


def _buffer_view(plan: ReorderPlan, buffer: np.ndarray, line_shape):
    if buffer.shape != plan.buffer_shape:
        raise ValueError(f"buffer shape {buffer.shape}, expected {plan.buffer_shape}")
    if not buffer.flags.c_contiguous:
        raise ValueError("line buffer must be C-contiguous")
    return buffer.reshape(line_shape)


def _lines_view(plan: ReorderPlan, field: np.ndarray):
    field = np.asarray(field)
    if field.shape != plan.extents:
        raise ValueError(f"field shape {field.shape} does not match plan extents {plan.extents}")
    return np.moveaxis(field, plan.axis, -1)


def _tiled_copy(src, dst):
    if src.shape != dst.shape:
        raise ValueError(f"buffer shape {dst.shape} does not match line layout {src.shape}")
    if src.ndim == 1:
        dst[...] = src
        return
    # tile the last two dimensions; iterate any outer dimension directly
    if src.ndim == 3:
        for i in range(src.shape[0]):
            _tiled_copy2d(src[i], dst[i])
    else:
        _tiled_copy2d(src, dst)


def _tiled_copy2d(src, dst):
    rows, cols = src.shape
    for r in range(0, rows, _TILE):
        for c in range(0, cols, _TILE):
            dst[r : r + _TILE, c : c + _TILE] = src[r : r + _TILE, c : c + _TILE]
