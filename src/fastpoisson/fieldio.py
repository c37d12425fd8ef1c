"""Field files: a JSON header plus a raw little-endian payload.

The header (``<name>.json``) carries everything needed to interpret the
payload: format version, dimensionality, extents, the grid specs, precision
and byte order.  The payload (``<name>.bin``) is the raw scalars in C order
(last axis contiguous), little-endian, no framing.  Any language can read it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .grid import BoundaryCondition, GridKind, GridSpec

FORMAT_VERSION = 1

_PRECISION_TO_DTYPE = {"double": "<f8", "single": "<f4"}
_DTYPE_TO_PRECISION = {np.dtype(np.float64): "double", np.dtype(np.float32): "single"}


class FieldFormatError(ValueError):
    """Raised when a field file is malformed or has an unsupported version."""


def grid_to_dict(spec: GridSpec) -> dict:
    return {
        "n": spec.n,
        "length": spec.length,
        "bc": spec.bc.value,
        "kind": spec.kind.value,
    }


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def grid_from_dict(d: dict) -> GridSpec:
    try:
        n, length = d["n"], d["length"]
        if not (_is_int(n) and (_is_int(length) or isinstance(length, float))):
            raise TypeError("n must be an integer and length a number")
        return GridSpec(n, float(length), BoundaryCondition(d["bc"]), GridKind(d["kind"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FieldFormatError(f"bad grid entry {d!r}: {exc}") from exc


def write_field(basepath, array, grids=None) -> Path:
    """Write ``<basepath>.json`` + ``<basepath>.bin``; returns the header path."""
    base = Path(basepath)
    array = np.asarray(array)
    precision = _DTYPE_TO_PRECISION.get(array.dtype)
    if precision is None:
        raise FieldFormatError(f"unsupported dtype {array.dtype}; use float32/float64")
    header = {
        "format_version": FORMAT_VERSION,
        "dims": array.ndim,
        "extents": list(array.shape),
        "grids": None if grids is None else [grid_to_dict(g) for g in grids],
        "precision": precision,
        "byte_order": "little",
        "order": "C",
        "payload": base.with_suffix(".bin").name,
    }
    base.parent.mkdir(parents=True, exist_ok=True)
    with open(base.with_suffix(".json"), "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(base.with_suffix(".bin"), "wb") as fh:
        fh.write(np.ascontiguousarray(array, dtype=_PRECISION_TO_DTYPE[precision]).tobytes())
    return base.with_suffix(".json")


def read_field(header_path):
    """Read a field file; returns ``(array, grids_or_None)``."""
    header_path = Path(header_path)
    try:
        with open(header_path) as fh:
            header = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FieldFormatError(f"{header_path}: invalid JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise FieldFormatError(f"{header_path}: header must be a JSON object, got {header!r}")
    for key in ("format_version", "dims", "extents", "precision", "byte_order", "payload"):
        if key not in header:
            raise FieldFormatError(f"{header_path}: missing header key {key!r}")
    if header["format_version"] != FORMAT_VERSION:
        raise FieldFormatError(
            f"{header_path}: unsupported format version {header['format_version']}"
        )
    if header["byte_order"] != "little":
        raise FieldFormatError(f"{header_path}: unsupported byte order {header['byte_order']!r}")
    if header.get("order", "C") != "C":
        raise FieldFormatError(f"{header_path}: unsupported storage order {header['order']!r}")
    precision = header["precision"]
    dtype = _PRECISION_TO_DTYPE.get(precision) if isinstance(precision, str) else None
    if dtype is None:
        raise FieldFormatError(f"{header_path}: unsupported precision {precision!r}")
    extents = header["extents"]
    if not isinstance(extents, list) or not all(_is_int(e) and e >= 0 for e in extents):
        raise FieldFormatError(
            f"{header_path}: extents must be a list of non-negative integers, got {extents!r}"
        )
    extents = tuple(extents)
    if not _is_int(header["dims"]) or len(extents) != header["dims"]:
        raise FieldFormatError(f"{header_path}: dims {header['dims']} != extents rank {len(extents)}")
    payload_path = _payload_path(header_path, header["payload"])
    raw = payload_path.read_bytes()
    # math.prod, as np.prod would wrap around in int64 for huge extents
    expected = math.prod(extents) * np.dtype(dtype).itemsize
    if len(raw) != expected:
        raise FieldFormatError(
            f"{payload_path}: payload is {len(raw)} bytes, expected {expected} for extents {extents}"
        )
    array = np.frombuffer(raw, dtype=dtype).reshape(extents)
    array = array.astype(array.dtype.newbyteorder("="))
    grids = header.get("grids")
    if grids is not None:
        if not isinstance(grids, list):
            raise FieldFormatError(f"{header_path}: grids must be a list, got {grids!r}")
        grids = tuple(grid_from_dict(g) for g in grids)
        if tuple(g.n for g in grids) != extents:
            raise FieldFormatError(
                f"{header_path}: grid point counts {tuple(g.n for g in grids)} != extents {extents}"
            )
    return array, grids


def _payload_path(header_path: Path, payload) -> Path:
    """The payload file, which must lie in the header's own directory tree."""
    # a NUL byte ends a path at the OS level, so no file name holds one
    if not isinstance(payload, str) or "\0" in payload or Path(payload).is_absolute():
        raise FieldFormatError(f"{header_path}: payload must be a relative path, got {payload!r}")
    base = header_path.parent.resolve()
    path = (base / payload).resolve()
    if not path.is_relative_to(base):
        raise FieldFormatError(
            f"{header_path}: payload {payload!r} lies outside the header's directory"
        )
    return path
