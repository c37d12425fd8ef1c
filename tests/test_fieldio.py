import json

import numpy as np
import pytest

from fastpoisson.cli import main
from fastpoisson.fieldio import FieldFormatError, read_field, write_field
from fastpoisson.grid import BoundaryCondition as BC, GridKind as GK, GridSpec


def grids_for(shape):
    return tuple(GridSpec(n, 1.0, BC.DIRICHLET, GK.STAGGERED) for n in shape)


def test_round_trip(tmp_path, rng):
    data = rng.standard_normal((5, 7, 3))
    header = write_field(tmp_path / "f", data, grids_for(data.shape))
    back, grids = read_field(header)
    np.testing.assert_array_equal(back, data)
    assert tuple(g.n for g in grids) == (5, 7, 3)
    assert grids[0].bc is BC.DIRICHLET and grids[0].kind is GK.STAGGERED


def test_round_trip_single_precision(tmp_path, rng):
    data = rng.standard_normal((4, 4)).astype(np.float32)
    back, _ = read_field(write_field(tmp_path / "f32", data))
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, data)


def test_payload_is_raw_little_endian(tmp_path):
    data = np.array([1.0, 2.0, -3.5])
    write_field(tmp_path / "raw", data)
    raw = (tmp_path / "raw.bin").read_bytes()
    np.testing.assert_array_equal(np.frombuffer(raw, "<f8"), data)


def test_header_is_strict_json(tmp_path):
    write_field(tmp_path / "h", np.zeros((2, 2)), grids_for((2, 2)))
    header = json.loads((tmp_path / "h.json").read_text())
    assert header["extents"] == [2, 2]
    assert header["byte_order"] == "little"
    assert header["precision"] == "double"
    assert header["format_version"] == 1


def test_truncated_payload_rejected(tmp_path):
    write_field(tmp_path / "t", np.zeros(8))
    payload = tmp_path / "t.bin"
    payload.write_bytes(payload.read_bytes()[:-8])
    with pytest.raises(FieldFormatError):
        read_field(tmp_path / "t.json")


def test_bad_version_rejected(tmp_path):
    header_path = write_field(tmp_path / "v", np.zeros(4))
    header = json.loads(header_path.read_text())
    header["format_version"] = 99
    header_path.write_text(json.dumps(header))
    with pytest.raises(FieldFormatError):
        read_field(header_path)


def test_missing_key_rejected(tmp_path):
    header_path = write_field(tmp_path / "m", np.zeros(4))
    header = json.loads(header_path.read_text())
    del header["extents"]
    header_path.write_text(json.dumps(header))
    with pytest.raises(FieldFormatError):
        read_field(header_path)


def test_invalid_json_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FieldFormatError):
        read_field(bad)


def test_grid_extent_mismatch_rejected(tmp_path):
    header_path = write_field(tmp_path / "g", np.zeros(4), grids_for((4,)))
    header = json.loads(header_path.read_text())
    header["grids"][0]["n"] = 5
    header_path.write_text(json.dumps(header))
    with pytest.raises(FieldFormatError):
        read_field(header_path)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(FieldFormatError):
        write_field(tmp_path / "i", np.zeros(4, dtype=np.int64))


# each bad header still matches the 16-value payload's size, so only the new
# checks can reject it
@pytest.mark.parametrize("update", [
    {"payload": "{outside}"},
    {"payload": "../outside.bin"},
    {"payload": "inner/../../outside.bin"},
    {"extents": [-4, -4], "dims": 2},
    {"extents": "44", "dims": 2},
    {"extents": [16.0]},
    {"grids": [1]},
    {"grids": "x"},
    {"extents": [2**62 + 4, 4], "dims": 2},  # the product wraps to 16 in int64
    {"precision": ["double"]},
    {"payload": "f\u0000.bin"},
    {"grids": [{"n": float("inf"), "length": 1.0, "bc": "periodic", "kind": "regular"}]},
    # values that int() or float() would turn into a valid grid, or that
    # compare equal to the extents' rank
    {"grids": [{"n": 16.7, "length": 1.0, "bc": "periodic", "kind": "regular"}]},
    {"grids": [{"n": "16", "length": 1.0, "bc": "periodic", "kind": "regular"}]},
    {"grids": [{"n": 16, "length": "2.5", "bc": "periodic", "kind": "regular"}]},
    {"grids": [{"n": 16, "length": True, "bc": "periodic", "kind": "regular"}]},
    {"dims": 1.0},
    {"dims": True},
], ids=["absolute-payload", "parent-payload", "nested-parent-payload", "negative-extents",
        "string-extents", "float-extent", "grid-entry-not-object", "grids-not-list",
        "extents-overflow", "precision-not-string", "nul-in-payload", "grid-n-infinite",
        "grid-n-float", "grid-n-string", "grid-length-string", "grid-length-bool",
        "dims-float", "dims-bool"])
def test_unsafe_or_malformed_header_rejected(update, tmp_path):
    outside = tmp_path / "outside.bin"
    outside.write_bytes(np.zeros(16).tobytes())
    header_path = write_field(tmp_path / "sub" / "f", np.zeros(16))
    header = json.loads(header_path.read_text())
    header.update({k: v.format(outside=outside) if isinstance(v, str) else v
                   for k, v in update.items()})
    header_path.write_text(json.dumps(header))
    with pytest.raises(FieldFormatError):
        read_field(header_path)
    # the CLI maps it to the documented I/O and format exit code
    assert main(["solve", "--in", str(header_path), "--out", str(tmp_path / "run")]) == 3


@pytest.mark.parametrize("text", [
    "5",
    json.dumps(["format_version", "dims", "extents", "precision", "byte_order", "payload"]),
], ids=["header-not-object-number", "header-not-object-key-list"])
def test_header_not_object_rejected(text, tmp_path):
    header_path = write_field(tmp_path / "f", np.zeros(16))
    header_path.write_text(text)
    with pytest.raises(FieldFormatError):
        read_field(header_path)
    assert main(["solve", "--in", str(header_path), "--out", str(tmp_path / "run")]) == 3
