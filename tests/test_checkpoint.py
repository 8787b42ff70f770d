"""Named-tensor file format: bit-exact round trips and malformed input handling."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rigiddock import checkpoint as ckpt


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a.W": rng.standard_normal((4, 7)),
        "a.b": rng.standard_normal((4, 1)),
        "scalarish": np.array(3.5),
        "cube": rng.standard_normal((2, 3, 4)),
        "tiny": np.array([np.pi, -0.0, 1e-300]),
    }
    path = tmp_path / "model.ckpt"
    ckpt.save_named_tensors(str(path), tensors, extra={"layers": 2})
    loaded, extra = ckpt.load_named_tensors(str(path))
    assert extra == {"layers": 2}
    assert list(loaded.keys()) == list(tensors.keys())
    for name, arr in tensors.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


_TENSORS = st.dictionaries(
    st.text(max_size=6),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
               elements=st.floats(allow_nan=False, allow_infinity=False)),
    max_size=4)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_TENSORS)
@example({"scalar": np.array(-0.0), "empty": np.zeros((3, 0)), "signs": np.array([-0.0, 0.0]),
          "": np.full((2, 1), 5e-324)})
def test_property_round_trip_is_bit_exact(tensors):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.ckpt")
        ckpt.save_named_tensors(path, tensors)
        loaded, extra = ckpt.load_named_tensors(path)
    assert extra == {}
    assert list(loaded) == list(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == np.float64 and loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


def test_header_is_single_json_line(tmp_path):
    path = tmp_path / "m.ckpt"
    ckpt.save_named_tensors(str(path), {"x": np.ones((2, 2))})
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
    assert header["format_version"] == 1
    assert header["names"] == ["x"]
    assert header["shapes"] == [[2, 2]]
    assert header["offsets"] == [0]


def test_payload_is_little_endian_f64(tmp_path):
    path = tmp_path / "m.ckpt"
    ckpt.save_named_tensors(str(path), {"x": np.array([1.0, 2.0])})
    with open(path, "rb") as fh:
        fh.readline()
        payload = fh.read()
    np.testing.assert_array_equal(np.frombuffer(payload, dtype="<f8"), [1.0, 2.0])


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    ckpt.save_named_tensors(str(path), {"x": np.ones(8)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ckpt.CheckpointError, match="past payload end"):
        ckpt.load_named_tensors(str(path))


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b'{"format_version": 99, "names": [], "shapes": [], "offsets": []}\n')
    with pytest.raises(ckpt.CheckpointError, match="format_version"):
        ckpt.load_named_tensors(str(path))


def test_non_json_header_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"\x00\x01\x02 not a header\n")
    with pytest.raises(ckpt.CheckpointError, match="malformed header"):
        ckpt.load_named_tensors(str(path))


def test_overwrite_replaces_whole_file(tmp_path):
    path = tmp_path / "m.ckpt"
    ckpt.save_named_tensors(str(path), {"x": np.ones((100, 100))})
    ckpt.save_named_tensors(str(path), {"y": np.array([2.0])})
    loaded, _ = ckpt.load_named_tensors(str(path))
    assert list(loaded.keys()) == ["y"]
    assert loaded["y"][0] == 2.0


@pytest.mark.parametrize("header, message", [
    (b"[1]", "not a JSON object"),
    (b'"names"', "not a JSON object"),
    (b'{"format_version": 1}', "names, shapes and offsets"),
    (b'{"format_version": 1, "names": "x", "shapes": [[1]], "offsets": [0]}',
     "names, shapes and offsets"),
    (b'{"format_version": 1, "names": ["x"], "shapes": [["a"]], "offsets": [0]}',
     "malformed shape"),
    (b'{"format_version": 1, "names": ["x"], "shapes": [[-1]], "offsets": [0]}',
     "malformed shape"),
    (b'{"format_version": 1, "names": ["x"], "shapes": [[1]], "offsets": ["0"]}',
     "malformed shape"),
], ids=["array", "string", "no-lists", "names-not-list", "dim-not-int", "negative-dim",
        "offset-not-int"])
def test_malformed_header_fields_rejected(tmp_path, header, message):
    path = tmp_path / "m.ckpt"
    path.write_bytes(header + b"\n" + np.ones(4).tobytes())
    with pytest.raises(ckpt.CheckpointError, match=message):
        ckpt.load_named_tensors(str(path))


@pytest.mark.parametrize("header, message", [
    (b'{"format_version": 1, "names": [["x"]], "shapes": [[1]], "offsets": [0]}',
     "tensor names must be strings"),
    (b'{"format_version": 1, "names": ["x", "y", "x"], "shapes": [[1], [1], [2]], '
     b'"offsets": [0, 8, 16]}', "tensor 'x' is named more than once"),
    # 2**64 elements, which an int64 product wraps to 0
    (b'{"format_version": 1, "names": ["x"], "shapes": [[4294967296, 4294967296]], '
     b'"offsets": [0]}', "tensor 'x' extends past payload end"),
], ids=["name-not-a-string", "name-twice", "count-past-int64"])
def test_header_refused_before_the_payload_is_read(tmp_path, header, message):
    path = tmp_path / "m.ckpt"
    path.write_bytes(header + b"\n" + np.ones(4).tobytes())
    with pytest.raises(ckpt.CheckpointError, match=message):
        ckpt.load_named_tensors(str(path))
