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
from rigiddock import cli
from rigiddock.model import DockingModel, ModelConfig


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


@pytest.mark.parametrize("version, shown", [(b"true", "True"), (b"1.0", "1.0")])
def test_version_that_only_equals_1_is_rejected(tmp_path, version, shown):
    # True == 1 and 1.0 == 1 in Python; the header must hold the integer 1
    path = tmp_path / "m.ckpt"
    ckpt.save_named_tensors(str(path), {"x": np.ones(4)})
    head, payload = path.read_bytes().split(b"\n", 1)
    head = head.replace(b'"format_version": 1', b'"format_version": ' + version)
    path.write_bytes(head + b"\n" + payload)
    with pytest.raises(ckpt.CheckpointError, match=f"unsupported format_version {shown}$"):
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


# --- every header a mutation can make loads or raises CheckpointError ----------

def _valid_checkpoint():
    """The header and payload of a small model checkpoint that ``cli._load_model`` accepts."""
    model = DockingModel(ModelConfig(hidden_dim=2, layers=1, heads=3, neighbors=2), seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        ckpt.save_named_tensors(path, model.state_arrays(),
                                extra={"config": model.config.to_dict()})
        with open(path, "rb") as fh:
            head, payload = fh.read().split(b"\n", 1)
    return json.loads(head), payload


_HEADER, _PAYLOAD = _valid_checkpoint()
_HUGE = [2**31, 2**32, 2**53, 2**63 - 1, 2**63, 2**64, 2**70]
_ODD = [None, True, False, 1.0, -0.0, "2", [2], {"a": 1}]  # wrong types, bool and float
_JUNK = st.one_of(st.sampled_from(_ODD + [-3, -1, 0, 1, 3] + _HUGE), st.integers(), st.floats(),
                  st.text(max_size=4), st.dictionaries(st.text(max_size=3), st.integers(-1, 4),
                                                       max_size=2))
_SHAPES = st.one_of(
    st.sampled_from([[0, 2**70], [2**70, 0], [0, 2**63], [2**62, 2**62, 0], [2**32, 2**32],
                     [0] * 65, [1] * 65, [0] * 70, [1] * 70, [1] * 64, [], [0]] + _ODD),
    st.lists(st.one_of(st.integers(0, 4), st.sampled_from([-1] + _ODD + _HUGE)), max_size=5))
_ELEMENTS = {
    "names": st.one_of(st.sampled_from(_HEADER["names"]), st.text(max_size=4),
                       st.sampled_from(_ODD)),
    "shapes": _SHAPES,
    "offsets": st.one_of(st.integers(-8, len(_PAYLOAD) + 8), st.sampled_from(_ODD + _HUGE))}
_KEYS = ["names", "shapes", "offsets", "format_version", "extra"]
_HEADER_MUTATION = st.one_of(
    # one field of one tensor
    *(st.tuples(st.just("set"), st.just(key), st.integers(0, 200), element)
      for key, element in _ELEMENTS.items()),
    # a whole tensor copied, deleted or added, or one list longer than the others
    st.tuples(st.sampled_from(["duplicate", "delete"]), st.integers(0, 200)),
    st.tuples(st.just("append"), *_ELEMENTS.values()),
    st.tuples(st.just("mismatch"), st.sampled_from(list(_ELEMENTS)), _JUNK),
    st.tuples(st.just("replace"), st.sampled_from(_KEYS), _JUNK),
    st.tuples(st.just("drop"), st.sampled_from(_KEYS)),
    st.tuples(st.just("config"), st.sampled_from(sorted(_HEADER["extra"]["config"])
                                                 + ["share_layers", "eta", "unknown"]), _JUNK),
    st.tuples(st.just("replace config"), _JUNK),
    st.tuples(st.just("truncate"), st.integers(0, len(_PAYLOAD))))


def _mutated_checkpoint(mutations):
    """The valid checkpoint's bytes after each mutation that still applies, in order."""
    header, payload = json.loads(json.dumps(_HEADER)), _PAYLOAD
    for kind, *args in mutations:
        lists = [header.get(key) for key in _ELEMENTS]
        parallel = all(isinstance(items, list) and items for items in lists) \
            and len({len(items) for items in lists}) == 1
        if kind == "set" and isinstance(header.get(args[0]), list) and header[args[0]]:
            items = header[args[0]]
            items[args[1] % len(items)] = args[2]
        elif kind == "duplicate" and parallel:
            for items in lists:
                items.insert(args[0] % len(items), items[args[0] % len(items)])
        elif kind == "delete" and parallel:
            for items in lists:
                del items[args[0] % len(items)]
        elif kind == "append" and parallel:
            for items, value in zip(lists, args):
                items.append(value)
        elif kind == "mismatch" and isinstance(header.get(args[0]), list):
            header[args[0]].append(args[1])
        elif kind == "replace":
            header[args[0]] = args[1]
        elif kind == "drop":
            header.pop(args[0], None)
        elif kind == "config" and isinstance(header.get("extra"), dict) \
                and isinstance(header["extra"].get("config"), dict):
            header["extra"]["config"][args[0]] = args[1]
        elif kind == "replace config" and isinstance(header.get("extra"), dict):
            header["extra"]["config"] = args[0]
        elif kind == "truncate":
            payload = payload[:args[0]]
    return json.dumps(header).encode() + b"\n" + payload


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_HEADER_MUTATION, min_size=1, max_size=3))
@example([("set", "shapes", 0, [0, 2**70])])  # zero elements in a dimension numpy refuses
@example([("set", "shapes", 0, [1] * 70)])  # more dimensions than numpy holds
def test_property_mutated_header_loads_or_is_a_checkpoint_error(mutations):
    """Wrong types, duplicates, huge, negative, bool, float and over-64-dimension values."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        with open(path, "wb") as fh:
            fh.write(_mutated_checkpoint(mutations))
        for load in (ckpt.load_named_tensors, cli._load_model):
            try:
                load(path)
            except ckpt.CheckpointError:
                pass
