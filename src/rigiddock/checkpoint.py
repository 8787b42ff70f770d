"""Named-tensor checkpoint file: one JSON header line, then raw f64 payload.

Layout: a single UTF-8 JSON object terminated by a newline, followed by the
concatenated little-endian float64 tensor payloads. The header carries
``format_version``, parallel ``names`` / ``shapes`` / ``offsets`` lists
(offsets in bytes from the start of the payload), and an optional ``extra``
object for small JSON metadata such as the model configuration.

Round trips are bit-exact: the payload bytes are the tensors' C-order bytes.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

from .atomic import atomic_open

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """File does not conform to the checkpoint layout."""


def save_named_tensors(path: str, tensors: dict[str, np.ndarray], extra: dict | None = None) -> None:
    """Write ``tensors`` to ``path`` atomically (temp file + rename)."""
    names = list(tensors.keys())
    arrays = []
    shapes = []
    offsets = []
    pos = 0
    for name in names:
        arr = np.asarray(tensors[name], dtype=np.float64, order="C")
        arrays.append(arr)
        shapes.append(list(arr.shape))
        offsets.append(pos)
        pos += arr.nbytes
    header = {
        "format_version": FORMAT_VERSION,
        "names": names,
        "shapes": shapes,
        "offsets": offsets,
    }
    if extra is not None:
        header["extra"] = extra
    blob = json.dumps(header).encode("utf-8") + b"\n"

    with atomic_open(path, "wb") as fh:
        fh.write(blob)
        for arr in arrays:
            fh.write(arr.astype("<f8", copy=False).tobytes())


def load_named_tensors(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns (tensors, extra).

    Raises CheckpointError for a malformed file or a tensor holding NaN/Inf.
    Names must be distinct strings, and each tensor's element count is checked
    against the payload before numpy reads any of it.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"{path}: malformed header: {e}") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        version = header.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:  # true and 1.0 are not 1
            raise CheckpointError(f"{path}: unsupported format_version {version!r}")
        payload = fh.read()

    lists = [header.get(key) for key in ("names", "shapes", "offsets")]
    if not all(isinstance(value, list) for value in lists):
        raise CheckpointError(f"{path}: header needs names, shapes and offsets lists")
    names, shapes, offsets = lists
    if not (len(names) == len(shapes) == len(offsets)):
        raise CheckpointError(f"{path}: header lists have mismatched lengths")
    if not all(isinstance(name, str) for name in names):
        raise CheckpointError(f"{path}: tensor names must be strings")
    twice = [name for name, count in Counter(names).items() if count > 1]
    if twice:
        raise CheckpointError(f"{path}: tensor {twice[0]!r} is named more than once")
    tensors: dict[str, np.ndarray] = {}
    for name, shape, off in zip(names, shapes, offsets):
        if not (isinstance(shape, list) and all(_is_count(d) for d in shape) and _is_count(off)):
            raise CheckpointError(f"{path}: tensor {name!r} has a malformed shape or offset")
        # Python ints, so a huge shape cannot wrap before it meets the payload length
        count = math.prod(shape)
        if off + 8 * count > len(payload):
            raise CheckpointError(f"{path}: tensor {name!r} extends past payload end")
        flat = np.frombuffer(payload, dtype="<f8", count=count, offset=off)
        if not np.all(np.isfinite(flat)):
            raise CheckpointError(f"{path}: tensor {name!r} has non-finite entries")
        try:  # a zero-size shape can still hold a dimension or a rank numpy refuses
            tensors[name] = flat.reshape(shape).astype(np.float64)
        except ValueError as exc:
            raise CheckpointError(f"{path}: tensor {name!r} has a shape numpy cannot hold: "
                                  f"{exc}") from None
    return tensors, header.get("extra", {})


def _is_count(value) -> bool:
    """A non-negative JSON integer (booleans excluded)."""
    return type(value) is int and value >= 0
