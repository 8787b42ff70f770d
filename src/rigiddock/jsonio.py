"""The one JSON reading rule, shared by the package's four JSON inputs.

The checkpoint header, a ``train --config`` file, ``splits.json`` and
``complex.json`` each read through ``parse_json``. A reader gets the value,
or its own error class with a message that starts with the file's name:
never a traceback from ``json`` itself.
"""

from __future__ import annotations

import json


def parse_json(data: bytes, where: str, error: type[Exception],
               decode_error: type[Exception] | None = None):
    """The JSON value of ``data``, UTF-8 bytes read from ``where``.

    A byte that does not decode raises ``decode_error``, which defaults to
    ``error``. Malformed JSON raises ``error``, and so does nesting deeper
    than the parser's recursion limit: RFC 8259 section 9 lets a parser
    limit the depth, and ``json`` meets its limit as a ``RecursionError``.
    Each message starts with ``where``.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise (decode_error or error)(f"{where}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: {exc}") from None
    except RecursionError:
        raise error(f"{where}: JSON nested too deeply") from None


def read_json(path: str, error: type[Exception], decode_error: type[Exception] | None = None):
    """``parse_json`` of the whole file at ``path``, named by its path."""
    with open(path, "rb") as fh:
        return parse_json(fh.read(), path, error, decode_error)
