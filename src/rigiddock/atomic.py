"""Atomic file writes: a file either keeps its old contents or gets all new ones."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager


@contextmanager
def atomic_open(path: str, mode: str):
    """Open a temporary sibling of ``path`` for writing ("w" or "wb").

    A clean exit renames the temporary file onto ``path``; any exception,
    in the block or in the rename, deletes it instead. The file gets the
    permissions ``open`` would give a new file. Text mode writes newlines
    untranslated, as the csv module expects.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, mode, newline=None if "b" in mode else "") as fh:
            # The temp file starts as 0600; the umask can only be read by
            # setting it, so it is put back at once.
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
