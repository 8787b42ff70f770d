"""The memory budget of every tiled loop in the package, and the one runner of forward tiles.

Pair arrays (n1 x n2 distances and logits) and edge arrays (rows x n * k)
are formed a tile of rows at a time, each tile holding at most
``TILE_ENTRIES`` float64 entries (2**16, 512 KB), so their memory grows
with the tiles in flight, at most two, not with the whole array. The row
blocks of pair distances in ``graphs``, ``autodiff.cross_attention``,
``autodiff.soft_min`` with ``autodiff.surface_penetration``, and the node
blocks of ``autodiff.message_pass`` all size their tiles here, and read
the budget when they run.

Forward loops whose tiles write disjoint outputs go through ``run``: the
calling thread runs the first half of the tiles and one pool thread the
second, so at most ``WORKERS`` (two) tiles are in flight, each worker with
its own scratch buffers. The tiles are whole tiles of ``tile_rows``
whatever the worker count, so every result bit is the serial one (a
message pass rounds by its block width). The two workers expect BLAS on
one thread each: the ``rigiddock`` command holds it so while it runs, and
a library caller running a multi-threaded BLAS gets both sets of threads
competing for the cores. Backward loops sum over tiles and stay serial.
"""

from __future__ import annotations

import contextvars
import os
import threading

TILE_ENTRIES = 2**16
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
WORKERS = min(2, _CPUS or 1)  # tiles in flight at most

_pool = None  # the ThreadPoolExecutor of the one pool thread
_pool_lock = threading.Lock()
_in_worker = threading.local()


def tile_rows(width: int) -> int:
    """Rows of ``width`` entries per tile: as many as the budget holds, at least one."""
    return max(1, TILE_ENTRIES // max(width, 1))


def spans(n: int, rows: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` tiles of ``rows`` rows covering ``range(n)`` in order; the last may be short."""
    return [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def run(fn, tile_spans: list[tuple[int, int]], scratch=tuple) -> None:
    """Call ``fn(lo, hi, *scratch())`` for every ``(lo, hi)`` in ``tile_spans``.

    ``scratch()`` is called once per worker, so no buffer it returns is
    shared between threads. Each call must write only outputs that no other
    tile writes. One tile, one worker and a call from a pool thread run the
    tiles in order on the calling thread. Otherwise the caller runs the
    first half while the pool runs the second, in a copy of the caller's
    context, so both halves see the same numpy error state. An error in
    either half is raised here once both halves have stopped; the caller's
    own error wins when both fail.
    """
    if len(tile_spans) < 2:
        for lo, hi in tile_spans:
            fn(lo, hi, *scratch())
        return
    pool = _pool_for_call()
    if pool is None:
        _run_in_order(fn, tile_spans, scratch)
        return
    half = (len(tile_spans) + 1) // 2
    second = pool.submit(contextvars.copy_context().run,
                         _run_in_order, fn, tile_spans[half:], scratch)
    try:
        _run_in_order(fn, tile_spans[:half], scratch)
    except BaseException:
        second.exception()  # wait for the second half to stop, dropping its own error
        raise
    second.result()


def _run_in_order(fn, tile_spans, scratch) -> None:
    bufs = scratch()
    for lo, hi in tile_spans:
        fn(lo, hi, *bufs)


def _pool_for_call():
    """The one pool thread's executor, created at first use; None when tiles run inline."""
    global _pool
    if WORKERS < 2 or getattr(_in_worker, "active", False):
        return None
    with _pool_lock:
        if _pool is None:
            # imported here, so a process that never starts the pool does
            # not pay the module's 0.6 MB of resident memory
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="rigiddock-tiles",
                                       initializer=_mark_worker)
        return _pool


def _mark_worker() -> None:
    _in_worker.active = True


def _forget_pool() -> None:
    """In a forked child: the parent's pool thread does not exist here, so start afresh."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
