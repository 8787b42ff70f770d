"""The memory budget of every tiled loop in the package, and the one runner of forward tiles and branches.

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
message pass rounds by its block width). One backward runs such a loop
too: a taped message pass over more than one node block forms its edge
arrays again in backward, block by block through ``run``, each block
writing its own columns. Backward loops that sum over tiles stay serial.

Work that splits by protein goes through ``branches``: the two halves of
a tape-free model layer, and the two graphs of a pair. The caller runs the
ligand's branch and the pool thread the receptor's, and every ``run``
inside a branch runs inline on that branch's thread. Branches run at once
only when the pair's work spans more than one tile, so toy-sized pairs
never start the pool; taped layers always run their halves in order on
the caller's thread. ``run`` halves and branches share ``_two_way``, the
one place that copies the caller's context to the pool thread, marks both
threads as inside a split and decides which error is raised.

The two workers expect BLAS on one thread each: the ``rigiddock`` command
holds it so while it runs, and a library caller running a multi-threaded
BLAS gets both sets of threads competing for the cores.
"""

from __future__ import annotations

import contextvars
import functools
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
    tile writes. One tile, one worker and a call from inside a split (the
    pool thread, or a caller running its share) run the tiles in order on
    the calling thread. Otherwise the caller runs the first half while the
    pool runs the second, as ``_two_way`` does.
    """
    pool = _pool_for_call() if len(tile_spans) > 1 else None
    if pool is None:
        _run_in_order(fn, tile_spans, scratch)
        return
    half = (len(tile_spans) + 1) // 2
    _two_way(pool, functools.partial(_run_in_order, fn, tile_spans[:half], scratch),
             functools.partial(_run_in_order, fn, tile_spans[half:], scratch))


def branches(first, second, work_spans: list[tuple[int, int]]) -> tuple:
    """``(first(), second())``: the two independent halves of a pair's work.

    A branch is one protein's share, for example its half of a layer or its
    graph. The branches run at once only when ``work_spans``, the tiles of
    the pair's work, number two or more, the test ``run`` applies to its own
    tiles: then the caller runs ``first`` and the pool thread ``second``,
    and every ``run`` inside either branch runs inline. Otherwise, and with
    one worker or inside a split, they run in order on the calling thread,
    whose ``run`` calls may still split their tiles. A branch must not
    record on a tape (tapes belong to one thread) and must write nothing
    the other branch reads.
    """
    pool = _pool_for_call() if len(work_spans) > 1 else None
    if pool is None:
        return first(), second()
    return _two_way(pool, first, second)


def _two_way(pool, first, second) -> tuple:
    """``(first(), second())`` with ``second`` on the pool thread and ``first`` here.

    ``second`` runs in a copy of the caller's context, so both sides see
    the same numpy error state. The caller is marked as inside a split
    while ``first`` runs (the pool thread always is), so nested ``run`` and
    ``branches`` calls run inline. An error on either side is raised once
    both sides have stopped; the caller's own error wins when both fail.
    """
    later = pool.submit(contextvars.copy_context().run, second)
    _in_worker.active = True
    try:
        done = first()
    except BaseException:
        later.exception()  # wait for the pool side to stop, dropping its own error
        raise
    finally:
        _in_worker.active = False
    return done, later.result()


def _run_in_order(fn, tile_spans, scratch) -> None:
    bufs = scratch()
    for lo, hi in tile_spans:
        fn(lo, hi, *bufs)


def _pool_for_call():
    """The one pool thread's executor, created at first use; None when work runs inline."""
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
