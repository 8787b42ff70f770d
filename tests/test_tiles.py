"""The tile runner: parallel forward tiles and branches give the serial bits, and its edge cases.

Every loop that goes through ``tiles.run`` is run with one worker and with
two, at shapes with at least three
tiles and a one-row last tile. Outputs and gradients must be equal bit for
bit, since the tiles and their arithmetic do not depend on the worker count.
The same holds for ``tiles.branches``, which runs a pair's two proteins'
halves of a layer, or their graphs, at once.
"""

import contextlib
import multiprocessing
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from rigiddock import autodiff as ad
from rigiddock import graphs, tiles
from rigiddock.docking import predict_dock
from rigiddock.model import DockingModel, ModelConfig
from rigiddock.synthetic import generate_pair
from rigiddock.training import TrainConfig, evaluate, train

from conftest import random_residue_set
from test_autodiff import _grads_of_outputs, _message_pass_blocks_case

POOL_PREFIX = "rigiddock-tiles"


@contextlib.contextmanager
def tile_workers(count):
    """Tiled loops run with ``count`` workers; yields the set of threads that ran tiles."""
    threads = set()
    run_in_order = tiles._run_in_order

    def recording(*args):
        threads.add(threading.current_thread())
        return run_in_order(*args)

    with mock.patch.object(tiles, "WORKERS", count), \
            mock.patch.object(tiles, "_run_in_order", recording):
        yield threads


def pool_threads(threads):
    return {thread for thread in threads if thread.name.startswith(POOL_PREFIX)}


def serial_and_parallel(build, budget):
    """build()'s arrays with one worker and with two, under a tile budget of ``budget``."""
    results = []
    for count in (1, 2):
        with tile_workers(count) as threads, mock.patch.object(tiles, "TILE_ENTRIES", budget):
            results.append(build())
        assert bool(pool_threads(threads)) == (count == 2), threads
    return results


def assert_same_bits(serial, parallel):
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_spans_of_the_cases_below():
    """Width 10 at a budget of 30 gives 3-row tiles: 7 rows make 3, the last of one row."""
    with mock.patch.object(tiles, "TILE_ENTRIES", 30):
        assert tiles.spans(7, tiles.tile_rows(10)) == [(0, 3), (3, 6), (6, 7)]


def test_cross_attention_parallel_equals_serial():
    rng = np.random.default_rng(40)
    params = [ad.parameter(rng.standard_normal(s)) for s in ((4, 7), (4, 10), (3, 10))]

    def build():
        outs, grads = _grads_of_outputs(params, lambda: ad.cross_attention(*params), (True,))
        return outs + grads

    assert_same_bits(*serial_and_parallel(build, 30))


def test_soft_min_and_surface_penetration_parallel_equal_serial():
    rng = np.random.default_rng(41)
    x, y = 3.0 * rng.standard_normal((3, 7)), 3.0 * rng.standard_normal((3, 10))
    params = [ad.parameter(x), ad.parameter(y)]

    def build():
        outs, grads = _grads_of_outputs(
            params, lambda: ad.surface_penetration(*params, 10.0, 25.0), (True,))
        return list(ad.soft_min(x, y, 25.0)) + outs + grads

    assert_same_bits(*serial_and_parallel(build, 30))


@pytest.mark.parametrize("taped", [False, True])
def test_message_pass_parallel_equals_serial(taped):
    """Two-node blocks of the 9-node case: five blocks, the last of one node."""
    arrays, (edge_feats, neighbors), width = _message_pass_blocks_case()
    make = ad.parameter if taped else ad.constant
    params = [make(a) for a in arrays]
    args = (params[:4], params[4:8], *params[8:], edge_feats, neighbors, 0.1, 30.0, 0.25, 0.5)

    def build():
        if not taped:
            return [o.data for o in ad.message_pass(*args)]
        outs, grads = _grads_of_outputs(params, lambda: ad.message_pass(*args), (True, True))
        return outs + grads

    with mock.patch.object(tiles, "TILE_ENTRIES", 2 * width):
        assert len(tiles.spans(9, tiles.tile_rows(width))) == 5
    assert_same_bits(*serial_and_parallel(build, 2 * width))


def test_message_pass_two_workers_stay_below_one_edge_array():
    """Two tape-free blocks in flight at n = 3000 still fit the one-worker bound."""
    n, k, d, c, hid = 3000, 10, 32, 27, 32
    rng = np.random.default_rng(30)
    shapes = ((hid, 2 * d + 1 + c), (hid, 1), (hid, hid), (hid, 1),
              (hid, hid), (hid, 1), (1, hid), (1, 1))
    weights = [ad.constant(0.2 * rng.standard_normal(s)) for s in shapes]
    Z, H = ad.constant(20.0 * rng.standard_normal((3, n))), ad.constant(rng.standard_normal((d, n)))
    neighbors = (np.arange(n)[:, None] + np.arange(1, k + 1)) % n
    edge_feats = rng.standard_normal((c, n * k))
    with tile_workers(2) as threads:
        tiles.run(lambda lo, hi: None, tiles.spans(2, 1))  # start the pool thread untraced
        tracemalloc.start()
        try:
            m, z = ad.message_pass(weights[:4], weights[4:], Z, H, Z, edge_feats, neighbors,
                                   0.01, 30.0, 0.25, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert pool_threads(threads)
    assert m.shape == (hid, n) and z.shape == (3, n)
    assert peak < hid * n * k * 8, f"peak {peak / 2**20:.1f} MB"


def test_knn_edges_parallel_equals_serial():
    """Integer points, so many distances tie and the tie rule decides."""
    X = np.random.default_rng(42).integers(0, 3, size=(3, 7)).astype(np.float64)
    serial, parallel = serial_and_parallel(lambda: list(graphs.knn_edges(X, 3)), 3 * 7)
    assert_same_bits(serial, parallel)


def test_contact_pairs_parallel_equals_serial():
    rng = np.random.default_rng(43)
    X, Y = 4.0 * rng.standard_normal((3, 7)), 4.0 * rng.standard_normal((3, 10))
    serial, parallel = serial_and_parallel(lambda: list(graphs.contact_pairs(X, Y, 4.0)), 30)
    assert serial[0].size  # some pairs were found
    assert_same_bits(serial, parallel)


def test_concurrent_callers_share_one_pool_and_keep_their_bits():
    """Six caller threads race to start the pool and then share it, with a short switch interval.

    Each caller runs tile halves and, in ``build_graph_pair``, branches.
    """
    rng = np.random.default_rng(45)
    X, Y = 4.0 * rng.standard_normal((3, 7)), 4.0 * rng.standard_normal((3, 10))
    ligand, receptor = random_residue_set(rng, 7), random_residue_set(rng, 10)

    def build():
        graph_arrays = [a for g in graphs.build_graph_pair(ligand, receptor, 3)
                        for a in (g.neighbors, g.edge_feats, g.rho)]
        return list(graphs.contact_pairs(X, Y, 4.0)) + list(graphs.knn_edges(Y, 3)) + graph_arrays

    with mock.patch.object(tiles, "TILE_ENTRIES", 30):
        expected = build()
    failures = []

    def caller():
        try:
            for _ in range(30):
                assert_same_bits(expected, build())
        except BaseException as exc:  # reported by the main thread below
            failures.append(exc)

    interval = sys.getswitchinterval()
    with tile_workers(2) as threads, mock.patch.object(tiles, "TILE_ENTRIES", 30), \
            mock.patch.object(tiles, "_pool", None):
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, daemon=True) for _ in range(6)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        pool = tiles._pool
    pool.shutdown()
    assert not failures, failures[0]
    assert len(pool_threads(threads)) == 1


# --- the runner itself --------------------------------------------------------


def test_one_span_runs_inline_without_a_pool():
    ran = []
    with tile_workers(2), mock.patch.object(tiles, "_pool", None):
        tiles.run(lambda lo, hi, buf: ran.append((lo, hi, buf, threading.current_thread())),
                  [(0, 5)], lambda: ("buf",))
        assert tiles._pool is None
    assert ran == [(0, 5, "buf", threading.current_thread())]


def test_each_worker_gets_its_own_scratch():
    seen = {}  # thread name -> the scratch objects its tiles saw
    lock = threading.Lock()

    def body(lo, hi, buf):
        with lock:
            seen.setdefault(threading.current_thread().name, []).append(buf)

    with tile_workers(2):
        tiles.run(body, tiles.spans(6, 1), lambda: (object(),))
    assert len(seen) == 2
    first, second = (bufs[0] for bufs in seen.values())
    assert first is not second
    assert all(buf is bufs[0] for bufs in seen.values() for buf in bufs)


@pytest.mark.parametrize("failing, finished", [
    ((0,), [3, 4, 5]),
    ((3,), [0, 1, 2]),
    ((0, 3), []),
])
def test_error_is_raised_after_both_halves_stop(failing, finished):
    """An error reaches the caller only once the other half has stopped; the caller's wins."""
    spans = tiles.spans(6, 1)  # the caller runs tiles 0 to 2, the pool thread 3 to 5
    done = []

    def body(lo, hi):
        if lo in failing:
            raise ValueError(f"tile {lo}")
        time.sleep(0.02)  # the other half is still running when the error is raised
        done.append(lo)

    with tile_workers(2):
        with pytest.raises(ValueError, match=f"tile {failing[0]}"):
            tiles.run(body, spans)
        assert sorted(done) == finished
        time.sleep(0.1)
        assert sorted(done) == finished  # nothing was still running
    done.clear()
    with tile_workers(2) as threads:  # the pool still works
        tiles.run(lambda lo, hi: done.append(lo), spans)
    assert sorted(done) == [0, 1, 2, 3, 4, 5]
    assert pool_threads(threads)


def test_pool_half_sees_the_callers_error_state():
    """Only the last tile overflows, and with two workers the pool thread runs it.

    ``np.errstate`` lives in a context variable, so the pool half must run
    in a copy of the caller's context to raise as the serial loop does.
    """
    rng = np.random.default_rng(46)
    x, y = rng.standard_normal((3, 7)), rng.standard_normal((3, 10))
    x[:, 6] += 1e5  # d2 ~ 1e10 overflows when scaled by 1 / sigma; the others stay finite
    for count in (1, 2):
        with tile_workers(count) as threads, mock.patch.object(tiles, "TILE_ENTRIES", 30), \
                np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                ad.soft_min(x, y, 1e-300)
        assert bool(pool_threads(threads)) == (count == 2), threads


def test_nested_call_from_a_worker_runs_inline():
    outer = tiles.spans(4, 1)
    inner_threads = {}
    lock = threading.Lock()

    def inner(lo, hi, outer_lo):
        with lock:
            inner_threads.setdefault(outer_lo, set()).add(threading.current_thread().name)

    def body(lo, hi):
        tiles.run(lambda a, b: inner(a, b, lo), tiles.spans(3, 1))

    with tile_workers(2) as threads:
        runner = threading.Thread(target=tiles.run, args=(body, outer), daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "nested tiles.run deadlocked"
    assert sorted(inner_threads) == [0, 1, 2, 3]
    # the outer tiles 2 and 3 ran on the pool thread, and so did all of their inner tiles
    for outer_lo in (2, 3):
        (name,) = inner_threads[outer_lo]
        assert name.startswith(POOL_PREFIX)
    assert pool_threads(threads)


def _attention_in_child(arrays, expected, budget):
    assert tiles._pool is None, "the forked child inherited the parent's pool"
    with mock.patch.object(tiles, "TILE_ENTRIES", budget):
        out = ad.cross_attention(*(ad.constant(a) for a in arrays)).data
    assert tiles._pool is not None
    assert np.array_equal(out, expected)


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_starts_its_own_pool():
    rng = np.random.default_rng(44)
    arrays = [rng.standard_normal(s) for s in ((4, 7), (4, 10), (3, 10))]
    with tile_workers(2) as threads, mock.patch.object(tiles, "TILE_ENTRIES", 30):
        expected = ad.cross_attention(*(ad.constant(a) for a in arrays)).data
        assert tiles._pool is not None and pool_threads(threads)
        child = multiprocessing.get_context("fork").Process(
            target=_attention_in_child, args=(arrays, expected, 30))
        child.start()
        child.join(timeout=60)
    assert child.exitcode == 0


# --- branches: one protein's share each ----------------------------------------


@contextlib.contextmanager
def callers_of(module, name, protein):
    """Yields a list that gets ``(protein(*args), thread)`` for each call of ``module.name``."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append((protein(*args), threading.current_thread()))
        return original(*args, **kwargs)

    with mock.patch.object(module, name, recording):
        yield calls


def graph_size(rs, k):
    return len(rs)


def update_size(*args):
    return args[4].data.shape[1]  # the columns of H, node_update's fifth argument


def threads_by_protein(calls):
    found = {}
    for n, thread in calls:
        found.setdefault(n, set()).add(thread)
    return found


def small_dock_case(seed):
    """A 12- and a 14-residue protein and a model whose gates are not zero."""
    rng = np.random.default_rng(seed)
    model = DockingModel(ModelConfig(hidden_dim=8, layers=2, heads=4), seed=seed)
    for p in model.params.values():
        p.data = p.data + rng.uniform(-0.2, 0.2, p.data.shape)  # the gates start at 0
    return model, random_residue_set(rng, 12), random_residue_set(rng, 14)


def test_pair_featurization_and_predict_dock_branches_equal_serial():
    """Above one tile (12 x 14 logits, 14 x 14 distances at a budget of 60) each
    protein's graph and layer halves run on one thread, the ligand's on the caller's."""
    model, ligand, receptor = small_dock_case(50)
    caller = threading.current_thread()
    results = []
    for count in (1, 2):
        with tile_workers(count), mock.patch.object(tiles, "TILE_ENTRIES", 60), \
                callers_of(graphs, "build_graph", graph_size) as built, \
                callers_of(ad, "node_update", update_size) as updated:
            g1, g2 = graphs.build_graph_pair(ligand, receptor, 8)
            tr = predict_dock(model, g1, g2)
        results.append([g1.X, g1.rho, g1.neighbors, g1.edge_feats,
                        g2.X, g2.rho, g2.neighbors, g2.edge_feats, tr.R, tr.t])
        assert len(built) == 2 and len(updated) == 2 * model.config.layers
        for calls in (built, updated):
            threads = threads_by_protein(calls)
            assert threads[12] == {caller}
            if count == 1:
                assert threads[14] == {caller}
            else:
                (pool,) = threads[14]
                assert pool.name.startswith(POOL_PREFIX)
    assert_same_bits(*results)
    assert results[0][3].strides == results[1][3].strides == (8, 8 * graphs.EDGE_FEATURE_DIM)


def test_taped_layers_stay_on_the_calling_thread():
    """A tape is thread-local: under one, both halves of every layer run on the caller."""
    model, ligand, receptor = small_dock_case(51)
    g1, g2 = graphs.build_graph_pair(ligand, receptor, 8)
    params = list(model.params.values())
    runs = []
    for count in (1, 2):
        for p in params:
            p.zero_grad()
        with tile_workers(count), mock.patch.object(tiles, "TILE_ENTRIES", 60), \
                callers_of(ad, "node_update", update_size) as updated:
            with ad.Tape() as tape:
                outs = model.forward(g1, g2)
                nodes = len(tape)
                loss = ad.reduce_sum(ad.mul(outs[0], outs[0]))
                loss = ad.add(loss, ad.reduce_sum(ad.mul(outs[1], outs[1])))
                loss = ad.add(loss, ad.scale(ad.reduce_sum(ad.mul(outs[2], outs[2])), 0.3))
                loss = ad.add(loss, ad.reduce_sum(outs[3]))
                tape.backward(loss)
        assert {thread for _, thread in updated} == {threading.current_thread()}
        runs.append((nodes, [o.data for o in outs] + [p.grad for p in params]))
    assert runs[0][0] == runs[1][0]
    assert_same_bits(runs[0][1], runs[1][1])


def test_toy_pairs_and_toy_training_never_start_the_pool():
    """Pairs of 30-80 residues fit one tile everywhere, so nothing starts the pool thread."""
    rng = np.random.default_rng(52)
    pairs = [generate_pair(rng, f"toy{i}") for i in range(3)]
    model = DockingModel(ModelConfig(), seed=0)
    with mock.patch.object(tiles, "WORKERS", 2), mock.patch.object(tiles, "_pool", None):
        g1, g2 = graphs.build_graph_pair(pairs[0].ligand, pairs[0].receptor)
        predict_dock(model, g1, g2)
        train(model, pairs[:2], pairs[2:], TrainConfig(max_epochs=1, seed=0))
        evaluate(model, pairs[2:])
        assert tiles._pool is None


def test_one_work_span_runs_branches_in_order_without_a_pool():
    ran = []

    def branch(name):
        ran.append((name, threading.current_thread()))
        return name

    with mock.patch.object(tiles, "WORKERS", 2), mock.patch.object(tiles, "_pool", None):
        got = tiles.branches(lambda: branch("ligand"), lambda: branch("receptor"), [(0, 5)])
        assert tiles._pool is None
    assert got == ("ligand", "receptor")
    assert ran == [("ligand", threading.current_thread()), ("receptor", threading.current_thread())]


def test_tiles_inside_branches_run_inline_on_their_own_thread():
    seen = {}  # branch -> threads that ran its tiles

    def branch(name):
        def body():
            tiles.run(lambda lo, hi: seen.setdefault(name, set()).add(threading.current_thread()),
                      tiles.spans(4, 1))
            return name
        return body

    with tile_workers(2):
        got = tiles.branches(branch("ligand"), branch("receptor"), tiles.spans(2, 1))
    assert got == ("ligand", "receptor")
    assert seen["ligand"] == {threading.current_thread()}
    (pool,) = seen["receptor"]
    assert pool.name.startswith(POOL_PREFIX)


@pytest.mark.parametrize("failing", [{"ligand"}, {"receptor"}, {"ligand", "receptor"}])
def test_branch_error_is_raised_after_both_branches_stop(failing):
    """The first branch to fail fails at once; its error waits for the other branch,
    and when both fail the ligand's (the caller's) error wins."""
    stopped = []

    def branch(name, delay):
        def body():
            time.sleep(delay)
            stopped.append(name)
            if name in failing:
                raise ValueError(name)
            return name
        return body

    slow = 0.05
    ligand = branch("ligand", 0.0 if "ligand" in failing else slow)
    receptor = branch("receptor", slow if "ligand" in failing else 0.0)
    with mock.patch.object(tiles, "WORKERS", 2):
        with pytest.raises(ValueError, match="ligand" if "ligand" in failing else "receptor"):
            tiles.branches(ligand, receptor, tiles.spans(2, 1))
        assert sorted(stopped) == ["ligand", "receptor"]
        failing.clear()  # the pool still works
        assert tiles.branches(ligand, receptor, tiles.spans(2, 1)) == ("ligand", "receptor")


def test_pool_branch_sees_the_callers_error_state():
    threads = []

    def receptor():
        threads.append(threading.current_thread())
        return np.float64(1e300) * 1e10

    with mock.patch.object(tiles, "WORKERS", 2), np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            tiles.branches(lambda: None, receptor, tiles.spans(2, 1))
    assert threads[0].name.startswith(POOL_PREFIX)
