"""Row-blocked pair distances against the full-matrix code they replaced.

``graphs._distance_tiles`` feeds k-NN edges and ``graphs.contact_pairs`` one
block of rows at a time; the contact search serves interface residues, pocket
points and the generator's geometry check. Each test below keeps the full
n x m version as the reference and requires the same bits for block heights
1, 2, 7 and one taller than the input. The blob sampler is checked here too,
against the one-candidate-at-a-time sampler it replaced.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigiddock import graphs, metrics, synthetic, tiles
from rigiddock.losses import POCKET_TAU, intersection_loss, pocket_points
from rigiddock.metrics import NoContactError

BLOCK_HEIGHTS = (1, 2, 7, None)  # None: one block taller than the input


def block_rows(height, n):
    """Patch the block budget so every tile holds ``height`` rows (None: all n rows).

    The row count is patched, not the entry budget: the budget also decides
    whether the contact search prunes, and a pruned search forms its tiles over
    the points that can pair, not over all m columns.
    """
    return mock.patch.object(tiles, "tile_rows", lambda width: height or n + 3)


def full_squared_distances(X, Y):
    diff = X[:, :, None] - Y[:, None, :]
    return np.sum(diff * diff, axis=0)


def reference_knn_edges(X, k):
    """The full-matrix k-NN search: one n x n array, same tie rule."""
    n = X.shape[1]
    d2 = full_squared_distances(X, X)
    np.fill_diagonal(d2, np.inf)
    nbrs = np.argpartition(d2, k - 1, axis=1)[:, :k]
    dist = np.take_along_axis(d2, nbrs, axis=1)
    kth = dist[:, -1:]
    rows = np.flatnonzero(np.count_nonzero(d2 <= kth, axis=1) > k)
    if rows.size:
        sub, cut = d2[rows], kth[rows]
        tied = sub == cut
        keep = sub < cut
        free = k - np.count_nonzero(keep, axis=1)
        keep |= tied & (np.cumsum(tied, axis=1) <= free[:, None])
        nbrs[rows] = np.nonzero(keep)[1].reshape(rows.size, k)
        dist[rows] = np.take_along_axis(sub, nbrs[rows], axis=1)
    order = np.lexsort((nbrs, dist), axis=1)
    nbrs = np.take_along_axis(nbrs, order, axis=1)
    return nbrs.reshape(-1), np.repeat(np.arange(n), k)


def reference_interface_indices(lig, rec, cutoff=metrics.INTERFACE_CUTOFF):
    close = np.sqrt(full_squared_distances(lig, rec)) < cutoff
    return np.nonzero(close.any(axis=1))[0], np.nonzero(close.any(axis=0))[0]


def reference_pocket_points(X1, X2, tau=POCKET_TAU):
    ii, jj = np.nonzero(full_squared_distances(X1, X2) < tau * tau)
    if ii.size == 0:
        raise NoContactError(f"no residue pairs within {tau} A")
    return 0.5 * (X1[:, ii] + X2[:, jj])


def reference_verify(ligand, receptor):
    d = np.sqrt(full_squared_distances(ligand, receptor))
    if d.min() < 7.2:
        return False
    if np.count_nonzero(d < POCKET_TAU) < synthetic.CONTACT_RING:
        return False
    try:
        reference_pocket_points(ligand, receptor)
    except NoContactError:
        return False
    return intersection_loss(ligand, receptor).item() <= 0.1


def reference_blob(rng, n, center, accept=None):
    """The list-based sampler ``_blob`` replaced: rebuilds the array per candidate."""
    radius = synthetic._BLOB_RADIUS_COEFF * n ** (1.0 / 3.0) + 1.5
    points = []
    for _ in range(n):
        for _ in range(400):
            cand = center + rng.uniform(-radius, radius, size=3)
            if np.linalg.norm(cand - center) > radius:
                continue
            if accept is not None and not accept(cand):
                continue
            if points and np.min(np.linalg.norm(np.array(points) - cand, axis=1)) \
                    < synthetic.MIN_SEPARATION:
                continue
            points.append(cand)
            break
        else:
            raise synthetic.GenerationError(f"could not place point {len(points) + 1} of {n}")
    return np.array(points).T


def half_angstrom_cloud(n, extent):
    """3 x n coordinates on a 0.5 A grid: equal distances and duplicate points are common."""
    return st.lists(st.integers(-extent, extent), min_size=3 * n, max_size=3 * n).map(
        lambda v: np.array(v, dtype=np.float64).reshape(3, n) / 2.0)


@st.composite
def knn_cases(draw):
    n = draw(st.integers(2, 16))
    X = draw(half_angstrom_cloud(n, 6))
    return X, draw(st.integers(1, n - 1)), draw(st.sampled_from(BLOCK_HEIGHTS))


@st.composite
def cross_cases(draw):
    n1, n2 = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    X1 = draw(half_angstrom_cloud(n1, 16))
    X2 = draw(half_angstrom_cloud(n2, 16))
    X2[0] += draw(st.integers(0, 16))  # from overlapping clouds to no contact at all
    return X1, X2, draw(st.sampled_from(BLOCK_HEIGHTS))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(knn_cases())
def test_property_knn_edges_blocks_match_full_matrix(case):
    X, k, height = case
    with block_rows(height, X.shape[1]):
        src, dst = graphs.knn_edges(X, k)
    ref_src, ref_dst = reference_knn_edges(X, k)
    np.testing.assert_array_equal(src, ref_src)
    np.testing.assert_array_equal(dst, ref_dst)


@st.composite
def wild_cross_cases(draw):
    """``cross_cases`` and a cutoff, moved far from the origin, with a pair planted just
    inside the cutoff, NaN or infinite coordinates, or a side emptied, and whether to
    search them pruned: either search must find exactly the full matrix's pairs."""
    X1, X2, height = draw(cross_cases())
    cutoff = draw(st.sampled_from((0.5, 3.0, POCKET_TAU, 11.5)))
    offset = draw(st.sampled_from((0.0, 12345.678, 1e8, -1e8)))
    X1, X2 = X1 + offset, X2 + offset
    if draw(st.booleans()):   # one axis apart by the last float below the cutoff
        i, j = draw(st.integers(0, X1.shape[1] - 1)), draw(st.integers(0, X2.shape[1] - 1))
        axis, sign = draw(st.integers(0, 2)), draw(st.sampled_from((1.0, -1.0)))
        X2[:, j] = X1[:, i]
        X2[axis, j] += sign * np.nextafter(cutoff, 0.0)
    for _ in range(draw(st.integers(0, 3))):
        X = draw(st.sampled_from((X1, X2)))
        X[draw(st.integers(0, 2)), draw(st.integers(0, X.shape[1] - 1))] = draw(
            st.sampled_from((np.nan, np.inf, -np.inf)))
    if draw(st.integers(0, 9)) == 0:
        X1, X2 = draw(st.sampled_from(((X1[:, :0], X2), (X1, X2[:, :0]))))
    return X1, X2, height, cutoff, draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wild_cross_cases())
def test_property_contact_pairs_match_full_matrix_in_row_major_order(case):
    X1, X2, height, cutoff, pruned = case
    with np.errstate(invalid="ignore"):   # inf - inf
        full = full_squared_distances(X1, X2)
    ref_i, ref_j = np.nonzero(full < cutoff * cutoff)
    # a budget of 0 sends even these small clouds through the pruned search
    budget = 0 if pruned else tiles.TILE_ENTRIES
    with block_rows(height, X1.shape[1]), mock.patch.object(tiles, "TILE_ENTRIES", budget):
        i, j, d2 = graphs.contact_pairs(X1, X2, cutoff)
    np.testing.assert_array_equal(i, ref_i)
    np.testing.assert_array_equal(j, ref_j)
    assert d2.tobytes() == full[ref_i, ref_j].tobytes()
    assert i.dtype == j.dtype == np.intp and d2.dtype == np.float64


@pytest.mark.parametrize("offset", (0.0, 12345.678, 1e8, -1e8, 3e12))
def test_pruned_contact_search_keeps_the_farthest_pair_inside_the_cutoff(offset):
    """Two one-point clouds one axis apart, as far as a computed d2 below cutoff**2
    allows: each box is its one point, so only the boxes' margin keeps the pair."""
    for cutoff, axis, sign in itertools.product((0.5, 3.0, POCKET_TAU, 11.5), range(3),
                                                (1.0, -1.0)):
        X1 = np.full((3, 1), offset)
        X2 = X1.copy()
        X2[axis] += sign * cutoff
        while not full_squared_distances(X1, X2)[0, 0] < cutoff * cutoff:
            X2[axis] = np.nextafter(X2[axis], offset)
        with mock.patch.object(tiles, "TILE_ENTRIES", 0):
            i, j, d2 = graphs.contact_pairs(X1, X2, cutoff)
        assert (i.tolist(), j.tolist()) == ([0], [0]), (cutoff, axis, sign)
        assert d2.tobytes() == full_squared_distances(X1, X2)[0].tobytes()


def test_contact_pairs_without_contacts_are_empty():
    X1 = np.zeros((3, 4))
    for X2 in (np.full((3, 3), 100.0), np.zeros((3, 0))):
        i, j, d2 = graphs.contact_pairs(X1, X2, POCKET_TAU)
        assert i.shape == j.shape == d2.shape == (0,)
        assert i.dtype == j.dtype == np.intp and d2.dtype == np.float64


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cross_cases())
def test_property_interface_indices_blocks_match_full_matrix(case):
    X1, X2, height = case
    with block_rows(height, X1.shape[1]):
        lig, rec = metrics.interface_indices(X1, X2)
    ref_lig, ref_rec = reference_interface_indices(X1, X2)
    np.testing.assert_array_equal(lig, ref_lig)
    np.testing.assert_array_equal(rec, ref_rec)
    assert lig.dtype == ref_lig.dtype and rec.dtype == ref_rec.dtype


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cross_cases())
def test_property_pocket_points_blocks_match_full_matrix_in_order(case):
    X1, X2, height = case
    try:
        expected = reference_pocket_points(X1, X2)
    except NoContactError:
        expected = None
    with block_rows(height, X1.shape[1]):
        if expected is None:
            with pytest.raises(NoContactError):
                pocket_points(X1, X2)
        else:
            np.testing.assert_array_equal(pocket_points(X1, X2), expected)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cross_cases())
def test_property_verify_blocks_decide_as_full_matrix(case):
    X1, X2, height = case
    with block_rows(height, X1.shape[1]):
        assert synthetic._verify(X1, X2) == reference_verify(X1, X2)


def test_verify_blocks_decide_as_full_matrix_on_generated_geometry():
    """Constructed complexes pass and fail for each reason the check has."""
    decisions = []
    rng = np.random.default_rng(31)
    for _ in range(12):
        try:
            lig, rec = synthetic._bound_complex(rng, 12, 14)
        except synthetic.GenerationError:
            continue
        for shift in (0.0, -1.0, 4.0):
            moved = lig + np.array([[shift], [0.0], [0.0]])
            expected = reference_verify(moved, rec)
            for height in BLOCK_HEIGHTS:
                with block_rows(height, moved.shape[1]):
                    assert synthetic._verify(moved, rec) == expected
            decisions.append(expected)
    assert True in decisions and False in decisions


@pytest.mark.parametrize("use_accept", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_blob_matches_list_based_sampler(seed, use_accept):
    n = (5, 23, 60, 140)[seed]
    center = np.array([1.0, -2.0, 0.5])

    def accept(cand):  # a keep-out ball, as ``_bound_complex`` keeps off its ring
        return np.linalg.norm(cand - center) >= 4.0

    rngs = [np.random.default_rng([seed, 5]) for _ in range(2)]
    got = synthetic._blob(rngs[0], n, center, accept if use_accept else None)
    expected = reference_blob(rngs[1], n, center, accept if use_accept else None)
    np.testing.assert_array_equal(got, expected)
    assert got.shape == (3, n)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_blob_failure_names_the_same_point():
    center = np.zeros(3)
    for sampler in (synthetic._blob, reference_blob):
        with pytest.raises(synthetic.GenerationError, match="could not place point 1 of 4"):
            sampler(np.random.default_rng(0), 4, center, lambda cand: False)


def keep_out(center, reach):
    """A pure ``accept`` that keeps points at least ``reach`` from ``center``."""
    return lambda cand: np.linalg.norm(cand - center) >= reach


def keep_in(center, reach):
    """A pure ``accept`` that keeps points within ``reach`` of ``center``."""
    return lambda cand: np.linalg.norm(cand - center) <= reach


def assert_same_draws(n, center, accept, bit_generator, seed):
    """Both samplers give the same points, or fail at the same point, and leave rng alike."""
    rngs = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    outcomes = []
    for sampler, rng in zip((synthetic._blob, reference_blob), rngs):
        try:
            outcomes.append(sampler(rng, n, center, accept))
        except synthetic.GenerationError as exc:
            outcomes.append(str(exc))
    got, expected = outcomes
    if isinstance(expected, str):
        assert got == expected
    else:
        np.testing.assert_array_equal(got, expected)
        assert got.shape == (3, n)
    np.testing.assert_equal(rngs[0].bit_generator.state, rngs[1].bit_generator.state)
    return expected


@pytest.mark.parametrize("use_accept", [False, True])
@pytest.mark.parametrize("n, seed", [(1, 7), (2, 8), (9, 9), (64, 10), (333, 11), (1000, 12)])
def test_blob_matches_list_based_sampler_over_sizes(n, seed, use_accept):
    center = np.array([-3.0, 12.5, 0.25])
    accept = keep_out(center + 2.0, 6.0) if use_accept else None
    assert_same_draws(n, center, accept, np.random.PCG64, seed)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_blob_matches_list_based_sampler_for_other_bit_generators(bit_generator):
    """Restoring the block's saved state and redrawing needs no PCG64-only call."""
    center = np.zeros(3)
    assert_same_draws(150, center, keep_out(center, 5.0), bit_generator, 3)
    assert "could not place" in assert_same_draws(40, center, keep_in(center, 5.0),
                                                  bit_generator, 3)


@pytest.mark.parametrize("n, reach", [(4, 0.0), (30, 4.0), (30, 6.0), (300, 9.0)])
def test_blob_failure_leaves_rng_as_list_based_sampler(n, reach):
    """Only a few points fit inside ``reach``; both samplers give up on the same one."""
    center = np.array([1.0, 2.0, 3.0])
    message = assert_same_draws(n, center, keep_in(center, reach), np.random.PCG64, 21)
    assert message.startswith("could not place point") and message.endswith(f"of {n}")


@pytest.mark.parametrize("tie", [0.05, 0.5])
def test_blob_decides_near_threshold_distances_as_list_based_sampler(monkeypatch, tie):
    """A wide tie band sends many radius and separation tests to the serial expression."""
    monkeypatch.setattr(synthetic, "_TIE", tie)
    center = np.array([0.5, 0.0, -0.5])
    for n, accept in ((120, None), (120, keep_out(center, 4.0)), (30, keep_in(center, 5.0))):
        assert_same_draws(n, center, accept, np.random.PCG64, 5)


def test_blob_calls_accept_only_on_passing_candidates_in_draw_order():
    center, n = np.zeros(3), 50
    seen = []

    def accept(cand):
        seen.append(cand.copy())
        return cand[0] >= -2.0

    points = synthetic._blob(np.random.default_rng(2), n, center, accept).T
    radius = synthetic._BLOB_RADIUS_COEFF * n ** (1.0 / 3.0) + 1.5
    placed = []
    for cand in seen:
        assert np.linalg.norm(cand - center) <= radius
        assert not placed or np.min(np.linalg.norm(np.array(placed) - cand, axis=1)) \
            >= synthetic.MIN_SEPARATION
        if cand[0] >= -2.0:
            placed.append(cand)
    np.testing.assert_array_equal(np.array(placed), points)
    assert len(seen) > n


def test_distance_tiles_cover_rows_in_order_within_budget():
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(3, 700)), rng.normal(size=(3, 300))
    full = full_squared_distances(X, Y)
    spans, scratch, tile = graphs._distance_tiles(X, Y)
    assert spans == tiles.spans(700, tiles.tile_rows(300))
    bufs = scratch()
    seen = 0
    for lo, hi in spans:
        d2 = tile(lo, hi, *bufs)
        assert lo == seen and d2.shape == (hi - lo, 300)
        assert d2.size <= tiles.TILE_ENTRIES
        np.testing.assert_array_equal(d2, full[lo:hi])
        seen = hi
    assert seen == 700
    # a row wider than the budget still comes one row at a time
    spans, _, _ = graphs._distance_tiles(Y[:, :2], rng.normal(size=(3, tiles.TILE_ENTRIES + 1)))
    assert spans == [(0, 1), (1, 2)]


def test_knn_edges_and_interface_indices_hold_no_n_by_n_array():
    """At n = 3000 one n x n float64 array is 72 MB; both searches stay under 16 MB."""
    rng = np.random.default_rng(11)
    n = 3000
    X = rng.normal(scale=30.0, size=(3, n))
    Y = rng.normal(scale=30.0, size=(3, n)) + np.array([[50.0], [0.0], [0.0]])
    tracemalloc.start()
    try:
        src, _ = graphs.knn_edges(X, graphs.DEFAULT_K)
        lig, rec = metrics.interface_indices(X, Y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert src.shape == (n * graphs.DEFAULT_K,) and lig.size and rec.size
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
