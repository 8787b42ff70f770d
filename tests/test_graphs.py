"""Graph construction: k-NN topology, edge features, surface features."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rigiddock import graphs, pdbio
from rigiddock.geometry import random_rotation
from conftest import random_residue_set


def _residues_at(ca_columns, n_dir=(1.0, 0.0, 0.0), c_dir=(0.0, 1.0, 0.0)):
    ca = np.asarray(ca_columns, dtype=float).T
    n = ca.shape[1]
    n_off = np.tile(np.asarray(n_dir)[:, None], (1, n))
    c_off = np.tile(np.asarray(c_dir)[:, None], (1, n))
    return pdbio.ResidueSet(
        ca=ca,
        n_atom=ca + 1.46 * n_off,
        c_atom=ca + 1.52 * c_off,
        types=np.zeros(n, dtype=np.int64),
        names=["ALA"] * n,
        chains=["A"] * n,
        seq_ids=[str(i + 1) for i in range(n)],
        icodes=[" "] * n,
    )


def test_every_node_has_exactly_k_incoming_edges():
    rng = np.random.default_rng(0)
    rs = random_residue_set(rng, 25)
    g = graphs.build_graph(rs, k=10)
    assert g.k == 10
    counts = np.bincount(g.dst, minlength=25)
    assert np.all(counts == 10)
    assert np.all(g.src != g.dst)


def test_k_lowered_for_small_proteins():
    rng = np.random.default_rng(1)
    rs = random_residue_set(rng, 5)
    g = graphs.build_graph(rs, k=10)
    assert g.k == 4
    assert np.all(np.bincount(g.dst, minlength=5) == 4)


def test_too_few_residues_rejected():
    rng = np.random.default_rng(2)
    rs = random_residue_set(rng, 2)
    with pytest.raises(ValueError, match="at least 2"):
        graphs.build_graph(_subset(rs, [0]), k=1)


def _subset(rs, idx):
    return pdbio.ResidueSet(
        ca=rs.ca[:, idx],
        n_atom=rs.n_atom[:, idx],
        c_atom=rs.c_atom[:, idx],
        types=rs.types[idx],
        names=[rs.names[i] for i in idx],
        chains=[rs.chains[i] for i in idx],
        seq_ids=[rs.seq_ids[i] for i in idx],
        icodes=[rs.icodes[i] for i in idx],
    )


def test_knn_tie_break_prefers_lower_index():
    # node 0 has nodes 1 and 2 both at distance 4; k=1 must pick node 1
    rs = _residues_at([[0, 0, 0], [4, 0, 0], [-4, 0, 0]])
    src, dst = graphs.knn_edges(rs.ca, k=1)
    assert src[dst == 0][0] == 1


def test_rbf_features_at_zero_distance():
    rs = _residues_at([[0, 0, 0], [0, 0, 0], [30, 0, 0]])
    g = graphs.build_graph(rs, k=1)
    e = np.where((g.src == 1) & (g.dst == 0))[0][0]
    np.testing.assert_allclose(g.edge_feats[12:, e], np.ones(15), atol=1e-15)


def test_rbf_feature_value_at_sigma_sqrt2():
    for r in (0, 3, 7, 14):
        sigma = 1.5 ** r
        d = sigma * np.sqrt(2.0)
        rs = _residues_at([[0, 0, 0], [d, 0, 0]])
        g = graphs.build_graph(rs, k=1)
        e = np.where((g.src == 1) & (g.dst == 0))[0][0]
        assert abs(g.edge_feats[12 + r, e] - np.exp(-1.0)) < 1e-12


def test_relative_position_in_destination_frame():
    # frame of node 0: u=(1,0,0), t=(0,1,0) -> n=(0,0,1), v=(0,1,0)
    # neighbor displaced +2 along n must read (2, 0, 0) in (n, u, v) order
    rs = _residues_at([[0, 0, 0], [0, 0, 2]])
    g = graphs.build_graph(rs, k=1)
    e = np.where((g.src == 1) & (g.dst == 0))[0][0]
    np.testing.assert_allclose(g.edge_feats[0:3, e], [2, 0, 0], atol=1e-12)


def test_orientation_features_identity_frames():
    # identical frames: q = basis_i n_j = (1,0,0), k = (0,1,0)... wait rows are
    # (n,u,v) and n_j=(0,0,1) -> q=(1,0,0); u_j -> k=(0,1,0); v_j -> t=(0,0,1)
    rs = _residues_at([[0, 0, 0], [5, 0, 0]])
    g = graphs.build_graph(rs, k=1)
    e = np.where((g.src == 1) & (g.dst == 0))[0][0]
    np.testing.assert_allclose(g.edge_feats[3:6, e], [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(g.edge_feats[6:9, e], [0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(g.edge_feats[9:12, e], [0, 0, 1], atol=1e-12)


def test_features_invariant_under_rigid_motion():
    rng = np.random.default_rng(3)
    for trial in range(10):
        rs = random_residue_set(rng, 20)
        g = graphs.build_graph(rs, k=6)
        q = random_rotation(rng)
        t = rng.uniform(-50, 50, size=3)
        g2 = graphs.build_graph(rs.transformed(q, t), k=6)
        assert np.array_equal(g.src, g2.src) and np.array_equal(g.dst, g2.dst)
        assert np.max(np.abs(g.edge_feats - g2.edge_feats)) <= 1e-8
        assert np.max(np.abs(g.rho - g2.rho)) <= 1e-8
        assert np.array_equal(g.types, g2.types)


def test_permutation_relabels_edges_consistently():
    rng = np.random.default_rng(4)
    rs = random_residue_set(rng, 15)
    g = graphs.build_graph(rs, k=5)
    perm = rng.permutation(15)
    g2 = graphs.build_graph(_subset(rs, perm), k=5)
    np.testing.assert_allclose(g2.X, g.X[:, perm], atol=1e-12)
    np.testing.assert_allclose(g2.rho, g.rho[perm], atol=1e-10)
    # edge (perm[s], perm[d]) in g2 must carry the features of (s, d) in g
    orig = {(int(s), int(d)): g.edge_feats[:, e] for e, (s, d) in enumerate(zip(g.src, g.dst))}
    assert len(orig) == g2.neighbors.size
    for e in range(g2.neighbors.size):
        key = (int(perm[g2.src[e]]), int(perm[g2.dst[e]]))
        np.testing.assert_allclose(g2.edge_feats[:, e], orig[key], atol=1e-10)


def test_surface_feature_hexagon_center_is_zero():
    angles = np.arange(6) * np.pi / 3
    pts = [[0.0, 0.0, 0.0]] + [[4 * np.cos(a), 4 * np.sin(a), 0.0] for a in angles]
    X = np.asarray(pts).T
    nbrs = [np.arange(1, 7)] + [np.array([0])] * 6
    rho = graphs.surface_features(X, nbrs)
    assert np.all(rho[0] <= 1e-10)


def test_surface_feature_single_neighbor_is_one():
    X = np.array([[0.0, 3.0], [0.0, 0.0], [0.0, 0.0]])
    rho = graphs.surface_features(X, [np.array([1]), np.array([0])])
    np.testing.assert_allclose(rho, 1.0, atol=1e-12)


def test_surface_feature_half_circle_closed_form():
    # equidistant neighbors spread over an arc of angle alpha: the weighted
    # mean of unit offsets has norm 2 sin(alpha/2) / alpha in the dense limit
    for alpha in (np.pi / 2, np.pi, 3 * np.pi / 2):
        m = 100
        ang = np.linspace(-alpha / 2, alpha / 2, m)
        pts = np.zeros((3, m + 1))
        pts[:2, 1:] = 5.0 * np.vstack([np.cos(ang), np.sin(ang)])
        rho = graphs.surface_features(pts, [np.arange(1, m + 1)] + [np.array([0])] * m)
        expected = 2 * np.sin(alpha / 2) / alpha
        assert abs(rho[0, 0] - expected) < 0.02


def test_surface_feature_range_and_isolated_error():
    rng = np.random.default_rng(5)
    rs = random_residue_set(rng, 30)
    g = graphs.build_graph(rs, k=8)
    assert np.all(g.rho >= 0.0) and np.all(g.rho <= 1.0 + 1e-12)
    with pytest.raises(ValueError, match="no neighbors"):
        graphs.surface_features(rs.ca, [np.array([], dtype=int)] * 30)


def test_surface_score_tracks_boundary_distance_on_disk():
    # 500 uniform points in the unit disk: boundary points should score high,
    # interior points low. Length scale ~5% of the disk, neighborhood ~10% of
    # the points (both rescaled from the protein defaults to the disk density).
    rng = np.random.default_rng(6)
    r = np.sqrt(rng.uniform(0, 1, 500))
    theta = rng.uniform(0, 2 * np.pi, 500)
    X = np.zeros((3, 500))
    X[0] = r * np.cos(theta)
    X[1] = r * np.sin(theta)
    src, dst = graphs.knn_edges(X, k=50)
    nbrs = [src[dst == i] for i in range(500)]
    rho = graphs.surface_features(X, nbrs, lambdas=(0.05,))
    boundary_dist = 1.0 - r
    corr = scipy.stats.spearmanr(rho[:, 0], boundary_dist).statistic
    assert corr < 0 and abs(corr) >= 0.5


# Integer-lattice clouds: many exact distance ties, and coincident points.
LATTICE = st.integers(-2, 2).map(float)


@st.composite
def lattice_knn_cases(draw):
    n = draw(st.integers(2, 24))
    X = draw(arrays(np.float64, (3, n), elements=LATTICE))
    return X, draw(st.integers(1, n - 1))


def reference_knn(X, k):
    """Per-node full sort by (distance, index): the tie rule spelled out."""
    n = X.shape[1]
    diff = X[:, :, None] - X[:, None, :]
    d2 = np.sum(diff * diff, axis=0)
    np.fill_diagonal(d2, np.inf)
    idx = np.arange(n)
    src = np.concatenate([np.lexsort((idx, d2[i]))[:k] for i in range(n)])
    return src, np.repeat(idx, k)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lattice_knn_cases())
def test_property_knn_matches_lexsort_reference(case):
    X, k = case
    src, dst = graphs.knn_edges(X, k)
    ref_src, ref_dst = reference_knn(X, k)
    np.testing.assert_array_equal(src, ref_src)
    np.testing.assert_array_equal(dst, ref_dst)


@st.composite
def ragged_neighbor_cases(draw):
    n = draw(st.integers(2, 16))
    X = 3.8 * draw(arrays(np.float64, (3, n), elements=LATTICE))
    # node i's neighbors are i + shift (mod n), shift in 1..n-1: never i itself
    shifts = st.lists(st.integers(1, n - 1), min_size=1, max_size=n - 1)
    lists = [(i + np.array(draw(shifts), dtype=np.intp)) % n for i in range(n)]
    return X, lists


def reference_surface(X, neighbor_lists, lambdas=graphs.SURFACE_LAMBDAS):
    """One node and one length scale at a time."""
    n = X.shape[1]
    out = np.zeros((n, len(lambdas)))
    for i in range(n):
        nbrs = neighbor_lists[i]
        offsets = X[:, i][:, None] - X[:, nbrs]
        d2 = np.sum(offsets * offsets, axis=0)
        norms = np.sqrt(d2)
        for col, lam in enumerate(lambdas):
            logits = -d2 / lam
            logits -= logits.max()
            w = np.exp(logits)
            w /= w.sum()
            numer = np.linalg.norm(offsets @ w)
            denom = np.dot(w, norms)
            out[i, col] = numer / denom if denom > 0 else 0.0
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ragged_neighbor_cases())
def test_property_grouped_surface_matches_per_node_loop(case):
    X, lists = case
    rho = graphs.surface_features(X, lists)
    assert np.max(np.abs(rho - reference_surface(X, lists))) <= 1e-12


def test_surface_features_accepts_neighbor_array():
    rng = np.random.default_rng(7)
    g = graphs.build_graph(random_residue_set(rng, 20), k=6)
    assert g.neighbors.shape == (20, 6)
    lists = [g.neighbors[i] for i in range(20)]
    np.testing.assert_array_equal(graphs.surface_features(g.X, g.neighbors), g.rho)
    assert np.max(np.abs(g.rho - reference_surface(g.X, lists))) <= 1e-12


def test_squared_distances_match_difference_array_sum_exactly():
    """interface_indices and pocket_points threshold these: they must not move."""
    rng = np.random.default_rng(17)
    for n, m in ((1, 1), (7, 3), (40, 55)):
        X = rng.normal(scale=15.0, size=(3, n))
        Y = rng.normal(scale=15.0, size=(3, m))
        diff = X[:, :, None] - Y[:, None, :]
        np.testing.assert_array_equal(graphs.squared_distances(X, Y),
                                      np.sum(diff * diff, axis=0))
