"""Protein graphs: k-NN topology plus rigid-motion-invariant features.

Each node is a residue at its CA position. Edges j->i connect every node i
to its k nearest residues by CA distance (ties broken toward the lower
sequence index). Per-edge features are expressed in residue i's local frame,
so the whole feature set is unchanged by any rigid motion of the protein.

Distances between n and m points are formed in row blocks (``_distance_tiles``)
of at most ``tiles.TILE_ENTRIES`` (2**16) entries, so k-NN edges and
``contact_pairs``, the one contact search behind pocket points, interface
residues and the generator's geometry check, need O(m * block) memory, not
the O(n * m) of a full distance matrix. Both searches run their blocks
through ``tiles.run``, which may search two blocks at once, each in its own
buffers and writing only its own rows of the result, so results do not
depend on how many run at once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import tiles
from .pdbio import PdbParseError, ResidueSet, local_frames

log = logging.getLogger(__name__)

DEFAULT_K = 10
SURFACE_LAMBDAS = (1.0, 2.0, 5.0, 10.0, 30.0)
RBF_SIGMAS = tuple(1.5 ** x for x in range(15))
EDGE_FEATURE_DIM = 12 + len(RBF_SIGMAS)  # 3 position + 9 orientation + 15 RBF


@dataclass
class ProteinGraph:
    """Immutable featurized protein.

    X: 3 x n CA coordinates. types: n residue-type indices. rho: n x 5
    surface features. neighbors: n x k source nodes of the k in-edges of
    each node, nearest first. edge_feats: 27 x (n * k), column i * k + j
    describing edge neighbors[i, j] -> i. residues: the source ResidueSet
    (kept so the graph can be rebuilt after rigid motions). k: effective
    neighbor count.
    """

    X: np.ndarray
    types: np.ndarray
    rho: np.ndarray
    neighbors: np.ndarray
    edge_feats: np.ndarray
    residues: ResidueSet
    k: int

    @property
    def n_nodes(self) -> int:
        return self.X.shape[1]

    @property
    def src(self) -> np.ndarray:
        """Edge sources, edges ordered by destination node."""
        return self.neighbors.reshape(-1)

    @property
    def dst(self) -> np.ndarray:
        """Edge destinations: each node repeated k times."""
        return np.repeat(np.arange(self.n_nodes), self.k)


def _squared_distances_into(X: np.ndarray, Y: np.ndarray, out: np.ndarray,
                            tmp: np.ndarray) -> np.ndarray:
    """Squared distances from the columns of X to those of Y, written to ``out``.

    Accumulated one axis at a time, with ``tmp`` (out's shape) holding each
    axis' term, so no 3 x n x m array is built; the sums are those of
    ``np.sum(diff * diff, axis=0)``.
    """
    np.subtract.outer(X[0], Y[0], out=out)
    np.multiply(out, out, out=out)
    for axis in (1, 2):
        np.subtract.outer(X[axis], Y[axis], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        out += tmp
    return out


def _distance_tiles(X: np.ndarray, Y: np.ndarray):
    """``(spans, scratch, tile)`` for the row blocks of X-to-Y squared distances.

    ``tile(lo, hi, out, tmp)``, with ``(out, tmp) = scratch()``, returns rows
    lo:hi in ``out``, valid until ``out`` is reused. The spans cover X's
    columns in order, each within the tile budget of ``tiles.TILE_ENTRIES``
    (at least one row).
    """
    n, m = X.shape[1], Y.shape[1]
    rows = tiles.tile_rows(m)
    shape = (min(rows, n), m)

    def tile(lo, hi, out, tmp):
        return _squared_distances_into(X[:, lo:hi], Y, out[:hi - lo], tmp[:hi - lo])

    return tiles.spans(n, rows), lambda: (np.empty(shape), np.empty(shape)), tile


def contact_pairs(X: np.ndarray, Y: np.ndarray,
                  cutoff: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i, j, d2)`` for every pair of X's and Y's columns closer than ``cutoff``.

    A pair counts when ``d2 < cutoff * cutoff``; pairs come in row-major
    (i, j) order, with intp indices and d2 bit for bit the entry of
    ``np.sum(diff * diff, axis=0)``; a point with a NaN or infinite
    coordinate pairs with nothing. A search of more than one tile
    (``tiles.TILE_ENTRIES`` distances) covers only the points that can pair
    (``_pairable``): X's inside Y's bounding box grown by the cutoff, then
    Y's inside those points' box. Both subsets ascend and each d2 is
    computed as before, so the result is the full search's. A smaller
    search is one pass over all pairs, which the boxes would only slow.
    Formed one ``_distance_tiles`` block at a time per worker, so memory is
    O(m * block) plus the pairs found.
    """
    if X.shape[1] * Y.shape[1] <= tiles.TILE_ENTRIES:
        with np.errstate(invalid="ignore"):   # inf - inf: a NaN d2, which never pairs
            return _contact_search(X, Y, cutoff)
    ix, iy = _pairable(X, Y, cutoff)
    i, j, d2 = _contact_search(X[:, ix], Y[:, iy], cutoff)
    return ix[i], iy[j], d2


def _pairable(X: np.ndarray, Y: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending indices of the columns of X and of Y that may lie within ``cutoff``.

    A computed d2 below cutoff**2 puts every axis within cutoff * (1 + 2**-52)
    of the other point, so the boxes grow by ``cutoff`` with a relative slack
    of 1e-9, plus 1e-9 of the largest coordinate for the rounding of the box
    bounds; a point with a non-finite coordinate has a d2 of inf or NaN with
    every other point and never pairs, so it is dropped before the boxes form.
    """
    fx = np.flatnonzero(np.isfinite(X).all(axis=0))
    fy = np.flatnonzero(np.isfinite(Y).all(axis=0))
    if fx.size == 0 or fy.size == 0:
        return fx[:0], fy[:0]
    Xf, Yf = X[:, fx], Y[:, fy]
    scale = max(np.abs(Xf).max(), np.abs(Yf).max())
    reach = abs(cutoff) * (1.0 + 1e-9) + 1e-9 * scale

    def inside(P, Q):
        lo = Q.min(axis=1, keepdims=True) - reach
        hi = Q.max(axis=1, keepdims=True) + reach
        return np.flatnonzero(((P >= lo) & (P <= hi)).all(axis=0))

    ix = fx[inside(Xf, Yf)]
    if ix.size == 0:
        return ix, fy[:0]
    return ix, fy[inside(Yf, X[:, ix])]


def _contact_search(X: np.ndarray, Y: np.ndarray,
                    cutoff: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``contact_pairs`` over every pair of X's and Y's columns, one block at a time."""
    m = Y.shape[1]
    spans, scratch, distances = _distance_tiles(X, Y)
    found = {}  # block start -> (flat indices, d2) of its pairs

    def contact_block(lo, hi, out, tmp):
        d2 = distances(lo, hi, out, tmp)
        hits = np.flatnonzero(d2 < cutoff * cutoff)
        found[lo] = hits + lo * m, d2.reshape(-1)[hits]

    tiles.run(contact_block, spans, scratch)
    flat = [np.empty(0, dtype=np.intp)] + [found[lo][0] for lo, _ in spans]
    i, j = np.divmod(np.concatenate(flat), m)
    return i, j, np.concatenate([np.empty(0)] + [found[lo][1] for lo, _ in spans])


def knn_edges(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Directed edge lists (src, dst): each dst receives its k nearest nodes.

    Edges are grouped by dst in node order, so ``src.reshape(n, k)`` is the
    neighbor array, each row ordered by (distance, node index). Brute-force
    O(n^2) distances, formed in the row blocks of ``_distance_tiles`` and
    searched through ``tiles.run``: memory is O(n * block) per worker, plus
    the n x k result, never n x n. Ties resolved toward lower node index.
    """
    n = X.shape[1]
    neighbors = np.empty((n, k), dtype=np.intp)
    spans, scratch, distances = _distance_tiles(X, X)

    def knn_block(lo, hi, out, tmp):
        d2 = distances(lo, hi, out, tmp)
        rows = np.arange(hi - lo)
        d2[rows, rows + lo] = np.inf
        neighbors[lo:hi] = _nearest(d2, k)

    tiles.run(knn_block, spans, scratch)
    return neighbors.reshape(-1), np.repeat(np.arange(n), k)


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Per row of d2, the k column indices of least value ordered by (value, index).

    Each row's result depends on that row alone, so blocks of rows can be
    searched one at a time.
    """
    nbrs = np.argpartition(d2, k - 1, axis=1)[:, :k]
    dist = np.take_along_axis(d2, nbrs, axis=1)
    kth = dist[:, -1:]  # the partition puts each row's k-th smallest last
    # Rows whose k-th distance is shared beyond the k slots: the partition
    # picked arbitrary tied nodes, so keep the lowest-index ones instead.
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
    return np.take_along_axis(nbrs, order, axis=1)


def _neighbor_groups(neighbors, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(nodes, m x c neighbor array) for each neighbor count c.

    An n x k array is a single group; a ragged list is grouped by length.
    """
    if isinstance(neighbors, np.ndarray) and neighbors.ndim == 2:
        lengths = np.full(n, neighbors.shape[1])
        flat = neighbors.reshape(-1)
    else:
        lengths = np.array([len(nb) for nb in neighbors], dtype=np.intp)
        flat = np.concatenate(neighbors).astype(np.intp)
    empty = np.flatnonzero(lengths == 0)
    if empty.size:
        raise ValueError(f"surface_features: node {empty[0]} has no neighbors")
    starts = np.cumsum(lengths) - lengths
    groups = []
    for c in np.unique(lengths):
        nodes = np.flatnonzero(lengths == c)
        groups.append((nodes, flat[starts[nodes, None] + np.arange(c)]))
    return groups


def surface_features(
    X: np.ndarray,
    neighbor_lists: np.ndarray | list[np.ndarray],
    lambdas: tuple[float, ...] = SURFACE_LAMBDAS,
) -> np.ndarray:
    """Per-node surface scores in [0, 1], one column per length scale.

    For each node, neighbor offsets are averaged with weights softmax over
    -d^2/lambda; the score is the norm of that average divided by the
    weighted average of the offset norms. Interior nodes see offsets that
    cancel (score near 0); surface nodes see one-sided offsets (near 1).
    ``neighbor_lists`` is an n x k neighbor array or one index list per node.
    """
    n = X.shape[1]
    lam = np.asarray(lambdas, dtype=np.float64)[:, None, None]
    out = np.zeros((n, len(lambdas)))
    for nodes, nbrs in _neighbor_groups(neighbor_lists, n):
        offsets = X[:, nodes, None] - X[:, nbrs]                   # 3 x m x c
        d2 = np.sum(offsets * offsets, axis=0)                     # m x c
        norms = np.sqrt(d2)
        logits = -d2 / lam                                         # L x m x c
        logits -= logits.max(axis=2, keepdims=True)
        w = np.exp(logits)
        w /= w.sum(axis=2, keepdims=True)
        mean = np.einsum("amc,lmc->lam", offsets, w)               # L x 3 x m
        numer = np.sqrt(np.sum(mean * mean, axis=1))               # L x m
        denom = np.sum(w * norms, axis=2)
        score = np.divide(numer, denom, out=np.zeros_like(numer), where=denom > 0)
        out[nodes] = score.T
    return out


def _edge_feature_block(
    X: np.ndarray,
    frames: tuple[np.ndarray, np.ndarray, np.ndarray],
    src: np.ndarray,
    dst: np.ndarray,
) -> np.ndarray:
    """27 features per edge j->i, all expressed in i's (n, u, v) basis.

    Written in place into the columns of one E x 27 array, returned as its
    27 x E transpose (strides (8, 216)), so no per-feature block is copied.
    """
    n_ax, u_ax, v_ax = frames
    # basis[i] has rows n_i, u_i, v_i
    basis = np.stack([n_ax.T, u_ax.T, v_ax.T], axis=1)
    b_dst = basis[dst]  # E x 3 x 3
    rel = (X[:, src] - X[:, dst]).T  # E x 3
    out = np.empty((src.size, EDGE_FEATURE_DIM))
    # p, then the source's n, u and v axes (q, k, t), each in the basis of dst
    for j, vec in enumerate((rel, n_ax[:, src].T, u_ax[:, src].T, v_ax[:, src].T)):
        np.einsum("eab,eb->ea", b_dst, vec, out=out[:, 3 * j:3 * j + 3])
    d2 = np.sum(rel * rel, axis=1)
    rbf = out[:, 12:]
    np.divide(-d2[:, None], 2.0 * np.asarray(RBF_SIGMAS) ** 2, out=rbf)
    np.exp(rbf, out=rbf)
    return out.T


def build_graph(rs: ResidueSet, k: int = DEFAULT_K) -> ProteinGraph:
    """Featurized k-NN graph over a residue set.

    k is lowered to n-1 when the protein is smaller than k+1 residues.
    Raises PdbParseError for proteins with fewer than 2 residues, and
    ValueError for k < 1.
    """
    n = len(rs)
    if n < 2:
        raise PdbParseError(f"build_graph: need at least 2 residues, got {n}")
    if k < 1:
        raise ValueError(f"build_graph: k must be >= 1, got {k}")
    k_eff = min(k, n - 1)
    if k_eff != k:
        log.info("build_graph: lowering k from %d to %d for %d residues", k, k_eff, n)
    X = rs.ca
    src, dst = knn_edges(X, k_eff)
    neighbors = src.reshape(n, k_eff)
    frames = local_frames(rs)
    feats = _edge_feature_block(X, frames, src, dst)
    rho = surface_features(X, neighbors)
    return ProteinGraph(
        X=X.copy(),
        types=rs.types.copy(),
        rho=rho,
        neighbors=neighbors,
        edge_feats=feats,
        residues=rs,
        k=k_eff,
    )


def build_graph_pair(ligand: ResidueSet, receptor: ResidueSet,
                     k: int = DEFAULT_K) -> tuple[ProteinGraph, ProteinGraph]:
    """``(build_graph(ligand, k), build_graph(receptor, k))``, built as two branches.

    The graphs are independent, so ``tiles.branches`` builds the ligand's on
    this thread and the receptor's on the pool thread when the smaller
    protein's n x n distances span more than one tile. Below that, one graph
    takes so little of the time that splitting the tiles of each graph in
    turn is quicker. The graphs are the serial ones bit for bit, and when
    both builds fail the ligand's error is raised.
    """
    n = min(len(ligand), len(receptor))
    return tiles.branches(lambda: build_graph(ligand, k), lambda: build_graph(receptor, k),
                          tiles.spans(n, tiles.tile_rows(n)))
