"""Exact optimal transport between uniform marginals.

Solves min <T, C> over S x K plans with row sums 1/S and column sums 1/K
using the transportation simplex. Internally the marginals are scaled to
integers (each row supplies K units, each column demands S units, grand
total S*K), so every allocation stays an exact integer and degeneracy
handling never depends on floating-point comparisons. The entering cell
is normally the most negative reduced cost (fast in practice); after a
long run of zero-volume pivots the rule switches to Bland's, whose
first-improving choice provably cannot cycle, until volume moves again.

The basis is a spanning tree over the S + K nodes (rows 0..S-1, columns
S..S+K-1) rooted at row 0, kept in node-indexed lists: parent, depth, the
integer flow on the edge to the parent, and children. A pivot walks both
ends of the entering cell up to their lowest common ancestor to find the
cycle, pushes the flow around it and re-hangs the subtree cut off by the
leaving cell under the other end. Only that subtree's potentials (u_0 = 0
at the root, u_i + v_j = c_ij on basic cells) and depths change. Each is
recomputed from its parent edge, which is the arithmetic of solving all
potentials afresh from the root: reduced costs and pivots match it exactly.
The walk also sums the signed costs around the cycle, which equal the
entering cell's reduced cost whenever the potentials fit the tree; a
mismatch raises at once instead of pivoting on wrong prices.

A solve starts from one of three bases, chosen by its ``WarmStart`` holder:

- Filled with this shape: the warm restart. Any spanning tree of an (S, K)
  problem with its stored flows is still a feasible basis for every other
  cost of that shape: the flows of a tree are fixed by the marginals alone
  (peel off leaves one at a time), and uniform marginals depend only on S
  and K. So the solve restarts from the holder's last optimal tree and
  flows, usually a few dozen pivots from the optimum.
- Empty: the guided start. A few iterations of entropic matrix scaling
  (Sinkhorn; Cuturi 2013) on the row-and-column-reduced cost give dual
  estimates f, g; cells taken in ascending order of c_ij - f_i - g_j get
  greedy integer allocations (the least-cost rule), and zero-flow cells in
  the same order complete the spanning tree. On 87 x 50 pocket costs this
  makes about a sixth of the northwest corner's pivots, and the start costs
  about a tenth of a cold solve.
- No holder, or one of another shape: the northwest corner. It stays as
  the reference start: the tests hold the other starts to its plans and
  pin its pivot sequence, and its long zero-volume runs on a permutation
  cost are what exercises the Bland fallback (the guided start solves that
  cost without a pivot).

Each start gives only parent and flow lists, rooted at row 0. One path
builds the children from the parents and every potential from the root with
the arithmetic above. It raises before any pivot if either list does not
have S + K entries, if the walk misses a node, or if the flows are not a
plan: a negative flow, or row sums other than K or column sums other than S.
A warm holder edited by its caller is then an error, not a plan with the
wrong marginals.

The returned plan is a vertex of the transport polytope with at most
S+K-1 nonzero entries.
"""

from __future__ import annotations

import numpy as np

from .autodiff import NonFiniteError

_MAX_PIVOTS_FACTOR = 200
# The guided start's matrix scaling: iterations, and the entropic
# regularisation in units of the mean row-and-column-reduced cost.
_SCALING_ITERATIONS = 20
_SCALING_REG = 0.1


class WarmStart:
    """Caller-owned holder for the last optimal basis of one (S, K) problem.

    Keeps only the tree's parent list and integer flows, never the cost. A
    filled holder of the solve's shape restarts from its tree; an empty one
    (``shape`` is None) makes the solve build the guided start from its cost;
    one of another shape is ignored, and the solve starts from the northwest corner.
    """

    __slots__ = ("shape", "parent", "flow")

    def __init__(self):
        self.shape: tuple[int, int] | None = None
        self.parent: list[int] = []
        self.flow: list[int] = []


def solve_uniform_transport(cost: np.ndarray,
                            warm: WarmStart | None = None) -> tuple[np.ndarray, float]:
    """Optimal plan and objective for uniform marginals U(S, K).

    cost: S x K array of finite values; a NaN or Inf entry raises
    ``NonFiniteError``. Returns (plan, objective) where plan rows sum to 1/S
    and columns to 1/K. ``warm``, if given, seeds the solve with its basis
    when the shape matches and receives the final one.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError(f"solve_uniform_transport: cost shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise NonFiniteError("solve_uniform_transport: cost has non-finite entries")
    s, k = cost.shape

    eps = 1e-12 * (1.0 + float(np.abs(cost).max()))
    # A potential sums up to s + k costs, so priced and cycle costs may
    # round apart by about that many eps; stale potentials are far beyond.
    tree = _Basis(cost, s, k, warm, cycle_tol=(s + k) * eps)
    max_pivots = _MAX_PIVOTS_FACTOR * (s + k) * max(s, k)
    reduced = np.empty((s, k))
    zero_streak = 0
    bland = False
    for _ in range(max_pivots):
        pot = np.fromiter(tree.pot, np.float64, s + k)
        # (c - u) - v, in that order, into one reused buffer.
        np.subtract(cost, pot[:s, None], out=reduced)
        np.subtract(reduced, pot[s:], out=reduced)
        if bland:
            entering = _first_negative_reduced_cost(reduced, eps, tree)
        else:
            entering = _most_negative_reduced_cost(reduced, eps)
        if entering is None:
            break
        if tree.pivot(*entering, reduced.item(entering)) == 0:
            zero_streak += 1
            bland = bland or zero_streak > s + k + 4
        else:
            zero_streak = 0
            bland = False
    else:
        raise RuntimeError("transportation simplex failed to converge")

    alloc = np.zeros((s, k), dtype=np.int64)
    for node in range(1, s + k):  # every node but the root holds one basic cell
        alloc[tree.cell(node)] = tree.flow[node]
    plan = alloc.astype(np.float64) / float(s * k)
    if warm is not None:
        warm.shape = (s, k)
        warm.parent, warm.flow = tree.parent, tree.flow
    return plan, float(np.sum(plan * cost))


class _Basis:
    """Basis tree with node-indexed parent, depth, flow, children and potentials.

    ``edge_cost[node]`` is the cost of the basic cell on the edge from
    ``node`` to its parent, set whenever that edge is made.
    """

    def __init__(self, cost: np.ndarray, s: int, k: int, warm: WarmStart | None,
                 cycle_tol: float):
        """The tree and flows of ``warm`` if it has this shape, the guided start if
        it is empty, else the NW-corner start."""
        self.s = s
        self.cost = cost.tolist()
        self.cycle_tol = cycle_tol
        n = s + k
        if warm is not None and warm.shape == (s, k):
            # Copies, so a failed solve leaves the holder as it was.
            self.parent, self.flow = list(warm.parent), list(warm.flow)
        elif warm is not None and warm.shape is None:
            self.parent, self.flow = _guided_tree(cost)
        else:
            self.parent, self.flow = _northwest_tree(s, k)
        if len(self.parent) != n or len(self.flow) != n:
            raise RuntimeError(f"transportation simplex: the start's basis tree lists "
                               f"{len(self.parent)} parents and {len(self.flow)} flows "
                               f"for its {n} nodes")
        self.depth = [0] * n
        self.pot = [0.0] * n
        self.edge_cost = [0.0] * n
        self.children = [[] for _ in range(n)]
        supplied, demanded = [0] * s, [0] * k
        for node in range(1, n):
            up = self.parent[node]
            # a pointer to no node of the other side (-1, itself) hangs it nowhere
            if 0 <= up < n and (node < s) != (up < s):
                self.children[up].append(node)
                i, j = self.cell(node)
                self.edge_cost[node] = self.cost[i][j]
                supplied[i] += self.flow[node]
                demanded[j] += self.flow[node]
        for node in self.children[0]:
            self._refresh(node)
        # Every node the walk reached has depth >= 1. One it missed (hung
        # nowhere, or on a cycle) would make the pivot's cycle walk loop
        # forever, so fail here instead.
        missed = self.depth.count(0) - 1
        if missed:
            raise RuntimeError(f"transportation simplex: the start's basis tree misses "
                               f"{missed} of its {n - 1} non-root nodes")
        # Pivots keep the sums a start's flows meet and never make a flow
        # negative, so the start's flows must be a plan: non-negative, each
        # row supplying k units and each column demanding s.
        if supplied != [k] * s or demanded != [s] * k or min(self.flow[1:], default=0) < 0:
            raise RuntimeError("transportation simplex: the start's basis tree carries "
                               "flows that are negative or miss the row and column sums")

    def _refresh(self, top: int) -> None:
        """Recompute depth and potential of ``top`` and its subtree from their parents."""
        edge_cost, parent, depth, pot = self.edge_cost, self.parent, self.depth, self.pot
        children = self.children
        stack = [top]
        while stack:
            node = stack.pop()
            up = parent[node]
            depth[node] = depth[up] + 1
            pot[node] = edge_cost[node] - pot[up]
            stack += children[node]

    def pivot(self, ei: int, ej: int, priced: float) -> int:
        """Push flow around the entering cell's cycle; returns the moved volume.

        ``priced`` is the entering cell's reduced cost from the potentials.
        The signed costs around the cycle sum to it whenever the potentials
        fit the tree, so a gap beyond ``cycle_tol`` means stale potentials:
        raise at once rather than pivot on wrong prices until the pivot cap.
        """
        s, parent, depth, flow, cost = self.s, self.parent, self.depth, self.flow, self.cost
        edge_cost = self.edge_cost
        # Going around the cycle from the entering cell (+), the tree edge
        # from a node to its parent gives back flow (-) when the node is a
        # row on the row's side of the cycle, or a column on the column's.
        minus, plus = [], []
        cycle = cost[ei][ej]
        a, b = ei, s + ej
        while a != b:
            if depth[a] >= depth[b]:
                up = parent[a]
                if a < s:
                    minus.append(a)
                    cycle -= cost[a][up - s]
                else:
                    plus.append(a)
                    cycle += cost[up][a - s]
                a = up
            else:
                up = parent[b]
                if b < s:
                    plus.append(b)
                    cycle += cost[b][up - s]
                else:
                    minus.append(b)
                    cycle -= cost[up][b - s]
                b = up
        if abs(cycle - priced) > self.cycle_tol:
            raise RuntimeError(f"transportation simplex: cell ({ei}, {ej}) priced at {priced!r} "
                               f"but its cycle costs {cycle!r}; the potentials are stale")
        # Ties on the smallest flow go to the lexicographically smallest cell.
        theta = min(map(flow.__getitem__, minus))
        tied = [x for x in minus if flow[x] == theta]
        leaving = min(tied, key=self.cell)
        for x in minus:
            flow[x] -= theta
        for x in plus:
            flow[x] += theta

        # Re-hang the subtree cut off by the leaving edge under the other end
        # of the entering cell, reversing the parent pointers up to ``leaving``.
        # Rows give back flow only on the row's side, so a row leaves from there.
        node, up = (ei, s + ej) if leaving < s else (s + ej, ei)
        top, carried = node, theta
        while True:
            old_up, old_flow = parent[node], flow[node]
            self.children[old_up].remove(node)
            parent[node] = up
            edge_cost[node] = cost[node][up - s] if node < s else cost[up][node - s]
            flow[node] = carried
            self.children[up].append(node)
            if node == leaving:
                break
            node, up, carried = old_up, node, old_flow
        self._refresh(top)
        return theta

    def cell(self, node: int) -> tuple[int, int]:
        """The basic cell (row, column) on the edge from ``node`` to its parent."""
        up = self.parent[node]
        return (node, up - self.s) if node < self.s else (up, node - self.s)


def _first_negative_reduced_cost(reduced, eps, tree):
    """Bland's entering rule: first cell in row-major order that improves."""
    for i, j in np.argwhere(reduced < -eps).tolist():
        # Basic cells have zero reduced cost anyway; skip any that carry flow.
        if not any(tree.cell(x) == (i, j) and tree.flow[x] for x in (i, tree.s + j)):
            return i, j
    return None


def _most_negative_reduced_cost(reduced, eps):
    """Dantzig's entering rule: the steepest improving cell."""
    flat = int(reduced.argmin())
    i, j = divmod(flat, reduced.shape[1])
    if reduced[i, j] < -eps:
        return i, j
    return None


def _guided_order(cost: np.ndarray) -> np.ndarray:
    """Flat cell indices in ascending order of ``c - f_i - g_j`` after matrix scaling.

    The cost is reduced by its row minima, then by its column minima, which
    leaves a zero in every row and column: the kernel ``exp(-c / reg)`` then
    holds a 1 in every line, so no scaling sum is zero and no scaling factor
    overflows within the fixed iteration count. The reduced cost is divided
    by its maximum first, so costs of any magnitude scale alike. A cost that
    reduces to all zeros (constant, one row or one column) is not scaled and
    keeps the row-major order. Every sum runs along one array axis, never
    through BLAS, so the order depends on the cost alone; ties keep the
    row-major order (stable sort).
    """
    s, k = cost.shape
    cost = np.ascontiguousarray(cost)  # one summation order for every layout
    reduced = cost - cost.min(axis=1, keepdims=True)
    reduced -= reduced.min(axis=0)
    top = reduced.max()
    if top > 0.0:
        reduced /= top
        reduced /= _SCALING_REG * reduced.mean()
        kernel = np.exp(-reduced)
        # Scaled marginals: row sums k, column sums s. einsum without
        # ``optimize`` sums in its own loops, never through BLAS.
        v = np.ones(k)
        for _ in range(_SCALING_ITERATIONS):
            u = k / np.einsum("ij,j->i", kernel, v)
            v = s / np.einsum("ij,i->j", kernel, u)
        reduced -= np.log(u)[:, None]
        reduced -= np.log(v)
    return np.argsort(reduced, axis=None, kind="stable")


def _northwest_tree(s: int, k: int) -> tuple[list[int], list[int]]:
    """Parent and flow lists of the integer NW-corner start, rooted at row 0."""
    parent, flow = [-1] * (s + k), [0] * (s + k)
    supply, demand = [k] * s, [s] * k
    i = j = 0
    node, up = s, 0  # the first cell (0, 0) hangs column 0 under row 0
    while True:
        amount = min(supply[i], demand[j])
        parent[node], flow[node] = up, amount
        supply[i] -= amount
        demand[j] -= amount
        if i == s - 1 and j == k - 1:
            return parent, flow
        # A degenerate step (both exhausted) advances one pointer only;
        # the next cell enters with a zero allocation, keeping a tree.
        if supply[i] == 0 and (demand[j] != 0 or j == k - 1):
            i += 1
            node, up = i, s + j
        else:
            j += 1
            node, up = s + j, i


def _guided_tree(cost: np.ndarray) -> tuple[list[int], list[int]]:
    """Parent and flow lists of the guided start, rooted at row 0.

    Cells taken in ``_guided_order`` receive the least of their row's and
    column's remaining supply and demand. Each allocation exhausts a line,
    so the allocated cells form a forest; zero-flow cells, in the same
    order, join its trees into a spanning tree.
    """
    s, k = cost.shape
    n = s + k
    rows, cols = np.divmod(_guided_order(cost), k)
    order = list(zip(rows.tolist(), cols.tolist()))
    supply, demand = [k] * s, [s] * k
    comp = list(range(n))  # union-find over the nodes

    def find(x):
        while comp[x] != x:
            comp[x] = x = comp[comp[x]]
        return x

    edges = []
    left = s * k
    for i, j in order:
        if supply[i] and demand[j]:
            amount = min(supply[i], demand[j])
            supply[i] -= amount
            demand[j] -= amount
            comp[find(i)] = find(s + j)
            edges.append((i, s + j, amount))
            left -= amount
            if not left:
                break
    for i, j in order:
        if len(edges) == n - 1:
            break
        a, b = find(i), find(s + j)
        if a != b:
            comp[a] = b
            edges.append((i, s + j, 0))

    linked = [[] for _ in range(n)]
    for row, col, amount in edges:
        linked[row].append((col, amount))
        linked[col].append((row, amount))
    parent, flow = [-1] * n, [0] * n
    stack = [0]
    while stack:
        node = stack.pop()
        for other, amount in linked[node]:
            if other != parent[node]:
                parent[other], flow[other] = node, amount
                stack.append(other)
    return parent, flow
