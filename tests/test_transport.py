"""Exactness and feasibility of the uniform-marginal transport solver."""

import functools
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from rigiddock import transport
from rigiddock.autodiff import NonFiniteError
from rigiddock.transport import solve_uniform_transport

# No exp, log or divide in the solver or its starts may warn.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@functools.cache
def enumerate_tables(s, k):
    """All integer matrices with every row summing to k and column to s.

    These are exactly the scaled feasible points of the uniform transport
    polytope with entries on the 1/(s*k) grid, which contains every vertex,
    so minimizing over them is a true brute-force oracle. Cached per shape
    (read-only): the oracle tests draw the same few shapes many times.
    """
    rows = [r for r in itertools.product(range(k + 1), repeat=k) if sum(r) == k]
    tables = []

    def extend(partial, col_sums):
        if len(partial) == s:
            if all(c == s for c in col_sums):
                tables.append(np.array(partial))
            return
        remaining = s - len(partial)
        for row in rows:
            new_sums = tuple(c + r for c, r in zip(col_sums, row))
            if all(c <= s for c in new_sums):
                if all(s - c <= remaining * k for c in new_sums):
                    extend(partial + [row], new_sums)

    extend([], (0,) * k)
    tables = np.stack(tables)
    tables.flags.writeable = False
    return tables


def brute_force_objective(cost):
    s, k = cost.shape
    tables = enumerate_tables(s, k)
    values = tables.reshape(len(tables), -1) @ cost.ravel()
    return values.min() / (s * k)


def linprog_objective(cost):
    s, k = cost.shape
    a_eq = []
    b_eq = []
    for i in range(s):
        row = np.zeros(s * k)
        row[i * k:(i + 1) * k] = 1.0
        a_eq.append(row)
        b_eq.append(1.0 / s)
    for j in range(k):
        col = np.zeros(s * k)
        col[j::k] = 1.0
        a_eq.append(col)
        b_eq.append(1.0 / k)
    res = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def pocket_cost(rng, s, k):
    """Cost as ot_pocket_loss builds it: two 3-D squared-distance matrices, summed."""
    p1, p2 = rng.normal(size=(2, s, 3))
    y1, y2 = rng.normal(size=(2, k, 3))
    return (((p1[:, None] - y1[None]) ** 2).sum(axis=2)
            + ((p2[:, None] - y2[None]) ** 2).sum(axis=2))


def test_single_cell():
    plan, objective = solve_uniform_transport(np.array([[3.7]]))
    assert plan.shape == (1, 1)
    assert plan[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert objective == pytest.approx(3.7, abs=1e-12)


def test_two_by_two_prefers_zero_diagonal():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan, objective = solve_uniform_transport(cost)
    assert objective == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(plan, np.diag([0.5, 0.5]), atol=1e-12)


def test_matches_brute_force_small_shapes():
    rng = np.random.default_rng(42)
    for trial in range(200):
        s = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        cost = rng.uniform(0.0, 10.0, size=(s, k))
        tables = enumerate_tables(s, k)
        oracle = (tables.reshape(len(tables), -1) @ cost.ravel()).min() / (s * k)
        _, objective = solve_uniform_transport(cost)
        assert objective == pytest.approx(oracle, abs=1e-9), f"trial {trial} shape {(s, k)}"


def test_matches_linprog_rectangular():
    rng = np.random.default_rng(7)
    costs = [rng.uniform(0.0, 5.0, size=(s, k))
             for s, k in [(3, 7), (7, 3), (5, 5), (2, 9), (11, 4)]]
    # Workload sizes: an 85-contact interface and the 5-contact toy ring.
    rng = np.random.default_rng(8)
    costs += [pocket_cost(rng, s, k) for s, k in [(85, 50), (5, 50)]]
    for cost in costs:
        _, objective = solve_uniform_transport(cost)
        assert objective == pytest.approx(linprog_objective(cost), abs=1e-9)


def test_marginals_exact_large():
    rng = np.random.default_rng(3)
    for s, k in [(1, 200), (200, 1), (37, 101), (200, 200), (128, 50)]:
        cost = rng.uniform(0.0, 1.0, size=(s, k))
        plan, objective = solve_uniform_transport(cost)
        assert np.max(np.abs(plan.sum(axis=1) - 1.0 / s)) <= 1e-9
        assert np.max(np.abs(plan.sum(axis=0) - 1.0 / k)) <= 1e-9
        assert np.all(plan >= -1e-15)
        assert objective == pytest.approx(float(np.sum(plan * cost)), abs=1e-12)


def test_never_beaten_by_random_feasible_plans():
    rng = np.random.default_rng(19)
    for _ in range(20):
        s = int(rng.integers(2, 7))
        k = int(rng.integers(2, 7))
        cost = rng.uniform(0.0, 4.0, size=(s, k))
        _, objective = solve_uniform_transport(cost)
        for _ in range(50):
            plan = rng.uniform(0.1, 1.0, size=(s, k))
            for _ in range(60):  # alternate marginal scaling onto the polytope
                plan *= (1.0 / s) / plan.sum(axis=1, keepdims=True)
                plan *= (1.0 / k) / plan.sum(axis=0, keepdims=True)
            value = float(np.sum(plan * cost))
            assert value >= objective - 1e-7


def test_solution_is_sparse_vertex():
    rng = np.random.default_rng(5)
    for _ in range(30):
        s = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        cost = rng.uniform(0.0, 1.0, size=(s, k))
        plan, _ = solve_uniform_transport(cost)
        assert np.count_nonzero(plan > 1e-12) <= s + k - 1


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_uniform_transport(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        solve_uniform_transport(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        solve_uniform_transport(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        solve_uniform_transport(np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cost_is_a_numerical_failure(bad):
    cost = np.ones((2, 3))
    cost[1, 2] = bad
    with pytest.raises(NonFiniteError, match="non-finite"):
        solve_uniform_transport(cost)


def test_bland_fallback_solves_permutation_cost(monkeypatch):
    # A 0/1 cost with a zero-cost perfect matching is highly degenerate; on
    # this permutation the Dantzig rule makes a long run of zero-volume
    # pivots, so Bland's rule takes over (66 selections).
    bland_calls = []
    bland = transport._first_negative_reduced_cost

    def counting_bland(*args):
        bland_calls.append(args)
        return bland(*args)

    monkeypatch.setattr(transport, "_first_negative_reduced_cost", counting_bland)
    n = 50
    perm = np.random.default_rng(2).permutation(n)
    cost = np.ones((n, n))
    cost[np.arange(n), perm] = 0.0
    plan, objective = solve_uniform_transport(cost)
    expected = np.zeros((n, n))
    expected[np.arange(n), perm] = 1.0 / n
    np.testing.assert_array_equal(plan, expected)
    assert objective == 0.0
    assert bland_calls


@st.composite
def small_integer_costs(draw):
    s = draw(st.integers(1, 10))
    k = draw(st.integers(1, 10))
    return draw(arrays(np.float64, (s, k), elements=st.sampled_from([0.0, 1.0, 2.0, 3.0])))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_integer_costs())
def test_property_optimal_sparse_vertex(cost):
    # Few distinct costs make ties and degenerate bases common.
    s, k = cost.shape
    plan, objective = solve_uniform_transport(cost)
    assert objective == pytest.approx(linprog_objective(cost), abs=1e-9)
    assert np.max(np.abs(plan.sum(axis=1) - 1.0 / s)) <= 1e-9
    assert np.max(np.abs(plan.sum(axis=0) - 1.0 / k)) <= 1e-9
    assert np.count_nonzero(plan) <= s + k - 1


def count_pivots(monkeypatch):
    """Monkeypatch the basis pivot to count its calls; returns the counter list."""
    calls = []
    pivot = transport._Basis.pivot

    def counting_pivot(self, *cell):
        calls.append(cell)
        return pivot(self, *cell)

    monkeypatch.setattr(transport._Basis, "pivot", counting_pivot)
    return calls


@st.composite
def perturbed_float_costs(draw):
    # Costs come from a drawn seed so they are generic floats: the optimum
    # is unique, and any exact solver must return the same plan.
    s = draw(st.integers(1, 12))
    k = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-9, 1e-4, 1e-2, 1.0, 10.0]))
    c0 = rng.uniform(0.0, 10.0, size=(s, k))
    return c0, c0 + scale * rng.standard_normal((s, k))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(perturbed_float_costs())
def test_property_warm_start_matches_cold_plan(costs):
    c0, c1 = costs
    warm = transport.WarmStart()
    guided_plan, guided_objective = solve_uniform_transport(c0, warm)
    plan, objective = solve_uniform_transport(c1, warm)
    cold_plan, cold_objective = solve_uniform_transport(c1)
    np.testing.assert_array_equal(plan, cold_plan)
    assert objective == cold_objective
    # The empty holder's solve started from the guided basis; the optimum
    # of a generic float cost is unique, so its plan is the cold one's.
    nw_plan, nw_objective = solve_uniform_transport(c0)
    np.testing.assert_array_equal(guided_plan, nw_plan)
    assert guided_objective == nw_objective


@st.composite
def small_integer_cost_pairs(draw):
    s = draw(st.integers(1, 10))
    k = draw(st.integers(1, 10))
    values = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    return (draw(arrays(np.float64, (s, k), elements=values)),
            draw(arrays(np.float64, (s, k), elements=values)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_integer_cost_pairs())
def test_property_warm_start_optimal_sparse_vertex(costs):
    # With ties the warm solve may stop at another optimal vertex than a
    # cold one, so it is held to optimality and feasibility instead.
    c0, c1 = costs
    s, k = c1.shape
    warm = transport.WarmStart()
    solve_uniform_transport(c0, warm)
    plan, objective = solve_uniform_transport(c1, warm)
    assert objective == pytest.approx(linprog_objective(c1), abs=1e-9)
    assert np.max(np.abs(plan.sum(axis=1) - 1.0 / s)) <= 1e-9
    assert np.max(np.abs(plan.sum(axis=0) - 1.0 / k)) <= 1e-9
    assert np.count_nonzero(plan) <= s + k - 1


def test_warm_start_from_own_optimum_makes_no_pivot(monkeypatch):
    calls = count_pivots(monkeypatch)
    cost = pocket_cost(np.random.default_rng(11), 30, 20)
    warm = transport.WarmStart()
    plan, _ = solve_uniform_transport(cost, warm)
    assert calls and warm.shape == (30, 20)
    calls.clear()
    again, _ = solve_uniform_transport(cost, warm)
    assert not calls
    np.testing.assert_array_equal(again, plan)


def test_warm_start_of_another_shape_is_ignored(monkeypatch):
    calls = count_pivots(monkeypatch)
    rng = np.random.default_rng(12)
    warm = transport.WarmStart()
    solve_uniform_transport(pocket_cost(rng, 12, 9), warm)
    cost = pocket_cost(rng, 9, 12)
    calls.clear()
    cold_plan, _ = solve_uniform_transport(cost)
    cold_pivots = list(calls)
    calls.clear()
    plan, _ = solve_uniform_transport(cost, warm)
    assert calls == cold_pivots
    np.testing.assert_array_equal(plan, cold_plan)
    assert warm.shape == (9, 12)


def test_stale_warm_potentials_fail_fast(monkeypatch):
    # Mutation: a warm start that refreshes only the root's first subtree,
    # so the others keep the potentials of the previous cost. Each pivot's
    # cycle cost must expose the wrong prices at once. Without that check
    # the solve pivots on them and, depending on the defect, ends at the
    # optimum by luck, at a suboptimal plan, or at the pivot cap (about
    # 2.4 million pivots at 87 x 50).
    rng = np.random.default_rng(13)
    previous, cost = pocket_cost(rng, 87, 50), pocket_cost(rng, 87, 50)
    warm = transport.WarmStart()
    solve_uniform_transport(previous, warm)
    previous_pot = transport._Basis(previous, 87, 50, warm, 0.0).pot
    init = transport._Basis.__init__

    def partly_refreshed(self, cost, s, k, warm, cycle_tol):
        init(self, cost, s, k, warm, cycle_tol)
        stale = self.children[0][1:]
        assert stale, "the warm tree's root has one subtree; nothing to leave stale"
        while stale:
            node = stale.pop()
            self.pot[node] = previous_pot[node]
            stale += self.children[node]

    monkeypatch.setattr(transport._Basis, "__init__", partly_refreshed)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="potentials are stale"):
        solve_uniform_transport(cost, warm)
    assert time.monotonic() - start < 5.0


def test_warm_tree_missing_a_node_raises():
    # A holder whose tree no longer reaches its last node, as a caller edit
    # or a start that fails to span would leave it. That node's parent -1
    # reads as itself, so the first pivot's cycle walk looped forever.
    rng = np.random.default_rng(13)
    warm = transport.WarmStart()
    solve_uniform_transport(pocket_cost(rng, 50, 87), warm)
    node = 50 + 87 - 1
    warm.children[warm.parent[node]].remove(node)
    warm.parent[node] = -1
    with pytest.raises(RuntimeError, match=r"misses \d+ of its 136 non-root nodes"):
        solve_uniform_transport(pocket_cost(rng, 50, 87), warm)


def assert_sparse_vertex(plan):
    """The plan is a scaled integer table with exact marginals and at most S+K-1 nonzeros."""
    s, k = plan.shape
    alloc = np.rint(plan * (s * k))
    np.testing.assert_array_equal(plan, alloc / (s * k))
    assert np.all(alloc >= 0)
    assert np.all(alloc.sum(axis=1) == k)
    assert np.all(alloc.sum(axis=0) == s)
    assert np.count_nonzero(alloc) <= s + k - 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_integer_costs())
def test_property_guided_start_optimal_sparse_vertex(cost):
    # Few distinct costs make ties among the guided order and degenerate
    # greedy allocations common, so the zero-flow completion is exercised.
    plan, objective = solve_uniform_transport(cost, transport.WarmStart())
    assert objective == pytest.approx(linprog_objective(cost), abs=1e-9)
    assert_sparse_vertex(plan)


def test_guided_start_quarters_pivots(monkeypatch):
    # 404 pivots from the northwest corner, 69 from the guided start; a
    # least-cost order of the reduced cost without the scaling makes 154.
    calls = count_pivots(monkeypatch)
    cost = pocket_cost(np.random.default_rng(14), 87, 50)
    cold_plan, _ = solve_uniform_transport(cost)
    cold_pivots = len(calls)
    calls.clear()
    warm = transport.WarmStart()
    plan, _ = solve_uniform_transport(cost, warm)
    assert len(calls) <= cold_pivots // 4, (len(calls), cold_pivots)
    np.testing.assert_array_equal(plan, cold_plan)
    assert warm.shape == (87, 50)


@pytest.mark.parametrize("kind", ["pocket", "ties"])
def test_guided_tree_spans_and_holds_the_greedy_flows(kind):
    rng = np.random.default_rng(15)
    if kind == "pocket":
        cost = pocket_cost(rng, 23, 17)
    else:
        # Supplies of 12 and demands of 8 often run out together, so the
        # greedy forest needs zero-flow cells to span.
        cost = rng.integers(0, 4, size=(8, 12)).astype(np.float64)
    s, k = cost.shape
    parent, flow, children = transport._guided_tree(cost)
    assert parent[0] == -1
    alloc = np.zeros((s, k), dtype=np.int64)
    for node in range(1, s + k):
        up = parent[node]
        assert node in children[up]
        assert (node < s) != (up < s), "a basic cell joins a row and a column"
        cell = (node, up - s) if node < s else (up, node - s)
        alloc[cell] = flow[node]
        seen = {node}
        while up != -1:  # every node reaches the root without a cycle
            assert up not in seen
            seen.add(up)
            up = parent[up]
    assert sum(map(len, children)) == s + k - 1
    assert np.all(alloc.sum(axis=1) == k) and np.all(alloc.sum(axis=0) == s)


def _degenerate_costs():
    rng = np.random.default_rng(16)
    heavy = rng.uniform(0.0, 1.0, size=(9, 7))
    heavy[4] *= 1e12
    return {
        "constant": np.full((6, 8), 2.5),
        "one row": rng.uniform(0.0, 1.0, size=(1, 9)),
        "one column": rng.uniform(0.0, 1.0, size=(9, 1)),
        "one heavy row": heavy,
        "near 1e-300": 1e-300 * rng.uniform(1.0, 2.0, size=(7, 5)),
        "subnormal": 1e-320 * rng.integers(1, 50, size=(7, 5)).astype(np.float64),
        "near +-1e300": 1e300 * rng.uniform(-1.0, 1.0, size=(6, 9)),
        "near 1e300": 1e300 * rng.uniform(1.0, 1.5, size=(8, 4)),
    }


@pytest.mark.parametrize("name", list(_degenerate_costs()))
def test_guided_start_degenerate_costs(name):
    cost = _degenerate_costs()[name]
    plan, objective = solve_uniform_transport(cost, transport.WarmStart())
    _, cold_objective = solve_uniform_transport(cost)
    assert_sparse_vertex(plan)
    eps = 1e-12 * (1.0 + float(np.abs(cost).max()))
    assert abs(objective - cold_objective) <= eps


@pytest.mark.parametrize("shape", [(6, 8), (1, 9), (9, 1)])
def test_guided_order_skips_scaling_when_the_cost_reduces_to_zero(shape, monkeypatch):
    # A constant cost, and any single row or column, reduce to all zeros:
    # no scaling runs, and the order is row-major.
    cost = np.random.default_rng(17).uniform(size=shape)
    if min(shape) > 1:
        cost[:] = 2.5

    def no_exp(*args, **kwargs):
        raise AssertionError("the scaling ran")

    monkeypatch.setattr(transport.np, "exp", no_exp)
    np.testing.assert_array_equal(transport._guided_order(cost), np.arange(cost.size))


def test_guided_order_is_a_function_of_the_cost_values(monkeypatch):
    # The sort keys, not only their order, must not depend on the cost's
    # memory layout: einsum sums a Fortran-ordered kernel in another order.
    keys = []
    argsort = np.argsort

    def recording_argsort(a, *args, **kwargs):
        keys.append(a.tobytes())
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(transport.np, "argsort", recording_argsort)
    cost = pocket_cost(np.random.default_rng(18), 41, 29)
    order = transport._guided_order(cost)
    np.testing.assert_array_equal(transport._guided_order(np.asfortranarray(cost)), order)
    assert keys[0] == keys[1]
