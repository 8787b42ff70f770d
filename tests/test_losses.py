"""Objectives: pocket construction, transport matching, steric penalty."""

import numpy as np
import pytest

from rigiddock import autodiff as ad
from rigiddock.geometry import random_rotation
from rigiddock.losses import (INTERSECTION_GAMMA, INTERSECTION_SIGMA, NoContactError,
                              intersection_loss, mse_loss, ot_pocket_loss,
                              pocket_points, total_loss)


def brute_force_pockets(X1, X2, tau=8.0):
    mids = []
    for i in range(X1.shape[1]):
        for j in range(X2.shape[1]):
            if np.linalg.norm(X1[:, i] - X2[:, j]) < tau:
                mids.append(0.5 * (X1[:, i] + X2[:, j]))
    return np.array(mids).T if mids else np.zeros((3, 0))


def reference_intersection(X1, X2, gamma=INTERSECTION_GAMMA, sigma=INTERSECTION_SIGMA):
    """Direct loop reimplementation of the steric penalty."""
    def g(x, cloud):
        return -sigma * np.log(np.sum(np.exp(-np.sum((cloud - x[:, None]) ** 2, axis=0) / sigma)))

    one = np.mean([max(0.0, gamma - g(X1[:, i], X2)) for i in range(X1.shape[1])])
    two = np.mean([max(0.0, gamma - g(X2[:, j], X1)) for j in range(X2.shape[1])])
    return one + two


# -- pocket points -----------------------------------------------------------


def test_single_contact_midpoint():
    X1 = np.array([[0.0], [0.0], [0.0]])
    X2 = np.array([[6.0], [0.0], [0.0]])
    P = pocket_points(X1, X2)
    assert P.shape == (3, 1)
    assert np.allclose(P[:, 0], [3.0, 0.0, 0.0], atol=1e-15)


def test_contact_cutoff_is_strict():
    X1 = np.zeros((3, 1))
    X2 = np.array([[8.0], [0.0], [0.0]])
    with pytest.raises(NoContactError):
        pocket_points(X1, X2)
    with pytest.raises(NoContactError):
        pocket_points(X1, X2 + 5.0)


def test_pockets_match_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(20):
        X1 = rng.uniform(0, 15, size=(3, 5))
        X2 = rng.uniform(0, 15, size=(3, 5))
        oracle = brute_force_pockets(X1, X2)
        if oracle.shape[1] == 0:
            with pytest.raises(NoContactError):
                pocket_points(X1, X2)
            continue
        P = pocket_points(X1, X2)
        assert P.shape == oracle.shape
        assert np.allclose(P, oracle, atol=1e-12)


# -- surface field -----------------------------------------------------------


def test_field_value_on_and_off_a_single_point():
    X = np.zeros((3, 1))
    on = ad.soft_min(np.zeros((3, 1)), X, INTERSECTION_SIGMA)[0][0]
    off = ad.soft_min(np.array([[5.0], [0.0], [0.0]]), X, INTERSECTION_SIGMA)[0][0]
    assert on == pytest.approx(0.0, abs=1e-12)
    assert off == pytest.approx(25.0, abs=1e-10)


def test_field_value_for_coincident_cloud():
    n = 7
    X = np.zeros((3, n))
    D = 4.0
    got = ad.soft_min(np.array([[D], [0.0], [0.0]]), X, INTERSECTION_SIGMA)[0][0]
    assert got == pytest.approx(D * D - INTERSECTION_SIGMA * np.log(n), abs=1e-10)


# -- intersection loss -------------------------------------------------------


def test_far_apart_is_exactly_zero():
    rng = np.random.default_rng(1)
    X1 = rng.standard_normal((3, 8))
    X2 = rng.standard_normal((3, 6)) + np.array([[100.0], [0.0], [0.0]])
    assert intersection_loss(X1, X2).item() == 0.0


def test_coincident_single_points():
    X = np.array([[1.0], [2.0], [3.0]])
    assert intersection_loss(X, X.copy()).item() == pytest.approx(2 * INTERSECTION_GAMMA, abs=1e-12)


def test_matches_reference_reimplementation():
    rng = np.random.default_rng(2)
    for _ in range(10):
        X1 = rng.uniform(0, 10, size=(3, 9))
        X2 = rng.uniform(0, 10, size=(3, 7))
        got = intersection_loss(X1, X2).item()
        assert got == pytest.approx(reference_intersection(X1, X2), abs=1e-12)


def test_symmetry_and_rigid_invariance():
    rng = np.random.default_rng(3)
    X1 = rng.uniform(0, 12, size=(3, 10))
    X2 = rng.uniform(0, 12, size=(3, 8))
    a = intersection_loss(X1, X2).item()
    assert intersection_loss(X2, X1).item() == pytest.approx(a, abs=1e-12)
    for _ in range(5):
        R = random_rotation(rng)
        t = rng.uniform(-40, 40, size=(3, 1))
        b = intersection_loss(R @ X1 + t, R @ X2 + t).item()
        assert b == pytest.approx(a, abs=1e-9)


def test_no_overflow_at_extreme_separation():
    X1 = np.zeros((3, 4))
    X2 = np.full((3, 5), 1e4)
    value = intersection_loss(X1, X2).item()
    assert np.isfinite(value) and value == 0.0


def test_intersection_gradient():
    rng = np.random.default_rng(4)
    X1 = rng.uniform(0, 6, size=(3, 5))
    X2 = rng.uniform(0, 6, size=(3, 4))
    p = ad.parameter(X1)

    def f():
        return intersection_loss(p, X2)

    assert ad.grad_check(f, [p]) <= 1e-4


def test_intersection_loss_records_three_tape_nodes():
    """One fused node per direction and the add."""
    rng = np.random.default_rng(10)
    p = ad.parameter(rng.uniform(0, 6, size=(3, 5)))
    with ad.Tape() as tape:
        loss = intersection_loss(p, rng.uniform(0, 6, size=(3, 4)))
        assert len(tape) == 3
        tape.backward(loss)
    assert p.grad is not None and p.grad.shape == (3, 5)


# -- transport loss ----------------------------------------------------------


def test_keypoints_on_pockets_scores_zero():
    rng = np.random.default_rng(5)
    P1 = rng.uniform(0, 10, size=(3, 6))
    P2 = rng.uniform(0, 10, size=(3, 6))
    loss = ot_pocket_loss(ad.constant(P1), ad.constant(P2), P1, P2)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_single_keypoint_averages_cost():
    rng = np.random.default_rng(6)
    P1 = rng.uniform(0, 5, size=(3, 4))
    P2 = rng.uniform(0, 5, size=(3, 4))
    y1 = rng.uniform(0, 5, size=(3, 1))
    y2 = rng.uniform(0, 5, size=(3, 1))
    expected = np.mean(np.sum((P1 - y1) ** 2, axis=0) + np.sum((P2 - y2) ** 2, axis=0))
    loss = ot_pocket_loss(ad.constant(y1), ad.constant(y2), P1, P2)
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_frozen_plan_gradient():
    rng = np.random.default_rng(7)
    P1 = rng.uniform(0, 8, size=(3, 5))
    P2 = rng.uniform(0, 8, size=(3, 5))
    Y1 = ad.parameter(rng.uniform(0, 8, size=(3, 3)))
    Y2 = ad.parameter(rng.uniform(0, 8, size=(3, 3)))

    def f():
        return ot_pocket_loss(Y1, Y2, P1, P2)

    assert ad.grad_check(f, [Y1, Y2]) <= 1e-4


def test_transport_loss_beats_no_feasible_matching():
    rng = np.random.default_rng(8)
    P1 = rng.uniform(0, 9, size=(3, 4))
    P2 = rng.uniform(0, 9, size=(3, 4))
    Y1 = rng.uniform(0, 9, size=(3, 4))
    Y2 = rng.uniform(0, 9, size=(3, 4))
    loss = ot_pocket_loss(ad.constant(Y1), ad.constant(Y2), P1, P2).item()
    cost = (np.sum((P1[:, :, None] - Y1[:, None, :]) ** 2, axis=0)
            + np.sum((P2[:, :, None] - Y2[:, None, :]) ** 2, axis=0))
    # every permutation matching is feasible, so none may undercut the optimum
    import itertools
    for perm in itertools.permutations(range(4)):
        value = np.mean([cost[s, perm[s]] for s in range(4)])
        assert value >= loss - 1e-9


# -- pose error and the combined objective -----------------------------------


def test_mse_single_point():
    pred = ad.constant(np.array([[3.0], [4.0], [0.0]]))
    assert mse_loss(pred, np.zeros((3, 1))).item() == pytest.approx(25.0, abs=1e-12)


def test_mse_averages_over_residues():
    pred = ad.constant(np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]))
    assert mse_loss(pred, np.zeros((3, 2))).item() == pytest.approx((1.0 + 4.0) / 2, abs=1e-12)


def test_total_loss_combines_parts():
    rng = np.random.default_rng(9)
    pred = ad.constant(rng.uniform(0, 10, size=(3, 6)))
    true = rng.uniform(0, 10, size=(3, 6))
    Y1 = ad.constant(rng.uniform(0, 10, size=(3, 3)))
    Y2 = ad.constant(rng.uniform(0, 10, size=(3, 3)))
    P1 = rng.uniform(0, 10, size=(3, 4))
    P2 = rng.uniform(0, 10, size=(3, 4))
    receptor = rng.uniform(0, 10, size=(3, 5))
    loss, parts = total_loss(pred, true, Y1, Y2, P1, P2, receptor)
    assert set(parts) == {"mse", "ot", "intersection", "total"}
    expected = parts["mse"] + parts["ot"] + parts["intersection"]
    assert parts["total"] == pytest.approx(expected, abs=1e-9)
    assert loss.item() == pytest.approx(parts["total"], abs=1e-12)
