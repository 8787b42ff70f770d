"""Evaluation metrics: RMSD variants and interface selection."""

import numpy as np
import pytest

from rigiddock.geometry import random_rotation
from rigiddock.metrics import (
    complex_rmsd,
    interface_indices,
    interface_rmsd,
    kabsch_align,
    ligand_rmsd,
    rmsd,
)


def direct_rmsd(P, Q):
    """Root mean square deviation written out longhand."""
    total = 0.0
    for i in range(P.shape[1]):
        d = P[:, i] - Q[:, i]
        total += d[0] ** 2 + d[1] ** 2 + d[2] ** 2
    return (total / P.shape[1]) ** 0.5


def test_rmsd_matches_direct_formula():
    rng = np.random.default_rng(0)
    for _ in range(10):
        P = rng.normal(size=(3, 15))
        Q = rng.normal(size=(3, 15))
        assert abs(rmsd(P, Q) - direct_rmsd(P, Q)) <= 1e-12


def test_rmsd_single_column_off_by_one():
    P = np.zeros((3, 10))
    Q = np.zeros((3, 10))
    Q[0, 3] = 1.0
    assert abs(rmsd(P, Q) - np.sqrt(0.1)) <= 1e-15


def test_kabsch_align_recovers_motion():
    rng = np.random.default_rng(1)
    for _ in range(10):
        P = rng.normal(scale=5.0, size=(3, 20))
        R = random_rotation(rng)
        t = rng.uniform(-20, 20, size=(3, 1))
        R_fit, t_fit = kabsch_align(P, R @ P + t)
        assert np.max(np.abs(R_fit - R)) <= 1e-9
        assert np.max(np.abs(t_fit - t.ravel())) <= 1e-9
        assert abs(np.linalg.det(R_fit) - 1.0) <= 1e-12


def test_ligand_rmsd_is_unaligned():
    rng = np.random.default_rng(2)
    P = rng.normal(size=(3, 12))
    t = np.array([3.0, -4.0, 0.0])[:, None]
    # a pure translation changes ligand_rmsd, which does no superposition
    assert abs(ligand_rmsd(P + t, P) - 5.0) <= 1e-12


def test_complex_rmsd_zero_for_identical_and_invariant():
    rng = np.random.default_rng(3)
    lig = rng.normal(size=(3, 8))
    rec = rng.normal(size=(3, 14)) + np.array([12.0, 0, 0])[:, None]
    assert complex_rmsd(lig, lig, rec) <= 1e-12
    pred = lig + rng.normal(scale=0.5, size=lig.shape)
    base = complex_rmsd(pred, lig, rec)
    for _ in range(5):
        R = random_rotation(rng)
        t = rng.uniform(-30, 30, size=(3, 1))
        moved = complex_rmsd(R @ pred + t, R @ lig + t, R @ rec + t)
        assert abs(moved - base) <= 1e-9


def test_complex_rmsd_aligns_whole_complex():
    # a rigid motion of the prediction alone is removed by superposition
    rng = np.random.default_rng(4)
    lig = rng.normal(size=(3, 8))
    rec = rng.normal(size=(3, 10)) + np.array([11.0, 0, 0])[:, None]
    R = random_rotation(rng)
    moved_all = complex_rmsd(R @ lig, R @ lig, R @ rec)
    assert moved_all <= 1e-12


def brute_force_interface(lig, rec, cutoff):
    li, ri = set(), set()
    for i in range(lig.shape[1]):
        for j in range(rec.shape[1]):
            if np.linalg.norm(lig[:, i] - rec[:, j]) < cutoff:
                li.add(i)
                ri.add(j)
    return sorted(li), sorted(ri)


def test_interface_selection_two_residue_fixture():
    lig = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 30.0]])
    rec = np.array([[6.0, 20.0], [0.0, 0.0], [0.0, 0.0]])
    li, ri = interface_indices(lig, rec)
    assert li.tolist() == [0] and ri.tolist() == [0]


def test_interface_selection_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(10):
        lig = rng.uniform(-10, 10, size=(3, 12))
        rec = rng.uniform(-10, 10, size=(3, 15))
        li, ri = interface_indices(lig, rec)
        bli, bri = brute_force_interface(lig, rec, 8.0)
        assert li.tolist() == bli and ri.tolist() == bri


def test_interface_rmsd_empty_interface_raises():
    lig = np.zeros((3, 4))
    rec = np.zeros((3, 4)) + np.array([100.0, 0, 0])[:, None]
    with pytest.raises(ValueError):
        interface_rmsd(lig, lig, rec)


def test_interface_rmsd_restricts_to_contact_columns():
    lig = np.array([[0.0, 50.0], [0.0, 0.0], [0.0, 0.0]])
    rec = np.array([[5.0, 0.0], [0.0, 80.0], [0.0, 0.0]])
    # only ligand column 0 and receptor column 0 are in contact
    pred_lig = lig.copy()
    pred_lig[:, 1] += 1000.0  # far-away residue must not affect the score
    assert interface_rmsd(pred_lig, lig, rec) <= 1e-9
