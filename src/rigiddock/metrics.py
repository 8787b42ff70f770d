"""Pose-quality metrics.

All functions take 3 x n coordinate arrays. Superimposition here goes
through ``np.linalg.svd`` on purpose: it gives the evaluation pipeline a
route independent of the differentiable solver used by the network, so a
bug in one cannot silently cancel in the other.
"""

from __future__ import annotations

import numpy as np

from .graphs import contact_pairs

INTERFACE_CUTOFF = 8.0


class NoContactError(ValueError):
    """The two proteins share no residue pair within the contact cutoff."""


def kabsch_align(P: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal rotation and translation mapping P onto Q (least squares).

    Returns (R, t) with R @ P + t the aligned copy of P.
    """
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if P.shape != Q.shape or P.ndim != 2 or P.shape[0] != 3:
        raise ValueError(f"kabsch_align: shapes {P.shape} and {Q.shape}, expected matching (3, n)")
    cp = P.mean(axis=1, keepdims=True)
    cq = Q.mean(axis=1, keepdims=True)
    A = (Q - cq) @ (P - cp).T
    U, _, Vt = np.linalg.svd(A)
    d = np.sign(np.linalg.det(U @ Vt))
    R = U @ np.diag([1.0, 1.0, d]) @ Vt
    t = (cq - R @ cp).ravel()
    return R, t


def rmsd(P: np.ndarray, Q: np.ndarray) -> float:
    """Root mean square deviation between matched point sets (no alignment)."""
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if P.shape != Q.shape:
        raise ValueError(f"rmsd: shapes {P.shape} and {Q.shape} differ")
    return float(np.sqrt(np.mean(np.sum((P - Q) ** 2, axis=0))))


def ligand_rmsd(pred_ligand: np.ndarray, true_ligand: np.ndarray) -> float:
    """RMSD of the ligand pose as placed, without any superimposition."""
    return rmsd(pred_ligand, true_ligand)


def complex_rmsd(pred_ligand: np.ndarray, true_ligand: np.ndarray,
                 receptor: np.ndarray) -> float:
    """RMSD over the full complex after superimposing predicted onto true.

    The receptor is shared between both complexes; superimposition uses
    every point so a rigidly consistent prediction scores zero.
    """
    pred = np.concatenate([pred_ligand, receptor], axis=1)
    true = np.concatenate([true_ligand, receptor], axis=1)
    R, t = kabsch_align(pred, true)
    return rmsd(R @ pred + t[:, None], true)


def interface_indices(true_ligand: np.ndarray,
                      receptor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residue indices on each side within ``INTERFACE_CUTOFF`` of the other side.

    Distances are measured on the bound (true) complex (``contact_pairs``).
    """
    lig, rec, _ = contact_pairs(true_ligand, receptor, INTERFACE_CUTOFF)
    return np.unique(lig), np.unique(rec)


def interface_rmsd(pred_ligand: np.ndarray, true_ligand: np.ndarray,
                   receptor: np.ndarray) -> float:
    """``complex_rmsd`` restricted to the interface residues (``interface_indices``)."""
    lig_idx, rec_idx = interface_indices(true_ligand, receptor)
    if lig_idx.size == 0:
        raise NoContactError(
            f"no interface residues within {INTERFACE_CUTOFF} A of the other protein")
    return complex_rmsd(pred_ligand[:, lig_idx], true_ligand[:, lig_idx], receptor[:, rec_idx])
