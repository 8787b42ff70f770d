"""Structural self-checks: the model's rigid-motion guarantees, measured.

Each check moves the inputs by random rigid motions, rebuilds their graphs
from the moved residues, and returns the worst deviation from what the
guarantee predicts. Tests and ``rigiddock check-equivariance`` run them.
"""

from __future__ import annotations

import numpy as np

from .docking import predict_dock
from .geometry import RigidTransform, random_se3
from .graphs import ProteinGraph, build_graph
from .metrics import complex_rmsd
from .model import DockingModel


def _rebuilt(g: ProteinGraph, move: RigidTransform) -> ProteinGraph:
    """The graph of ``g``'s residues after ``move``, built from scratch."""
    return build_graph(g.residues.transformed(move.R, move.t), g.k)


def check_pairwise_equivariance(model: DockingModel, g1: ProteinGraph, g2: ProteinGraph,
                                seed: int = 0, trials: int = 5) -> float:
    """Max relative deviation from the independent-motion contract.

    For random rigid motions (Q1, t1) and (Q2, t2) applied to the two inputs,
    coordinate outputs must move identically and feature outputs must not
    move at all. Deviations are scaled by the magnitude of the reference.
    """
    rng = np.random.default_rng(seed)
    base = model.forward(g1, g2)
    worst = 0.0
    for _ in range(trials):
        moves = (random_se3(rng), random_se3(rng))
        out = model.forward(_rebuilt(g1, moves[0]), _rebuilt(g2, moves[1]))
        for idx, move in enumerate(moves):
            z_ref = move.apply(base[2 * idx].data)
            z_dev = np.max(np.abs(out[2 * idx].data - z_ref))
            h_dev = np.max(np.abs(out[2 * idx + 1].data - base[2 * idx + 1].data))
            scale_z = max(1.0, np.max(np.abs(z_ref)))
            scale_h = max(1.0, np.max(np.abs(base[2 * idx + 1].data)))
            worst = max(worst, z_dev / scale_z, h_dev / scale_h)
    return worst


def check_transform_covariance(model: DockingModel, ligand: ProteinGraph,
                               receptor: ProteinGraph, seed: int = 0,
                               trials: int = 5) -> float:
    """How exactly the predicted motion tracks rigid motions of the inputs.

    Moving the ligand by (Q1, g1) and the receptor by (Q2, g2) must turn a
    prediction (R, t) into R' = Q2 R Q1^T and t' = Q2 t + g2 - R' g1.
    Returns the worst relative deviation across random trials.
    """
    rng = np.random.default_rng(seed)
    base = predict_dock(model, ligand, receptor)
    worst = 0.0
    for _ in range(trials):
        m1, m2 = random_se3(rng), random_se3(rng)
        moved = predict_dock(model, _rebuilt(ligand, m1), _rebuilt(receptor, m2))
        R_want = m2.R @ base.R @ m1.R.T
        t_want = m2.R @ base.t + m2.t - R_want @ m1.t
        dev_r = np.max(np.abs(moved.R - R_want))
        dev_t = np.max(np.abs(moved.t - t_want)) / max(1.0, np.max(np.abs(t_want)))
        worst = max(worst, dev_r, dev_t)
    return worst


def check_role_swap(model: DockingModel, ligand: ProteinGraph,
                    receptor: ProteinGraph) -> float:
    """Deviation between the swapped prediction and the inverse motion.

    Docking A onto B and B onto A must produce mutually inverse transforms:
    R_BA = R_AB^T and t_BA = -R_AB^T t_AB.
    """
    fwd = predict_dock(model, ligand, receptor)
    rev = predict_dock(model, receptor, ligand)
    inv = fwd.inverse()
    dev_r = np.max(np.abs(rev.R - inv.R))
    dev_t = np.max(np.abs(rev.t - inv.t)) / max(1.0, np.max(np.abs(inv.t)))
    return max(dev_r, dev_t)


def check_complex_invariance(model: DockingModel, ligand: ProteinGraph,
                             receptor: ProteinGraph, seed: int = 0,
                             trials: int = 5) -> float:
    """Worst RMSD between predicted complexes across random input poses.

    The assembled complex (posed ligand plus receptor) from any rigidly
    moved inputs must superimpose onto the base complex exactly.
    """
    rng = np.random.default_rng(seed)
    base = predict_dock(model, ligand, receptor)
    base_lig = base.apply(ligand.X)
    worst = 0.0
    for _ in range(trials):
        m1, m2 = random_se3(rng), random_se3(rng)
        lig_g = _rebuilt(ligand, m1)
        moved = predict_dock(model, lig_g, _rebuilt(receptor, m2))
        # express the moved prediction back in the receptor's base frame
        pred_lig = m2.inverse().apply(moved.apply(lig_g.X))
        worst = max(worst, complex_rmsd(pred_lig, base_lig, receptor.X))
    return worst
