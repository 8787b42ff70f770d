"""Structural self-checks: the model's rigid-motion guarantees, measured.

Each random-motion check moves both inputs by ``random_se3`` draws (first
input, then second, per trial; ``trials`` >= 1) from a generator seeded with
``seed``, rebuilds their graphs from the moved residues, and returns the worst
deviation from what the guarantee predicts. Tests and ``check-equivariance`` run them.
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


def _moved_trials(g1: ProteinGraph, g2: ProteinGraph, seed: int, trials: int):
    """Per trial ``(m1, m2, g1 after m1, g2 after m2)``; ``trials`` is checked on the call."""
    if trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    moves = ((random_se3(rng), random_se3(rng)) for _ in range(trials))
    return ((m1, m2, _rebuilt(g1, m1), _rebuilt(g2, m2)) for m1, m2 in moves)


def check_pairwise_equivariance(model: DockingModel, g1: ProteinGraph, g2: ProteinGraph,
                                seed: int = 0, trials: int = 5) -> float:
    """Max relative deviation from the independent-motion contract.

    For random rigid motions (Q1, t1) and (Q2, t2) applied to the two inputs,
    coordinate outputs must move identically and feature outputs must not
    move at all. Deviations are scaled by the magnitude of the reference.
    """
    draws = _moved_trials(g1, g2, seed, trials)
    base = model.forward(g1, g2)
    worst = 0.0
    for m1, m2, h1, h2 in draws:
        out = model.forward(h1, h2)
        for idx, move in enumerate((m1, m2)):
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
    draws = _moved_trials(ligand, receptor, seed, trials)
    base = predict_dock(model, ligand, receptor)
    worst = 0.0
    for m1, m2, lig_g, rec_g in draws:
        moved = predict_dock(model, lig_g, rec_g)
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
    draws = _moved_trials(ligand, receptor, seed, trials)
    base = predict_dock(model, ligand, receptor)
    base_lig = base.apply(ligand.X)
    worst = 0.0
    for _, m2, lig_g, rec_g in draws:
        moved = predict_dock(model, lig_g, rec_g)
        # express the moved prediction back in the receptor's base frame
        pred_lig = m2.inverse().apply(moved.apply(lig_g.X))
        worst = max(worst, complex_rmsd(pred_lig, base_lig, receptor.X))
    return worst
