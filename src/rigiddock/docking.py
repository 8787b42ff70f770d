"""Differentiable superposition and the dock entry points.

The pose head selects attention keypoints on both proteins, solves the
orthogonal least-squares alignment between the two keypoint clouds in
closed form, and reads off the rigid motion that places the ligand
against the receptor. Everything is on the autodiff tape, so losses on
the transformed ligand reach the network weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .geometry import RigidTransform
from .graphs import ProteinGraph
from .model import DockingModel

_DEGENERATE_RATIO = 1e-9


class DegenerateKeypointsError(RuntimeError):
    """Keypoint cloud is too close to collinear to define a rotation."""


def kabsch_tensors(Y1: ad.Tensor, Y2: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
    """Differentiable best-fit rigid motion taking cloud Y1 onto cloud Y2.

    Both are 3 x K with matched columns, K >= 3. The reflection-correction
    sign is read off the forward values and held constant in backward. A
    near-degenerate cloud (second singular value below 1e-9 of the first)
    cannot pin down the rotation and raises DegenerateKeypointsError.
    """
    if Y1.data.shape != Y2.data.shape or Y1.data.ndim != 2 or Y1.data.shape[0] != 3:
        raise ad.ShapeError(
            f"kabsch: shapes {Y1.data.shape} and {Y2.data.shape}, expected matching (3, K)")
    if Y1.data.shape[1] < 3:
        raise ad.ShapeError(f"kabsch: needs at least 3 points, got {Y1.data.shape[1]}")
    c1 = ad.reduce_mean(Y1, axis=1, keepdims=True)
    c2 = ad.reduce_mean(Y2, axis=1, keepdims=True)
    A = ad.matmul(ad.sub(Y2, c2), ad.transpose(ad.sub(Y1, c1)))
    decomp = ad.svd3(A)
    U, S, V = decomp.U, decomp.S, decomp.V
    if S.data[1] < _DEGENERATE_RATIO * max(S.data[0], 1e-300):
        raise DegenerateKeypointsError(
            f"keypoint spread is rank-deficient (singular values {S.data.tolist()})")
    d = float(np.sign(np.linalg.det(U.data @ V.data.T)))
    if d == 0.0:
        raise DegenerateKeypointsError("sign correction is undefined (det U V^T = 0)")
    correction = ad.constant(np.diag([1.0, 1.0, d]))
    R = ad.matmul(ad.matmul(U, correction), ad.transpose(V))
    t = ad.sub(c2, ad.matmul(R, c1))
    return R, t


def kabsch(Y1: np.ndarray, Y2: np.ndarray) -> RigidTransform:
    """Best-fit rigid motion between matched 3 x K clouds, as plain arrays."""
    R, t = kabsch_tensors(ad.constant(np.asarray(Y1, dtype=np.float64)),
                          ad.constant(np.asarray(Y2, dtype=np.float64)))
    return RigidTransform(R.data, t.data.ravel())


@dataclass
class DockResult:
    """Tape-connected outputs of one docking forward pass."""

    R: ad.Tensor            # 3 x 3 rotation
    t: ad.Tensor            # 3 x 1 translation
    Y1: ad.Tensor           # ligand keypoints, 3 x K
    Y2: ad.Tensor           # receptor keypoints, 3 x K
    ligand_pose: ad.Tensor  # predicted ligand coordinates, 3 x n1

    def transform(self) -> RigidTransform:
        """The predicted rigid motion; a non-finite R or t raises ``NonFiniteError``."""
        if not (np.isfinite(self.R.data).all() and np.isfinite(self.t.data).all()):
            raise ad.NonFiniteError("dock: the predicted motion has non-finite entries")
        return RigidTransform(self.R.data, self.t.data.ravel())


def dock_forward(model: DockingModel, ligand: ProteinGraph, receptor: ProteinGraph,
                 X_lig: np.ndarray | None = None,
                 X_rec: np.ndarray | None = None) -> DockResult:
    """Predict the rigid motion docking ``ligand`` onto ``receptor``.

    The receptor is centered before the network runs and the offset is
    added back to the translation and receptor keypoints, so the output is
    exact in the caller's frame regardless of where the receptor sits.
    """
    Xr = receptor.X if X_rec is None else np.asarray(X_rec, dtype=np.float64)
    center = Xr.mean(axis=1, keepdims=True)
    Z1, H1, Z2, H2 = model.forward(ligand, receptor, X1=X_lig, X2=Xr - center)
    Y1, _ = model.keypoints(Z1, H1, H2)
    Y2_centered, _ = model.keypoints(Z2, H2, H1)
    R, t_centered = kabsch_tensors(Y1, Y2_centered)
    offset = ad.constant(center)
    t = ad.add(t_centered, offset)
    Y2 = ad.add(Y2_centered, offset)
    Xl = ligand.X if X_lig is None else np.asarray(X_lig, dtype=np.float64)
    pose = ad.add(ad.matmul(R, ad.constant(Xl)), t)
    return DockResult(R=R, t=t, Y1=Y1, Y2=Y2, ligand_pose=pose)


def predict_dock(model: DockingModel, ligand: ProteinGraph, receptor: ProteinGraph,
                 X_lig: np.ndarray | None = None,
                 X_rec: np.ndarray | None = None) -> RigidTransform:
    """Convenience wrapper returning only the rigid motion."""
    return dock_forward(model, ligand, receptor, X_lig, X_rec).transform()
