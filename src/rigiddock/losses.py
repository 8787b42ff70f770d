"""Training objectives: coordinate MSE, pocket optimal transport, intersection.

Every loss returns a scalar Tensor so it can run under a recording tape
during training or tape-free for plain evaluation. None builds an array
over all residue pairs: pocket points come from the row-blocked contact
search, and the intersection loss from the row-tiled
``ad.surface_penetration``.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .graphs import contact_pairs
from .metrics import NoContactError
from .transport import WarmStart, solve_uniform_transport

POCKET_TAU = 8.0
INTERSECTION_GAMMA = 10.0
INTERSECTION_SIGMA = 25.0


def pocket_points(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Midpoints of all cross-protein residue pairs closer than ``POCKET_TAU`` (3 x S).

    Expects bound-pose coordinates; the unbound-pose copies are obtained by
    applying each protein's own rigid motion to the returned matrix.
    Pairs come in row-major (X1 index, X2 index) order (``contact_pairs``).
    Raises NoContactError when no pair qualifies.
    """
    X1 = np.asarray(X1, dtype=np.float64)
    X2 = np.asarray(X2, dtype=np.float64)
    ii, jj, _ = contact_pairs(X1, X2, POCKET_TAU)
    if ii.size == 0:
        raise NoContactError(f"no residue pairs within {POCKET_TAU} A")
    return 0.5 * (X1[:, ii] + X2[:, jj])


def ot_pocket_loss(Y1: ad.Tensor, Y2: ad.Tensor, P1: np.ndarray, P2: np.ndarray,
                   warm: WarmStart | None = None) -> ad.Tensor:
    """Earth mover's cost matching keypoint pairs to pocket points.

    Cost of pairing pocket index s with keypoint index k is
    ||y1_k - p1_s||^2 + ||y2_k - p2_s||^2. The optimal plan is computed
    exactly, then frozen: gradients flow through the cost matrix only.
    ``warm`` carries the solver's basis between calls on the same pair.
    """
    cost = ad.add(
        ad.pairwise_sqdist(ad.constant(P1), Y1),
        ad.pairwise_sqdist(ad.constant(P2), Y2),
    )
    plan, _ = solve_uniform_transport(cost.data, warm)
    return ad.reduce_sum(ad.mul(cost, ad.constant(plan)))


def intersection_loss(X1: ad.Tensor | np.ndarray, X2: ad.Tensor | np.ndarray) -> ad.Tensor:
    """Penalty for either point cloud entering the other's interior.

    Sum of both directional means of max(0, gamma - G_other(x)) at gamma
    ``INTERSECTION_GAMMA`` and sigma ``INTERSECTION_SIGMA``, each one
    ``ad.surface_penetration`` node: its pair distances are formed in row
    tiles, so memory stays O(n) in the cloud sizes.
    """
    t1 = X1 if isinstance(X1, ad.Tensor) else ad.constant(X1)
    t2 = X2 if isinstance(X2, ad.Tensor) else ad.constant(X2)
    return ad.add(ad.surface_penetration(t1, t2, INTERSECTION_GAMMA, INTERSECTION_SIGMA),
                  ad.surface_penetration(t2, t1, INTERSECTION_GAMMA, INTERSECTION_SIGMA))


def mse_loss(pred: ad.Tensor, target: np.ndarray) -> ad.Tensor:
    """Mean over columns of the squared Euclidean deviation."""
    if pred.data.shape != np.asarray(target).shape:
        raise ad.ShapeError(f"mse_loss: shapes {pred.data.shape} and {np.asarray(target).shape}")
    diff = ad.sub(pred, ad.constant(target))
    return ad.scale(ad.reduce_sum(ad.mul(diff, diff)), 1.0 / pred.data.shape[1])


def total_loss(
    pred_ligand: ad.Tensor,
    true_ligand: np.ndarray,
    Y1: ad.Tensor,
    Y2: ad.Tensor,
    P1: np.ndarray,
    P2: np.ndarray,
    receptor_X: np.ndarray,
    ot_warm: WarmStart | None = None,
) -> tuple[ad.Tensor, dict[str, float]]:
    """The plain sum ``mse + ot + intersection``, unweighted, plus a per-term breakdown."""
    mse = mse_loss(pred_ligand, true_ligand)
    ot = ot_pocket_loss(Y1, Y2, P1, P2, ot_warm)
    ni = intersection_loss(pred_ligand, ad.constant(receptor_X))
    parts = {"mse": mse.item(), "ot": ot.item(), "intersection": ni.item()}
    total = ad.add(ad.add(mse, ot), ni)
    parts["total"] = total.item()
    return total, parts
