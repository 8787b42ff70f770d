"""Training loop, Adam optimizer, and pose evaluation.

Each pair contributes two examples per epoch (each protein takes a turn
as the mobile side), the mobile input is re-randomized by a rigid motion
every step, and validation scores the median unaligned pose error on the
held-out pairs. Checkpoints are written only when validation improves by
a real margin, and training stops after a patience window without one.
There is one recipe, Adam without weight decay on the unweighted loss
sum; ``TrainConfig`` holds only what the ``train`` command has flags for.
"""

from __future__ import annotations

import csv
import logging
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .atomic import atomic_open
from .checkpoint import save_named_tensors
from .docking import DegenerateKeypointsError, dock_forward, predict_dock
from .geometry import TRANSLATION_SCALE, RigidTransform, random_se3
# build_graph stays bound here: perfbench's tracer wraps graph building under this name
from .graphs import DEFAULT_K, ProteinGraph, build_graph, build_graph_pair  # noqa: F401
from .losses import pocket_points, total_loss
from .metrics import NoContactError, complex_rmsd, interface_rmsd, ligand_rmsd
from .model import DockingModel
from .synthetic import DockingPair
from .transport import WarmStart

logger = logging.getLogger("rigiddock.training")


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8   # Kingma & Ba's defaults
IMPROVEMENT_FACTOR = 0.98   # an accepted validation improvement beats the best by 2%

# Keys of earlier versions' training config files, each with the one value
# training now always uses (``model.drop_retired_keys``).
RETIRED_KEYS = {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS,
                "weight_decay": 0.0, "improvement_factor": IMPROVEMENT_FACTOR,
                "translation_scale": TRANSLATION_SCALE, "w_mse": 1.0, "w_ot": 1.0, "w_ni": 1.0}


@dataclass
class TrainConfig:
    """The settings the ``train`` command has flags for, and nothing else."""

    lr: float = 2e-4
    max_epochs: int = 200
    patience: int = 30           # epochs without an accepted improvement
    seed: int = 0

    def __post_init__(self):
        """Reject a value of the wrong type or range, for example one read from a config file."""
        for name, least in (("max_epochs", 1), ("patience", 0), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if (isinstance(self.lr, bool) or not isinstance(self.lr, (int, float))
                or not math.isfinite(self.lr) or self.lr < 0):
            raise ValueError(f"lr must be a finite number >= 0, got {self.lr!r}")

    @classmethod
    def fine_tune(cls) -> "TrainConfig":
        """Preset for refining an already trained model."""
        return cls(lr=1e-4, patience=150)


class Adam:
    """Adam over a named parameter dict, at the ``ADAM_*`` constants and no weight decay.

    Both moments live in one flat buffer each, in parameter order, so a step
    is a handful of vector operations and one in-place subtraction per
    parameter; the parameters themselves stay separate arrays.
    """

    def __init__(self, params: dict[str, ad.Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        ends = list(accumulate(p.data.size for p in params.values()))
        self._spans = list(zip([0] + ends, ends))
        self._m, self._v = np.zeros((2, ends[-1]))

    def step(self) -> bool:
        """Apply one update from the current grads.

        A parameter whose grad is None keeps its data and moments. If any
        grad has a non-finite entry nothing changes and False is returned.
        """
        params = list(self.params.values())
        m, v = self._m, self._v
        g = np.concatenate([np.zeros(p.data.size) if p.grad is None else p.grad.ravel()
                            for p in params])
        if not np.isfinite(g).all():
            return False
        idle = [(a, b) for p, (a, b) in zip(params, self._spans) if p.grad is None]
        held = [(m[a:b].copy(), v[a:b].copy()) for a, b in idle]
        self.step_count += 1
        b1t = 1.0 - ADAM_BETA1 ** self.step_count
        b2t = 1.0 - ADAM_BETA2 ** self.step_count
        # m, v and update = (m / b1t) / (sqrt(v / b2t) + eps), operation for
        # operation as a per-parameter loop would compute them, in two
        # scratch vectors (g, then tmp) instead of a temporary per operation.
        tmp = np.empty_like(g)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        v *= ADAM_BETA2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
        v += tmp
        np.divide(v, b2t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        update = np.divide(m, b1t, out=g)
        update /= tmp
        update *= self.lr
        for p, (a, b) in zip(params, self._spans):
            if p.grad is not None:
                p.data -= update[a:b].reshape(p.data.shape)
        for (a, b), (m_held, v_held) in zip(idle, held):
            m[a:b] = m_held
            v[a:b] = v_held
        return True

    def first_non_finite(self) -> str | None:
        """Name of the first parameter whose grad has a non-finite entry."""
        for name, p in self.params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                return name
        return None

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


@dataclass
class PreparedPair:
    pair_id: str
    graph_lig: ProteinGraph
    graph_rec: ProteinGraph
    bound_lig: np.ndarray   # 3 x n1, bound frame
    bound_rec: np.ndarray   # 3 x n2, bound frame
    midpoints: np.ndarray   # 3 x S contact midpoints on the bound complex
    # The OT basis of this pair's last step: both directions and every
    # epoch solve nearly the same S x K problem, so each starts from it.
    ot_warm: WarmStart = field(default_factory=WarmStart)


def prepare_pair(pair: DockingPair, neighbors: int = DEFAULT_K) -> PreparedPair:
    """Graphs plus bound-frame geometry reused across epochs.

    Raises NoContactError when the bound complex has no contact pairs.
    """
    bound_lig = pair.bound_ligand()
    bound_rec = pair.receptor.ca
    midpoints = pocket_points(bound_lig, bound_rec)
    graph_lig, graph_rec = build_graph_pair(pair.ligand, pair.receptor, neighbors)
    return PreparedPair(
        pair_id=pair.pair_id,
        graph_lig=graph_lig,
        graph_rec=graph_rec,
        bound_lig=bound_lig,
        bound_rec=bound_rec,
        midpoints=midpoints,
    )


def _training_step(model: DockingModel, prep: PreparedPair, swap: bool,
                   move: RigidTransform):
    """Loss for one direction of one pair with the mobile side re-posed."""
    if swap:
        mobile_g, fixed_g = prep.graph_rec, prep.graph_lig
        mobile_bound, fixed_bound = prep.bound_rec, prep.bound_lig
    else:
        mobile_g, fixed_g = prep.graph_lig, prep.graph_rec
        mobile_bound, fixed_bound = prep.bound_lig, prep.bound_rec
    X_mobile = move.apply(mobile_bound)
    result = dock_forward(model, mobile_g, fixed_g, X_lig=X_mobile, X_rec=fixed_bound)
    return total_loss(result.ligand_pose, mobile_bound, result.Y1, result.Y2,
                      move.apply(prep.midpoints), prep.midpoints, fixed_bound,
                      ot_warm=prep.ot_warm)


def validation_metric(model: DockingModel, prepped: list[PreparedPair]) -> float:
    """Median unaligned pose RMSD over pairs, predicted from stored inputs.

    Predictions are invariant to rigid motions of the inputs, so no extra
    perturbation is applied here; the stored pose is as good as any.
    """
    errors = []
    for prep in prepped:
        try:
            tr = predict_dock(model, prep.graph_lig, prep.graph_rec,
                              X_rec=prep.bound_rec)
            pred = tr.apply(prep.graph_lig.X)
        except DegenerateKeypointsError:
            pred = prep.graph_lig.X
        errors.append(ligand_rmsd(pred, prep.bound_lig))
    return float(np.median(errors))


@dataclass
class TrainResult:
    best_val: float
    epochs_run: int
    steps: int
    skipped_pairs: list[str]
    history: list[dict] = field(default_factory=list)


def train(model: DockingModel, train_pairs: list[DockingPair],
          val_pairs: list[DockingPair], config: TrainConfig,
          checkpoint_path: str | None = None,
          loss_csv_path: str | None = None) -> TrainResult:
    """Optimize ``model`` in place; returns the run summary.

    Pairs whose bound complex has no contacts are skipped with a warning;
    if every training pair is skipped that is an error. The loss CSV is
    written atomically, so it appears only if the call returns.
    """
    skipped: list[str] = []
    prepped: list[PreparedPair] = []
    val_prepped: list[PreparedPair] = []
    for pairs, kept in ((train_pairs, prepped), (val_pairs, val_prepped)):
        for pair in pairs:
            try:
                kept.append(prepare_pair(pair, model.config.neighbors))
            except NoContactError:
                skipped.append(pair.pair_id)
                logger.warning("skipping %s: no contacts in the bound complex", pair.pair_id)
        if not prepped:
            raise ValueError("every training pair was skipped (no contacts anywhere)")

    def save_checkpoint(val_metric: float | None, epoch: int) -> None:
        if checkpoint_path is not None:
            save_named_tensors(checkpoint_path, model.state_arrays(),
                               extra={"config": model.config.to_dict(),
                                      "val_metric": val_metric, "epoch": epoch})

    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.params, config.lr)

    best_val = np.inf
    best_epoch = -1
    steps = 0
    history = []
    with atomic_open(loss_csv_path, "w") if loss_csv_path else nullcontext() as csv_file:
        writer = None if csv_file is None else csv.writer(csv_file)
        if writer is not None:
            writer.writerow(["step", "mse", "ot", "intersection", "total"])
        for epoch in range(config.max_epochs):
            order = rng.permutation(len(prepped))
            epoch_total = 0.0
            epoch_steps = 0
            for idx in order:
                prep = prepped[idx]
                for swap in (False, True):
                    move = random_se3(rng)
                    optimizer.zero_grad()
                    try:
                        with ad.Tape() as tape:
                            loss, parts = _training_step(model, prep, swap, move)
                            tape.backward(loss)
                    except DegenerateKeypointsError:
                        logger.warning("degenerate keypoints on %s (swap=%s); step skipped",
                                       prep.pair_id, swap)
                        continue
                    # step() itself refuses a non-finite gradient.
                    finite_loss = math.isfinite(parts["total"])
                    if not (finite_loss and optimizer.step()):
                        logger.warning("non-finite %s on %s (swap=%s, first non-finite "
                                       "gradient: %s); step skipped",
                                       "gradient" if finite_loss else "loss", prep.pair_id,
                                       swap, optimizer.first_non_finite())
                        continue
                    steps += 1
                    epoch_steps += 1
                    epoch_total += parts["total"]
                    if writer is not None:
                        writer.writerow([steps, f"{parts['mse']:.6f}", f"{parts['ot']:.6f}",
                                         f"{parts['intersection']:.6f}", f"{parts['total']:.6f}"])
            val = validation_metric(model, val_prepped) if val_prepped else np.nan
            mean_loss = epoch_total / max(epoch_steps, 1)
            history.append({"epoch": epoch, "mean_loss": mean_loss, "val": val})
            logger.info("epoch %d: mean loss %.4f, val %.4f", epoch, mean_loss, val)
            if val_prepped and val < IMPROVEMENT_FACTOR * best_val:
                best_val = val
                best_epoch = epoch
                save_checkpoint(val, epoch)
            if val_prepped and epoch - best_epoch >= config.patience:
                logger.info("stopping: no improvement in %d epochs", config.patience)
                break
    if not val_prepped:
        save_checkpoint(None, config.max_epochs - 1)
    return TrainResult(best_val=float(best_val), epochs_run=len(history),
                       steps=steps, skipped_pairs=skipped, history=history)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalRow:
    pair_id: str
    crmsd: float
    irmsd: float
    status: str


@dataclass
class EvalReport:
    rows: list[EvalRow]

    def summary(self) -> dict[str, float]:
        """Median, mean and std of each metric over the rows where it is finite."""
        out = {}
        for metric in ("crmsd", "irmsd"):
            values = np.array([getattr(r, metric) for r in self.rows])
            values = values[np.isfinite(values)]
            if values.size == 0:
                out.update(dict.fromkeys((f"{metric}_median", f"{metric}_mean",
                                          f"{metric}_std"), float("nan")))
                continue
            out[f"{metric}_median"] = float(np.median(values))
            out[f"{metric}_mean"] = float(values.mean())
            out[f"{metric}_std"] = float(values.std())
        return out


def evaluate(model: DockingModel, pairs: list[DockingPair], seed: int = 0) -> EvalReport:
    """Dock each pair from a random input pose and score against truth.

    Pair i's ligand input is moved by the i-th ``random_se3`` draw from ``seed``.

    A pair whose prediction degenerates falls back to its input pose and
    is marked in the row status rather than crashing the run. A pair whose
    bound complex has no interface contacts gets status ``no_contact`` and
    a NaN interface RMSD.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for pair in pairs:
        g_lig, g_rec = build_graph_pair(pair.ligand, pair.receptor, model.config.neighbors)
        bound_lig = pair.bound_ligand()
        X_in = random_se3(rng).apply(g_lig.X)
        try:
            tr = predict_dock(model, g_lig, g_rec, X_lig=X_in)
            pred = tr.apply(X_in)
            status = "ok"
        except DegenerateKeypointsError:
            pred = X_in
            status = "degenerate"
        crmsd = complex_rmsd(pred, bound_lig, g_rec.X)
        try:
            irmsd = interface_rmsd(pred, bound_lig, g_rec.X)
        except NoContactError:
            irmsd = float("nan")
            status = "no_contact"
        rows.append(EvalRow(pair.pair_id, crmsd, irmsd, status))
    return EvalReport(rows)


def write_eval_csv(report: EvalReport, path: str) -> None:
    with atomic_open(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair_id", "crmsd", "irmsd", "status"])
        for row in report.rows:
            writer.writerow([row.pair_id, f"{row.crmsd:.6f}", f"{row.irmsd:.6f}", row.status])
        summary = report.summary()
        for key in sorted(summary):
            writer.writerow([key, f"{summary[key]:.6f}", "", ""])
