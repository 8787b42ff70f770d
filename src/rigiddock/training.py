"""Training loop, Adam optimizer, and pose evaluation.

Each pair contributes two examples per epoch (each protein takes a turn
as the mobile side), the mobile input is re-randomized by a rigid motion
every step, and validation scores the median unaligned pose error on the
held-out pairs. Checkpoints are written only when validation improves by
a real margin, and training stops after a patience window without one.
A pair the network cannot dock (degenerate keypoints, NaN or Inf) is
scored at its input pose, or its step skipped, and the run goes on; a
non-finite loss (caught before backward) or gradient takes that one path.
There is one recipe, Adam without weight decay on the unweighted loss
sum; ``TrainConfig`` holds only what the ``train`` command has flags for.
"""

from __future__ import annotations

import csv
import logging
import math
import sys
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
from .synthetic import DatasetError, DockingPair
from .transport import WarmStart

logger = logging.getLogger("rigiddock.training")


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8   # Kingma & Ba's defaults
ADAM_SLICE = 2**14   # elements per slice of an Adam step: four slices of m, v, grad and data fit L2
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
        # compared as Python numbers, so an integer past float range is refused, not converted
        if (isinstance(self.lr, bool) or not isinstance(self.lr, (int, float))
                or not 0 <= self.lr <= sys.float_info.max):
            raise ValueError(f"lr must be a finite number >= 0, got {self.lr!r}")

    @classmethod
    def fine_tune(cls) -> "TrainConfig":
        """Preset for refining an already trained model."""
        return cls(lr=1e-4, patience=150)


class Adam:
    """Adam over a named parameter dict, at the ``ADAM_*`` constants and no weight decay.

    The parameters' data, their gradients and both moments each live in one
    flat buffer, in parameter order: each ``p.data`` is rebound to its
    C-contiguous view of the data buffer, and each parameter's gradient home
    (see ``autodiff``) is its view of the gradient buffer, so backward
    writes the gradients where the step reads them. A step then walks the
    buffers in slices of ``ADAM_SLICE`` elements, each small enough that
    its moments, gradient and data stay in cache across the dozen vector
    operations, with no concatenate, no per-parameter scatter and no
    full-length temporary. A second Adam built over the same parameters
    moves them into its own buffers, and the first no longer drives them.
    """

    def __init__(self, params: dict[str, ad.Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        ends = list(accumulate(p.data.size for p in params.values()))
        self._spans = list(zip([0] + ends, ends))
        self._m, self._v, self._data, self._grad = (np.zeros(ends[-1]) for _ in range(4))
        for p, (a, b) in zip(params.values(), self._spans):
            view = self._data[a:b].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            p._home = self._grad[a:b].reshape(p.data.shape)

    def step(self) -> bool:
        """Apply one update from the current grads.

        A parameter whose grad is None keeps its data and moments. If any
        grad has a non-finite entry nothing changes and False is returned.
        """
        m, v, data, g = self._m, self._v, self._data, self._grad
        idle = []
        for p, span in zip(self.params.values(), self._spans):
            if p.grad is None:
                p._home.fill(0.0)
                idle.append(span)
            elif p.grad is not p._home:   # assigned directly, not accumulated
                np.copyto(p._home, p.grad)
        if not np.isfinite(g).all():
            return False
        held = [(a, b, m[a:b].copy(), v[a:b].copy(), data[a:b].copy()) for a, b in idle]
        self.step_count += 1
        b1t = 1.0 - ADAM_BETA1 ** self.step_count
        b2t = 1.0 - ADAM_BETA2 ** self.step_count
        # m, v and update = (m / b1t) / (sqrt(v / b2t) + eps), operation for
        # operation as a per-parameter loop would compute them, slice by slice
        # in two scratch vectors instead of a temporary per operation.
        scratch = np.empty((2, min(ADAM_SLICE, g.size)))
        for lo in range(0, g.size, ADAM_SLICE):
            hi = min(lo + ADAM_SLICE, g.size)
            gs, ms, vs = g[lo:hi], m[lo:hi], v[lo:hi]
            tmp, update = scratch[:, :hi - lo]
            ms *= ADAM_BETA1
            ms += np.multiply(gs, 1.0 - ADAM_BETA1, out=tmp)
            vs *= ADAM_BETA2
            np.multiply(gs, gs, out=tmp)
            tmp *= 1.0 - ADAM_BETA2
            vs += tmp
            np.divide(vs, b2t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            np.divide(ms, b1t, out=update)
            update /= tmp
            update *= self.lr
            data[lo:hi] -= update
        for a, b, *saved in held:
            for buf, values in zip((m, v, data), saved):
                buf[a:b] = values
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


def _docked_or_input(model: DockingModel, ligand: ProteinGraph, receptor: ProteinGraph,
                     X_lig: np.ndarray, X_rec: np.ndarray) -> tuple[np.ndarray, str]:
    """``(pose, status)``: the ``predict_dock`` pose of ``X_lig`` and ``"ok"``, or, when the
    prediction degenerates (``DegenerateKeypointsError``) or meets NaN or Inf
    (``NonFiniteError``), ``X_lig`` itself and ``"degenerate"`` or ``"non_finite"``."""
    try:
        return predict_dock(model, ligand, receptor, X_lig=X_lig, X_rec=X_rec).apply(X_lig), "ok"
    except DegenerateKeypointsError:
        return X_lig, "degenerate"
    except ad.NonFiniteError:
        return X_lig, "non_finite"


def validation_metric(model: DockingModel, prepped: list[PreparedPair]) -> float:
    """Median unaligned pose RMSD over pairs, predicted from stored inputs.

    Predictions are invariant to rigid motions of the inputs, so no extra
    perturbation is applied here; the stored pose is as good as any. A pair
    the network cannot dock (``_docked_or_input``) scores at its stored pose.
    """
    errors = []
    for prep in prepped:
        pred, _ = _docked_or_input(model, prep.graph_lig, prep.graph_rec,
                                   prep.graph_lig.X, prep.bound_rec)
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
    if every training pair is skipped that is a ``DatasetError``. A step that
    raises either error ``_docked_or_input`` falls back on, or whose loss
    (checked before backward) or gradient is not finite, changes nothing and
    logs one warning, "<error> on <pair> (swap=<dir>): <reason>; step skipped".
    The loss CSV is written atomically, so it appears only if the call returns.
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
        raise DatasetError("every training pair was skipped (no contacts anywhere)")

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
                            if not math.isfinite(parts["total"]):
                                raise ad.NonFiniteError("the loss is not finite")
                            tape.backward(loss)
                        if not optimizer.step():
                            raise ad.NonFiniteError(
                                f"the gradient of {optimizer.first_non_finite()} is not finite")
                    except (DegenerateKeypointsError, ad.NonFiniteError) as exc:
                        logger.warning("%s on %s (swap=%s): %s; step skipped",
                                       type(exc).__name__, prep.pair_id, swap, exc)
                        continue
                    steps += 1
                    epoch_steps += 1
                    epoch_total += parts["total"]
                    if writer is not None:
                        writer.writerow([steps, f"{parts['mse']:.6f}", f"{parts['ot']:.6f}",
                                         f"{parts['intersection']:.6f}", f"{parts['total']:.6f}"])
            val = validation_metric(model, val_prepped) if val_prepped else np.nan
            # an epoch whose every step was skipped has no mean loss
            mean_loss = epoch_total / epoch_steps if epoch_steps else math.nan
            history.append({"epoch": epoch, "mean_loss": mean_loss, "val": val})
            if epoch_steps:
                logger.info("epoch %d: mean loss %.4f, val %.4f", epoch, mean_loss, val)
            else:
                logger.warning("epoch %d: no step taken, val %.4f", epoch, val)
            if val_prepped and val < IMPROVEMENT_FACTOR * best_val:
                best_val = val
                best_epoch = epoch
                save_checkpoint(val, epoch)
            if val_prepped and epoch - best_epoch >= config.patience:
                logger.info("stopping: no improvement in %d epochs", config.patience)
                break
    if not val_prepped:
        save_checkpoint(None, config.max_epochs - 1)
    # with no validation pair there is no best value, like each epoch's val
    return TrainResult(best_val=float(best_val) if val_prepped else math.nan,
                       epochs_run=len(history),
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

    A pair the network cannot dock falls back to its input pose with the
    status ``_docked_or_input`` gives, ``degenerate`` or ``non_finite``,
    rather than crashing the run. A pair whose bound complex has no
    interface contacts gets status ``no_contact`` and a NaN interface RMSD.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for pair in pairs:
        g_lig, g_rec = build_graph_pair(pair.ligand, pair.receptor, model.config.neighbors)
        bound_lig = pair.bound_ligand()
        X_in = random_se3(rng).apply(g_lig.X)
        pred, status = _docked_or_input(model, g_lig, g_rec, X_in, g_rec.X)
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
