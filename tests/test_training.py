"""Optimizer behavior, training loop bookkeeping, and evaluation."""

import csv
import hashlib
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from rigiddock import autodiff as ad
from rigiddock import docking, losses, tiles, training
from rigiddock.checkpoint import load_named_tensors
from rigiddock.docking import DegenerateKeypointsError
from rigiddock.geometry import TRANSLATION_SCALE, RigidTransform, random_se3
from rigiddock.model import DockingModel, ModelConfig
from rigiddock.synthetic import DockingPair, generate_pair
from rigiddock.transport import WarmStart
from rigiddock.metrics import ligand_rmsd
from rigiddock.training import (
    Adam,
    EvalReport,
    EvalRow,
    TrainConfig,
    evaluate,
    prepare_pair,
    train,
    write_eval_csv,
)

from test_acceptance import _primitive_op_cases


COMPACT = ModelConfig(hidden_dim=16, layers=2, heads=8)


def make_pairs(seed, count, lo=30, hi=40):
    rng = np.random.default_rng(seed)
    return [generate_pair(rng, f"p{i}", lo, hi) for i in range(count)]


def identity_pair(pair: DockingPair) -> DockingPair:
    """The same complex with the ligand already in its bound pose."""
    bound = pair.ligand.transformed(pair.truth.R, pair.truth.t)
    eye = RigidTransform(np.eye(3), np.zeros(3))
    return DockingPair(pair.pair_id, bound, pair.receptor, eye)


def far_pair(pair: DockingPair) -> DockingPair:
    """A broken complex whose bound pose has no contacts at all."""
    shifted = pair.ligand.transformed(np.eye(3), np.array([5000.0, 0.0, 0.0]))
    moved = DockingPair(pair.pair_id + "_far", shifted, pair.receptor, pair.truth)
    return moved


class TestAdam:
    def test_zero_learning_rate_is_bit_identical(self):
        model = DockingModel(COMPACT, seed=0)
        before = {k: v.data.copy() for k, v in model.params.items()}
        rng = np.random.default_rng(1)
        opt = Adam(model.params, lr=0.0)
        for _ in range(3):
            for p in model.params.values():
                p.grad = rng.normal(size=p.data.shape)
            opt.step()
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name]), name

    def test_step_moves_against_gradient(self):
        model = DockingModel(COMPACT, seed=0)
        opt = Adam(model.params, lr=1e-2)
        p = model.params["embed.table"]
        before = p.data.copy()
        p.grad = np.ones_like(p.data)
        opt.step()
        assert np.all(p.data < before)

    def test_zero_grad_clears(self):
        model = DockingModel(COMPACT, seed=0)
        opt = Adam(model.params, lr=1e-3)
        for p in model.params.values():
            p.grad = np.ones_like(p.data)
        opt.zero_grad()
        assert all(p.grad is None for p in model.params.values())

    def test_matches_per_parameter_reference_loop(self):
        # The loop Adam.step replaced, kept here as the reference.
        def reference_step(params, m, v, t, lr, b1, b2, eps):
            b1t, b2t = 1.0 - b1 ** t, 1.0 - b2 ** t
            for name, p in params.items():
                if p.grad is None:
                    continue
                g = p.grad
                m[name] *= b1
                m[name] += (1.0 - b1) * g
                v[name] *= b2
                v[name] += (1.0 - b2) * (g * g)
                update = (m[name] / b1t) / (np.sqrt(v[name] / b2t) + eps)
                p.data -= lr * update

        model = DockingModel(COMPACT, seed=0)
        twin = DockingModel(COMPACT, seed=0)
        lr = 3e-2
        opt = Adam(model.params, lr)
        m = {name: np.zeros_like(p.data) for name, p in twin.params.items()}
        v = {name: np.zeros_like(p.data) for name, p in twin.params.items()}
        rng = np.random.default_rng(6)
        idle = "embed.table"
        for t in range(1, 6):
            for name in model.params:
                g = None if name == idle and t in (2, 4) else rng.normal(size=model.params[name].data.shape)
                model.params[name].grad = g
                twin.params[name].grad = None if g is None else g.copy()
            before = model.params[idle].data.copy()
            assert opt.step()
            reference_step(twin.params, m, v, t, lr, training.ADAM_BETA1, training.ADAM_BETA2,
                           training.ADAM_EPS)
            for name, p in model.params.items():
                assert np.array_equal(p.data, twin.params[name].data), (t, name)
                assert p.data.flags.c_contiguous
            if t in (2, 4):
                assert np.array_equal(model.params[idle].data, before)

    def test_non_finite_gradient_changes_nothing(self):
        model = DockingModel(COMPACT, seed=0)
        opt = Adam(model.params, lr=1e-2)
        rng = np.random.default_rng(7)
        for p in model.params.values():
            p.grad = rng.normal(size=p.data.shape)
        assert opt.step()
        before = {k: v.data.copy() for k, v in model.params.items()}
        moments = (opt._m.copy(), opt._v.copy())
        for p in model.params.values():
            p.grad = rng.normal(size=p.data.shape)
        model.params["keypoints.w_prime"].grad[0, 0] = np.inf
        assert not opt.step()
        assert opt.first_non_finite() == "keypoints.w_prime"
        assert opt.step_count == 1
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name]), name
        assert np.array_equal(opt._m, moments[0]) and np.array_equal(opt._v, moments[1])


    def test_parameters_are_views_of_one_flat_buffer(self):
        model = DockingModel(COMPACT, seed=0)
        before = {k: v.data.copy() for k, v in model.params.items()}
        opt = Adam(model.params, lr=1e-2)
        for (name, p), (a, b) in zip(model.params.items(), opt._spans):
            assert p.data.flags.c_contiguous and p.data.base is opt._data, name
            assert np.shares_memory(p.data, opt._data[a:b]), name
            assert np.array_equal(p.data, before[name]), name
        for p in model.params.values():
            p.grad = np.ones_like(p.data)
        assert opt.step()
        for (name, p), (a, b) in zip(model.params.items(), opt._spans):
            assert np.all(p.data < before[name]), name
            assert np.array_equal(p.data.reshape(-1), opt._data[a:b]), name

    def test_step_after_a_load_moves_the_loaded_values(self):
        model = DockingModel(COMPACT, seed=0)
        opt = Adam(model.params, lr=1e-2)
        loaded = DockingModel(COMPACT, seed=1).state_arrays()
        model.load_state_arrays(loaded)
        for name, p in model.params.items():
            assert p.data.base is opt._data and np.array_equal(p.data, loaded[name]), name
            p.grad = np.ones_like(p.data)
        assert opt.step()
        for name, p in model.params.items():
            assert np.all(p.data < loaded[name]), name

    def test_first_gradient_of_negative_zero_stays_negative_zero(self):
        model = DockingModel(COMPACT, seed=0)
        opt = Adam(model.params, lr=1e-2)
        p = model.params["embed.table"]
        ad._accumulate(p, np.full(p.data.shape, -0.0))
        assert np.shares_memory(p.grad, opt._grad)
        assert np.all(p.grad == 0.0) and np.all(np.signbit(p.grad))

    def test_step_allocates_less_than_one_full_length_vector(self):
        model = DockingModel(ModelConfig(), seed=0)
        size = sum(p.data.size for p in model.params.values())
        assert size == 122_149
        opt = Adam(model.params, lr=2e-4)
        rng = np.random.default_rng(8)
        for p in model.params.values():
            ad._accumulate(p, rng.normal(size=p.data.shape))
        tracemalloc.start()
        try:
            assert opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * size


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [("patience", -4), ("seed", -1)])
    def test_rejects_negative_patience_and_seed(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 0, got {value}$"):
            TrainConfig(**{field: value})

    def test_zero_patience_and_seed_are_legal(self):
        config = TrainConfig(patience=0, seed=0)
        assert (config.patience, config.seed) == (0, 0)


class TestRandomSE3:
    def test_rotation_proper_and_translation_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            tr = random_se3(rng)
            assert np.max(np.abs(tr.R.T @ tr.R - np.eye(3))) <= 1e-12
            assert abs(np.linalg.det(tr.R) - 1.0) <= 1e-12
            assert np.all(np.abs(tr.t) <= TRANSLATION_SCALE)

    def test_draws_differ(self):
        rng = np.random.default_rng(3)
        a, b = random_se3(rng), random_se3(rng)
        assert np.max(np.abs(a.R - b.R)) > 1e-3


class TestTrainLoop:
    def test_training_is_deterministic(self, tmp_path):
        pairs = make_pairs(10, 2)
        config = TrainConfig(lr=1e-3, max_epochs=3, patience=50, seed=4)
        runs = []
        for _ in range(2):
            model = DockingModel(COMPACT, seed=5)
            result = train(model, pairs, [], config)
            runs.append(({k: v.data.copy() for k, v in model.params.items()}, result))
        params_a, result_a = runs[0]
        params_b, result_b = runs[1]
        for name in params_a:
            assert np.array_equal(params_a[name], params_b[name]), name
        assert result_a.history == result_b.history
        assert result_a.steps == result_b.steps == 2 * 2 * 3

    def test_overfit_single_pair_with_artifacts(self, tmp_path):
        pairs = make_pairs(11, 1)
        model = DockingModel(COMPACT, seed=0)
        config = TrainConfig(lr=3e-3, max_epochs=60, patience=200, seed=0)
        ckpt = tmp_path / "model.npz"
        loss_csv = tmp_path / "loss.csv"
        result = train(model, pairs, pairs, config,
                       checkpoint_path=str(ckpt), loss_csv_path=str(loss_csv))
        assert result.best_val < 5.0
        assert result.epochs_run == 60
        # checkpoint carries the config and reloads into an identical model
        arrays, extra = load_named_tensors(str(ckpt))
        assert extra["config"] == model.config.to_dict()
        assert extra["val_metric"] <= result.best_val + 1e-12
        assert 0 <= extra["epoch"] < 60
        clone = DockingModel(ModelConfig.from_dict(extra["config"]), seed=99)
        clone.load_state_arrays(arrays)
        # the loss log trends downward from start to finish
        with open(loss_csv) as fh:
            rows = list(csv.DictReader(fh))
        totals = [float(r["total"]) for r in rows]
        assert len(totals) == result.steps
        assert np.mean(totals[-10:]) < 0.5 * np.mean(totals[:10])

    def test_no_contact_pairs_are_skipped(self):
        pairs = make_pairs(12, 2)
        broken = far_pair(pairs[0])
        model = DockingModel(COMPACT, seed=0)
        config = TrainConfig(lr=1e-3, max_epochs=1, seed=0)
        result = train(model, [pairs[1], broken], [], config)
        assert result.skipped_pairs == [broken.pair_id]
        assert result.steps == 2

    def test_without_validation_pairs_best_val_is_nan(self):
        model = DockingModel(COMPACT, seed=0)
        result = train(model, make_pairs(12, 1), [], TrainConfig(lr=1e-3, max_epochs=1, seed=0))
        assert result.steps == 2
        assert math.isnan(result.best_val) and math.isnan(result.history[0]["val"])

    def test_all_pairs_skipped_raises(self):
        pairs = make_pairs(13, 1)
        model = DockingModel(COMPACT, seed=0)
        with pytest.raises(ValueError, match="skipped"):
            train(model, [far_pair(pairs[0])], [], TrainConfig(max_epochs=1))

    def test_prepare_pair_rejects_no_contacts(self):
        pairs = make_pairs(14, 1)
        from rigiddock.losses import NoContactError
        with pytest.raises(NoContactError):
            prepare_pair(far_pair(pairs[0]))

    def test_warm_started_transport_gives_identical_weights(self, monkeypatch):
        def run():
            model = DockingModel(COMPACT, seed=5)
            result = train(model, make_pairs(19, 2), [], TrainConfig(lr=1e-3, max_epochs=2, seed=4))
            return {k: v.data.copy() for k, v in model.params.items()}, result

        warm_calls = []
        solve = losses.solve_uniform_transport

        def recording_solve(cost, warm=None):
            warm_calls.append(warm)
            return solve(cost, warm)

        monkeypatch.setattr(losses, "solve_uniform_transport", recording_solve)
        warm_params, warm_result = run()
        assert all(isinstance(w, WarmStart) for w in warm_calls)
        assert len({id(w) for w in warm_calls}) == 2  # one holder per pair
        monkeypatch.setattr(losses, "solve_uniform_transport", lambda cost, warm=None: solve(cost))
        cold_params, cold_result = run()
        assert warm_result.history == cold_result.history
        for name in warm_params:
            assert np.array_equal(warm_params[name], cold_params[name]), name

    def test_failed_run_leaves_no_loss_csv(self, tmp_path, monkeypatch):
        step = training._training_step
        calls = []

        def failing_step(*args):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("step failed")
            return step(*args)

        monkeypatch.setattr(training, "_training_step", failing_step)
        model = DockingModel(COMPACT, seed=0)
        with pytest.raises(RuntimeError, match="step failed"):
            train(model, make_pairs(20, 2), [], TrainConfig(lr=1e-3, max_epochs=1, seed=0),
                  loss_csv_path=str(tmp_path / "loss.csv"))
        assert len(calls) == 3
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("poison", ["loss", "gradient"])
    def test_non_finite_step_is_skipped(self, monkeypatch, caplog, poison):
        pairs = make_pairs(20, 2)
        config = TrainConfig(lr=1e-3, max_epochs=1, seed=0)
        calls = []
        if poison == "loss":
            step = training._training_step

            def poisoned_step(*args):
                loss, parts = step(*args)
                calls.append(args[1].pair_id)
                if len(calls) == 2:
                    return ad.scale(loss, np.nan), {**parts, "total": np.nan}
                return loss, parts

            monkeypatch.setattr(training, "_training_step", poisoned_step)
        else:
            backward = ad.Tape.backward

            def poisoned_backward(tape, loss):
                backward(tape, loss)
                calls.append(None)
                if len(calls) == 2:
                    model.params["keypoints.w_prime"].grad[0, 0] = np.nan

            monkeypatch.setattr(ad.Tape, "backward", poisoned_backward)
        model = DockingModel(COMPACT, seed=0)
        with caplog.at_level("WARNING", logger="rigiddock.training"):
            result = train(model, pairs, [], config)
        assert result.steps == 2 * 2 - 1
        assert all(np.all(np.isfinite(p.data)) for p in model.params.values())
        assert math.isfinite(result.history[0]["mean_loss"])
        [message] = [r.getMessage() for r in caplog.records
                     if r.getMessage().endswith("step skipped")]
        reason = ("the loss is not finite" if poison == "loss"
                  else "the gradient of keypoints.w_prime is not finite")
        assert message.startswith("NonFiniteError on ") and "(swap=True)" in message
        assert message.endswith(f": {reason}; step skipped")

    def test_non_finite_loss_runs_no_backward(self, monkeypatch, caplog):
        step = training._training_step
        backward = ad.Tape.backward
        steps, backwards = [], []

        def poisoned_step(*args):
            loss, parts = step(*args)
            steps.append(None)
            if len(steps) == 2:
                return ad.scale(loss, np.nan), {**parts, "total": np.nan}
            return loss, parts

        def counted_backward(tape, loss):
            backwards.append(None)
            backward(tape, loss)

        monkeypatch.setattr(training, "_training_step", poisoned_step)
        monkeypatch.setattr(ad.Tape, "backward", counted_backward)
        model = DockingModel(COMPACT, seed=0)
        with caplog.at_level("WARNING", logger="rigiddock.training"):
            result = train(model, make_pairs(20, 2), [], TrainConfig(lr=1e-3, max_epochs=1))
        assert (len(steps), len(backwards), result.steps) == (4, 3, 3)
        [message] = [r.getMessage() for r in caplog.records]
        assert message.endswith("the loss is not finite; step skipped")

    def test_epoch_without_a_step_reports_no_mean_loss(self, monkeypatch, caplog):
        def failing_step(*args):
            raise ad.NonFiniteError("forced")

        monkeypatch.setattr(training, "_training_step", failing_step)
        pairs = make_pairs(22, 2)
        model = DockingModel(COMPACT, seed=0)
        with caplog.at_level("INFO", logger="rigiddock.training"):
            result = train(model, pairs[:1], pairs[1:], TrainConfig(lr=1e-3, max_epochs=2))
        assert result.steps == 0
        assert [h["epoch"] for h in result.history] == [0, 1]
        assert all(math.isnan(h["mean_loss"]) for h in result.history)
        messages = [r.getMessage() for r in caplog.records]
        assert [m for m in messages if m.startswith("epoch")] == [
            f"epoch {e}: no step taken, val {h['val']:.4f}" for e, h in enumerate(result.history)]

    def test_patience_stops_after_an_epoch_without_improvement(self, caplog):
        pairs = make_pairs(22, 2)
        model = DockingModel(COMPACT, seed=0)
        config = TrainConfig(lr=1e-3, max_epochs=3, patience=0, seed=0)
        with caplog.at_level("INFO", logger="rigiddock.training"):
            result = train(model, pairs[:1], pairs[1:], config)
        assert result.epochs_run == 1
        assert any(r.getMessage().startswith("stopping") for r in caplog.records)

    @pytest.mark.parametrize("error", [DegenerateKeypointsError, ad.NonFiniteError])
    def test_step_that_cannot_dock_is_skipped(self, monkeypatch, caplog, error):
        step = training._training_step
        calls = []

        def failing_step(*args):
            calls.append(None)
            if len(calls) == 2:
                raise error("forced")
            return step(*args)

        monkeypatch.setattr(training, "_training_step", failing_step)
        model = DockingModel(COMPACT, seed=0)
        with caplog.at_level("WARNING", logger="rigiddock.training"):
            result = train(model, make_pairs(20, 2), [], TrainConfig(lr=1e-3, max_epochs=1))
        assert result.steps == 2 * 2 - 1
        assert all(np.all(np.isfinite(p.data)) for p in model.params.values())
        [message] = [r.getMessage() for r in caplog.records
                     if r.getMessage().endswith("step skipped")]
        assert message.startswith(f"{error.__name__} on ") and "forced" in message

    def test_validation_scores_a_non_finite_pair_at_its_stored_pose(self, monkeypatch):
        preps = [prepare_pair(p) for p in make_pairs(23, 2)]
        model = DockingModel(COMPACT, seed=0)
        docked = training.validation_metric(model, preps[1:])
        predict = training.predict_dock

        def non_finite_first(model, ligand, *args, **kwargs):
            if ligand is preps[0].graph_lig:
                raise ad.NonFiniteError("svd3: input has non-finite entries")
            return predict(model, ligand, *args, **kwargs)

        monkeypatch.setattr(training, "predict_dock", non_finite_first)
        stored = ligand_rmsd(preps[0].graph_lig.X, preps[0].bound_lig)
        assert training.validation_metric(model, preps) == float(np.median([stored, docked]))


class TestEvaluate:
    def test_oracle_predictor_scores_zero(self, monkeypatch):
        pairs = [identity_pair(p) for p in make_pairs(15, 2)]
        eye = RigidTransform(np.eye(3), np.zeros(3))
        monkeypatch.setattr(training, "predict_dock", lambda *a, **k: eye)
        monkeypatch.setattr(training, "random_se3", lambda rng: eye)
        model = DockingModel(COMPACT, seed=0)
        report = evaluate(model, pairs)
        for row in report.rows:
            assert row.status == "ok"
            assert row.crmsd <= 1e-9
            assert row.irmsd <= 1e-9
        summary = report.summary()
        assert summary["crmsd_median"] <= 1e-9

    def test_evaluate_is_deterministic(self):
        pairs = make_pairs(16, 2)
        model = DockingModel(COMPACT, seed=1)
        a = evaluate(model, pairs, seed=3)
        b = evaluate(model, pairs, seed=3)
        assert [(r.pair_id, r.crmsd, r.irmsd, r.status) for r in a.rows] == \
               [(r.pair_id, r.crmsd, r.irmsd, r.status) for r in b.rows]

    def test_degenerate_prediction_falls_back_to_input(self, monkeypatch):
        pairs = make_pairs(17, 1)

        def boom(*a, **k):
            raise DegenerateKeypointsError("forced")

        monkeypatch.setattr(training, "predict_dock", boom)
        model = DockingModel(COMPACT, seed=0)
        report = evaluate(model, pairs, seed=0)
        assert report.rows[0].status == "degenerate"
        assert report.rows[0].crmsd > 1.0

    def test_non_finite_prediction_falls_back_to_input(self, monkeypatch):
        """1e200 weights overflow to NaN on every pair; each row is scored at its input pose."""
        pairs = make_pairs(19, 2)
        model = DockingModel(COMPACT, seed=0)
        model.params["embed.project.W"].data[:] = 1e200
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.warns(RuntimeWarning, match="invalid value"):
            report = evaluate(model, pairs, seed=0)
        assert [r.status for r in report.rows] == ["non_finite", "non_finite"]

        def degenerate(*a, **k):
            raise DegenerateKeypointsError("forced")

        monkeypatch.setattr(training, "predict_dock", degenerate)
        at_input = evaluate(model, pairs, seed=0)
        assert [(r.crmsd, r.irmsd) for r in report.rows] == \
               [(r.crmsd, r.irmsd) for r in at_input.rows]
        assert all(math.isfinite(r.crmsd) and math.isfinite(r.irmsd) for r in report.rows)

    def test_non_finite_predicted_motion_falls_back_to_input(self, monkeypatch):
        """A motion with an infinite translation is a ``non_finite`` row, scored at its input."""
        pairs = make_pairs(17, 1)
        kabsch_tensors = docking.kabsch_tensors

        def infinite_shift(Y1, Y2):
            R, t = kabsch_tensors(Y1, Y2)
            return R, ad.constant([[np.inf], [0.0], [0.0]])

        monkeypatch.setattr(docking, "kabsch_tensors", infinite_shift)
        model = DockingModel(COMPACT, seed=0)
        [row] = evaluate(model, pairs, seed=0).rows
        assert row.status == "non_finite"

        def degenerate(*a, **k):
            raise DegenerateKeypointsError("forced")

        monkeypatch.setattr(training, "predict_dock", degenerate)
        [at_input] = evaluate(model, pairs, seed=0).rows
        assert (row.crmsd, row.irmsd) == (at_input.crmsd, at_input.irmsd)
        assert math.isfinite(row.crmsd) and math.isfinite(row.irmsd)

    def test_csv_contains_rows_and_summary(self, tmp_path):
        pairs = make_pairs(18, 2)
        model = DockingModel(COMPACT, seed=0)
        report = evaluate(model, pairs, seed=0)
        path = tmp_path / "eval.csv"
        write_eval_csv(report, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "pair_id,crmsd,irmsd,status"
        assert len(lines) == 1 + len(report.rows) + 6
        assert any(line.startswith("crmsd_median,") for line in lines)

    def test_summary_without_a_finite_irmsd_is_nan(self, tmp_path):
        report = EvalReport([EvalRow("a", 1.0, float("nan"), "no_contact"),
                             EvalRow("b", 3.0, float("nan"), "no_contact")])
        summary = report.summary()
        assert all(math.isnan(summary[f"irmsd_{stat}"]) for stat in ("median", "mean", "std"))
        assert summary["crmsd_median"] == 2.0
        path = tmp_path / "eval.csv"
        write_eval_csv(report, str(path))
        rows = {row[0]: row[1] for row in csv.reader(path.read_text().splitlines())}
        assert [rows[f"irmsd_{stat}"] for stat in ("mean", "median", "std")] == ["nan"] * 3

    def test_no_contact_pair_is_scored_without_irmsd(self):
        pairs = make_pairs(21, 2)
        broken = far_pair(pairs[0])
        model = DockingModel(COMPACT, seed=0)
        report = evaluate(model, [pairs[1], broken], seed=0)
        good, bad = report.rows
        assert good.status == "ok" and math.isfinite(good.irmsd)
        assert bad.pair_id == broken.pair_id and bad.status == "no_contact"
        assert math.isnan(bad.irmsd) and math.isfinite(bad.crmsd)
        summary = report.summary()
        assert summary["irmsd_median"] == summary["irmsd_mean"] == good.irmsd
        assert summary["irmsd_std"] == 0.0
        assert summary["crmsd_median"] == pytest.approx(0.5 * (good.crmsd + bad.crmsd))


def test_default_training_step_records_at_most_150_tape_nodes():
    """Message passes, node updates and keypoint heads are one tape node each."""
    prep = prepare_pair(generate_pair(np.random.default_rng(3), "p", 40, 50))
    model = DockingModel(ModelConfig(), seed=0)
    for swap in (False, True):
        move = random_se3(np.random.default_rng(6))
        with ad.Tape() as tape:
            loss, _ = training._training_step(model, prep, swap, move)
            assert len(tape) <= 150
            tape.backward(loss)


def test_criterion_05_checks_every_op_a_training_step_records(monkeypatch):
    """Each op that records a tape node in a default-config step has a criterion 05 case."""
    recorded = set()

    def naming(emit):
        def emit_and_name(*args):
            tape = ad._active_tape()
            before = len(tape) if tape is not None else 0
            out = emit(*args)
            if tape is not None and len(tape) > before:
                recorded.add(sys._getframe(1).f_code.co_name)
            return out
        return emit_and_name

    monkeypatch.setattr(ad, "_emit", naming(ad._emit))
    monkeypatch.setattr(ad, "_emit_multi", naming(ad._emit_multi))
    prep = prepare_pair(generate_pair(np.random.default_rng(3), "p", 40, 50))
    model = DockingModel(ModelConfig(), seed=0)
    for swap in (False, True):
        move = random_se3(np.random.default_rng(6))
        with ad.Tape() as tape:
            loss, _ = training._training_step(model, prep, swap, move)
            tape.backward(loss)
    # a case is named by its op, then perhaps a variant ("reduce_sum axis")
    checked = {name.split()[0] for name, _, _ in _primitive_op_cases(np.random.default_rng(500))}
    assert {"message_pass", "node_update", "keypoint_attention", "svd3"} <= recorded
    assert recorded <= checked | {"svd3"}, recorded - checked


# Gradient SHA-256 of one taped COMPACT step. A budget of 1000 entries gives
# the message passes blocks of three nodes (28 edge rows x k = 10 per node),
# so a 30-40 residue graph spans many blocks and backward forms its edge
# arrays again; 2**16 holds each graph in one block, whose arrays the tape
# keeps. Both digests are those of the forward-copy tape that kept every
# edge array at 8 bytes an entry.
STEP_GRADIENT_SHA256 = {
    2**16: "669c4eec195ab5d369ff80b35d4f83f65e45af8e6b4f4c3a40a0eb7d04dd9983",
    1000: "74dec02815686a12156698d1e6a44f0897786960c33d7693731c35898881944d",
}


@pytest.mark.parametrize("budget", sorted(STEP_GRADIENT_SHA256))
def test_taped_step_gradient_bits_are_pinned(budget):
    prep = prepare_pair(generate_pair(np.random.default_rng(41), "p", 30, 40))
    model = DockingModel(COMPACT, seed=0)
    move = random_se3(np.random.default_rng(42))
    with mock.patch.object(tiles, "TILE_ENTRIES", budget), ad.Tape() as tape:
        loss, _ = training._training_step(model, prep, False, move)
        tape.backward(loss)
    digest = hashlib.sha256()
    for name in sorted(model.params):
        digest.update(model.params[name].grad.tobytes())
    assert digest.hexdigest() == STEP_GRADIENT_SHA256[budget]
