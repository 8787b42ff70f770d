"""Optimizer behavior, training loop bookkeeping, and evaluation."""

import csv
import math

import numpy as np
import pytest

from rigiddock import autodiff as ad
from rigiddock import losses, training
from rigiddock.checkpoint import load_named_tensors
from rigiddock.docking import DegenerateKeypointsError
from rigiddock.geometry import TRANSLATION_SCALE, RigidTransform, random_se3
from rigiddock.model import DockingModel, ModelConfig
from rigiddock.synthetic import DockingPair, generate_pair
from rigiddock.transport import WarmStart
from rigiddock.training import (
    Adam,
    TrainConfig,
    evaluate,
    prepare_pair,
    train,
    write_eval_csv,
)


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
        [message] = [r.getMessage() for r in caplog.records if "non-finite" in r.getMessage()]
        assert message.endswith("step skipped")
        assert f"non-finite {poison} on" in message and "swap=True" in message
        first = "keypoints.w_prime" if poison == "gradient" else next(iter(model.params))
        assert f"first non-finite gradient: {first})" in message


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
