"""Rigid transforms, Kabsch fitting, and pose prediction consistency."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from rigiddock import autodiff as ad
from rigiddock.checks import check_complex_invariance, check_role_swap, check_transform_covariance
from rigiddock.docking import (
    DegenerateKeypointsError,
    DockResult,
    dock_forward,
    kabsch,
    kabsch_tensors,
    predict_dock,
)
from rigiddock.geometry import RigidTransform, random_rotation
from rigiddock.graphs import build_graph
from rigiddock.model import DockingModel, ModelConfig

from conftest import random_residue_set


def make_model(seed=0):
    return DockingModel(ModelConfig(hidden_dim=16, layers=2, heads=6), seed=seed)


def spiked_model(seed=0):
    """Model with nonzero coordinate gates, so poses depend on parameters."""
    model = make_model(seed)
    rng = np.random.default_rng(seed + 1000)
    for l in range(model.config.layers):
        name = f"iegmn.layer{l}.phi_x.lin1.W"
        model.params[name].data = rng.uniform(-0.2, 0.2, model.params[name].data.shape)
    return model


class TestRigidTransform:
    def test_apply_compose_inverse(self):
        rng = np.random.default_rng(0)
        a = RigidTransform(random_rotation(rng), rng.normal(size=(3, 1)))
        X = rng.normal(size=(3, 17))
        assert np.allclose(a.inverse().apply(a.apply(X)), X, atol=1e-12)
        assert np.allclose(a.R @ a.inverse().R, np.eye(3), atol=1e-12)

    def test_rejects_improper_rotation(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros((3, 1)))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.01, np.zeros((3, 1)))

    def test_rejects_bad_shapes_and_nan(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(4), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3), np.zeros((4,)))
        t = np.zeros((3, 1))
        t[0, 0] = np.nan
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3), t)

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        tr = RigidTransform(random_rotation(rng), rng.normal(size=(3, 1)))
        text = tr.to_json()
        back = RigidTransform.from_json(text)
        assert np.allclose(back.R, tr.R, atol=1e-15)
        assert np.allclose(back.t, tr.t, atol=1e-15)
        payload = json.loads(text)
        assert payload["convention"].startswith("y = R x + t")
        payload["convention"] = "x = R y - t"
        with pytest.raises(ValueError):
            RigidTransform.from_json(json.dumps(payload))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3))
    def test_property_json_round_trip_is_bit_exact(self, seed, t):
        tr = RigidTransform(random_rotation(np.random.default_rng(seed)), np.array(t))
        back = RigidTransform.from_json(tr.to_json())
        assert back.R.tobytes() == tr.R.tobytes()
        assert back.t.tobytes() == tr.t.tobytes()

    @pytest.mark.parametrize("convention", [5, None, ["y = R x + t"]])
    def test_json_non_string_convention_is_a_value_error(self, convention):
        payload = json.loads(RigidTransform(np.eye(3), np.zeros(3)).to_json())
        payload["convention"] = convention
        with pytest.raises(ValueError, match="convention"):
            RigidTransform.from_json(json.dumps(payload))


class TestKabsch:
    def test_exact_recovery(self):
        rng = np.random.default_rng(2)
        for trial in range(25):
            k = int(rng.integers(4, 51))
            Y1 = rng.normal(scale=4.0, size=(3, k))
            R = random_rotation(rng)
            t = rng.uniform(-10, 10, size=(3, 1))
            fit = kabsch(Y1, R @ Y1 + t)
            assert np.max(np.abs(fit.R - R)) <= 1e-9
            assert np.max(np.abs(fit.t - t.ravel())) <= 1e-9

    def test_mirrored_matches_rotation_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            k = int(rng.integers(4, 30))
            Y1 = rng.normal(size=(3, k))
            Y2 = np.diag([1.0, 1.0, -1.0]) @ rng.normal(size=(3, k))
            fit = kabsch(Y1, Y2)
            assert np.linalg.det(fit.R) > 0.999999
            oracle, _ = Rotation.align_vectors(
                (Y2 - Y2.mean(axis=1, keepdims=True)).T,
                (Y1 - Y1.mean(axis=1, keepdims=True)).T)
            assert np.max(np.abs(fit.R - oracle.as_matrix())) <= 1e-6

    def test_noisy_fit_matches_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            Y1 = rng.normal(scale=3.0, size=(3, 12))
            R = random_rotation(rng)
            Y2 = R @ Y1 + rng.normal(size=(3, 1)) + rng.normal(scale=0.3, size=(3, 12))
            fit = kabsch(Y1, Y2)
            oracle, _ = Rotation.align_vectors(
                (Y2 - Y2.mean(axis=1, keepdims=True)).T,
                (Y1 - Y1.mean(axis=1, keepdims=True)).T)
            assert np.max(np.abs(fit.R - oracle.as_matrix())) <= 1e-6

    def test_collinear_raises(self):
        s = np.linspace(0.0, 5.0, 8)
        Y1 = np.stack([s, 2 * s, -s])
        with pytest.raises(DegenerateKeypointsError):
            kabsch(Y1, Y1 + 1.0)

    def test_too_few_points_raises(self):
        with pytest.raises(ad.ShapeError):
            kabsch(np.zeros((3, 2)), np.zeros((3, 2)))

    def test_gradient_through_fit(self):
        rng = np.random.default_rng(5)
        Y1 = ad.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        Y2 = ad.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        target = rng.normal(size=(3, 6))

        def f():
            R, t = kabsch_tensors(Y1, Y2)
            moved = ad.add(ad.matmul(R, ad.constant(target)), t)
            return ad.reduce_sum(ad.mul(moved, moved))

        assert ad.grad_check(f, [Y1, Y2]) <= 1e-4


class TestDockForward:
    def test_receptor_translation_shifts_t_only(self):
        rng = np.random.default_rng(6)
        model = spiked_model(0)
        g1 = build_graph(random_residue_set(rng, 12))
        g2 = build_graph(random_residue_set(rng, 14))
        base = predict_dock(model, g1, g2)
        shift = np.array([1000.0, -250.0, 640.0])
        moved = predict_dock(model, g1, g2, X_rec=g2.X + shift[:, None])
        assert np.max(np.abs(moved.R - base.R)) <= 1e-9
        assert np.max(np.abs(moved.t - (base.t + shift))) <= 1e-7

    def test_result_transform_matches_pose(self):
        rng = np.random.default_rng(7)
        model = spiked_model(1)
        g1 = build_graph(random_residue_set(rng, 10))
        g2 = build_graph(random_residue_set(rng, 11))
        result = dock_forward(model, g1, g2)
        tr = result.transform()
        assert np.max(np.abs(tr.apply(g1.X) - result.ligand_pose.data)) <= 1e-9

    def test_transform_covariance(self):
        rng = np.random.default_rng(8)
        model = spiked_model(2)
        g1 = build_graph(random_residue_set(rng, 11))
        g2 = build_graph(random_residue_set(rng, 13))
        assert check_transform_covariance(model, g1, g2, seed=0, trials=5) <= 1e-6

    def test_role_swap_consistency(self):
        rng = np.random.default_rng(9)
        model = spiked_model(3)
        g1 = build_graph(random_residue_set(rng, 12))
        g2 = build_graph(random_residue_set(rng, 12))
        assert check_role_swap(model, g1, g2) <= 1e-6

    def test_complex_invariance(self):
        rng = np.random.default_rng(10)
        model = spiked_model(4)
        g1 = build_graph(random_residue_set(rng, 10))
        g2 = build_graph(random_residue_set(rng, 15))
        assert check_complex_invariance(model, g1, g2, seed=0, trials=5) <= 1e-4

    def test_gradient_reaches_parameters_through_pose(self):
        rng = np.random.default_rng(11)
        model = spiked_model(5)
        g1 = build_graph(random_residue_set(rng, 8))
        g2 = build_graph(random_residue_set(rng, 9))
        with ad.Tape() as tape:
            result = dock_forward(model, g1, g2)
            loss = ad.reduce_sum(ad.mul(result.ligand_pose, result.ligand_pose))
            tape.backward(loss)
        for name in ("embed.table", "iegmn.layer0.phi_x.lin1.W", "keypoints.w_prime"):
            grad = model.params[name].grad
            assert grad is not None and np.linalg.norm(grad) > 0.0, name
