"""The random-motion structural checks: which motions they draw, and their trial count."""

import numpy as np
import pytest

from rigiddock import checks
from rigiddock.geometry import random_se3
from rigiddock.graphs import build_graph
from rigiddock.model import DockingModel, ModelConfig

from conftest import random_residue_set

MOTION_CHECKS = [checks.check_pairwise_equivariance, checks.check_transform_covariance,
                 checks.check_complex_invariance]


@pytest.fixture(scope="module")
def model_and_graphs():
    rng = np.random.default_rng(12)
    model = DockingModel(ModelConfig(hidden_dim=8, layers=1, heads=4), seed=0)
    return model, build_graph(random_residue_set(rng, 9)), build_graph(random_residue_set(rng, 10))


@pytest.mark.parametrize("check", MOTION_CHECKS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("seed, trials", [(0, 1), (3, 2), (11, 4)])
def test_draws_two_successive_motions_per_trial(model_and_graphs, monkeypatch, check,
                                                seed, trials):
    drawn = []

    def recorder(rng):
        move = random_se3(rng)
        drawn.append(move)
        return move

    monkeypatch.setattr(checks, "random_se3", recorder)
    check(*model_and_graphs, seed=seed, trials=trials)
    assert len(drawn) == 2 * trials
    rng = np.random.default_rng(seed)
    for move in drawn:
        want = random_se3(rng)
        assert np.array_equal(move.R, want.R) and np.array_equal(move.t, want.t)


@pytest.mark.parametrize("check", MOTION_CHECKS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("trials", [0, -1])
def test_trials_below_one_raise_before_the_model_runs(model_and_graphs, monkeypatch,
                                                      check, trials):
    def no_call(*args, **kwargs):
        raise AssertionError("the model ran")

    model, g1, g2 = model_and_graphs
    monkeypatch.setattr(model, "forward", no_call)
    monkeypatch.setattr(checks, "predict_dock", no_call)
    with pytest.raises(ValueError, match=f"^trials must be an integer >= 1, got {trials}$"):
        check(model, g1, g2, seed=0, trials=trials)
