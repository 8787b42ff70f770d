"""Network structure: equivariance, permutation behavior, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigiddock import autodiff as ad
from rigiddock.checks import check_pairwise_equivariance
from rigiddock.graphs import build_graph
from rigiddock.model import BETA, ETA, LEAKY_SLOPE, SIGMA_MSG, DockingModel, ModelConfig
from rigiddock.pdbio import ResidueSet

import reference_ops
from conftest import random_residue_set


@pytest.fixture
def small_pair():
    rng = np.random.default_rng(10)
    g1 = build_graph(random_residue_set(rng, 13))
    g2 = build_graph(random_residue_set(rng, 11))
    return g1, g2


@pytest.fixture
def small_model():
    return DockingModel(ModelConfig(hidden_dim=16, layers=2, heads=6), seed=0)


def permuted_residues(rs: ResidueSet, perm: np.ndarray) -> ResidueSet:
    return ResidueSet(
        ca=rs.ca[:, perm],
        n_atom=rs.n_atom[:, perm],
        c_atom=rs.c_atom[:, perm],
        types=rs.types[perm],
        names=[rs.names[i] for i in perm],
        chains=[rs.chains[i] for i in perm],
        seq_ids=[rs.seq_ids[i] for i in perm],
        icodes=[rs.icodes[i] for i in perm],
    )


def test_forward_shapes(small_model, small_pair):
    g1, g2 = small_pair
    Z1, H1, Z2, H2 = small_model.forward(g1, g2)
    d = small_model.config.hidden_dim
    assert Z1.data.shape == (3, 13) and H1.data.shape == (d, 13)
    assert Z2.data.shape == (3, 11) and H2.data.shape == (d, 11)


def test_keypoint_attention_rows_are_convex(small_model, small_pair):
    g1, g2 = small_pair
    Z1, H1, Z2, H2 = small_model.forward(g1, g2)
    Y1, att = small_model.keypoints(Z1, H1, H2)
    assert Y1.data.shape == (3, small_model.config.heads)
    assert att.data.shape == (small_model.config.heads, 13)
    assert np.max(np.abs(att.data.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(att.data >= 0.0)
    # every keypoint lies inside the bounding box of its protein
    assert np.all(Y1.data <= g1.X.max(axis=1, keepdims=True) + 1e-9)
    assert np.all(Y1.data >= g1.X.min(axis=1, keepdims=True) - 1e-9)


def test_pairwise_equivariance(small_model, small_pair):
    g1, g2 = small_pair
    assert check_pairwise_equivariance(small_model, g1, g2, seed=1, trials=5) <= 1e-6


def test_common_translation_moves_coordinates_only(small_model, small_pair):
    g1, g2 = small_pair
    base = small_model.forward(g1, g2)
    t = np.array([12.0, -7.0, 3.0])[:, None]
    out = small_model.forward(g1, g2, X1=g1.X + t, X2=g2.X + t)
    assert np.max(np.abs(out[0].data - (base[0].data + t))) <= 1e-9
    assert np.max(np.abs(out[2].data - (base[2].data + t))) <= 1e-9
    assert np.max(np.abs(out[1].data - base[1].data)) <= 1e-9
    assert np.max(np.abs(out[3].data - base[3].data)) <= 1e-9


def test_coordinate_leak_is_caught(small_model, small_pair, monkeypatch):
    """A deliberately broken cross-graph message must fail the checker."""
    g1, g2 = small_pair

    def leaky(self, prefix, H_other, Z_other):
        padded = ad.concat(
            [Z_other, ad.constant(np.zeros((self.config.hidden_dim - 3, Z_other.data.shape[1])))],
            axis=0)
        return ad.matmul(self.params[prefix + "cross.W"], ad.add(H_other, padded))

    monkeypatch.setattr(DockingModel, "_cross_values", leaky)
    assert check_pairwise_equivariance(small_model, g1, g2, seed=1, trials=5) > 1e-3


def test_permutation_relabels_nodes(small_model):
    rng = np.random.default_rng(11)
    rs1 = random_residue_set(rng, 12)
    rs2 = random_residue_set(rng, 9)
    perm = rng.permutation(12)
    base = small_model.forward(build_graph(rs1), build_graph(rs2))
    out = small_model.forward(build_graph(permuted_residues(rs1, perm)), build_graph(rs2))
    assert np.max(np.abs(out[0].data - base[0].data[:, perm])) <= 1e-9
    assert np.max(np.abs(out[1].data - base[1].data[:, perm])) <= 1e-9
    assert np.max(np.abs(out[3].data - base[3].data)) <= 1e-9


def test_role_swap_swaps_outputs_exactly(small_model, small_pair):
    g1, g2 = small_pair
    a = small_model.forward(g1, g2)
    b = small_model.forward(g2, g1)
    for x, y in zip(a, (b[2], b[3], b[0], b[1])):
        assert np.array_equal(x.data, y.data)


def test_gradients_reach_all_parameter_groups(small_model, small_pair):
    g1, g2 = small_pair
    model = small_model
    with ad.Tape() as tape:
        Z1, H1, Z2, H2 = model.forward(g1, g2)
        Y1, _ = model.keypoints(Z1, H1, H2)
        Y2, _ = model.keypoints(Z2, H2, H1)
        loss = ad.add(ad.reduce_sum(ad.mul(Y1, Y1)), ad.reduce_sum(ad.mul(Y2, Y2)))
        tape.backward(loss)
    for name in ("embed.table", "embed.project.W", "iegmn.layer0.phi_e.lin0.W",
                 "iegmn.layer1.cross.W", "iegmn.layer0.att_q.W",
                 "keypoints.phi.W", "keypoints.w_prime"):
        grad = model.params[name].grad
        assert grad is not None and np.linalg.norm(grad) > 0.0, name


def test_finite_difference_through_two_layers(small_pair):
    g1, g2 = small_pair
    model = DockingModel(ModelConfig(hidden_dim=8, layers=2, heads=4), seed=3)
    # perturb the zero-initialized coordinate gates so they influence output
    rng = np.random.default_rng(4)
    for l in (0, 1):
        name = f"iegmn.layer{l}.phi_x.lin1.W"
        model.params[name].data = rng.uniform(-0.3, 0.3, model.params[name].data.shape)

    checked = [model.params["embed.table"],
               model.params["iegmn.layer0.phi_x.lin1.W"],
               model.params["iegmn.layer1.cross.W"],
               model.params["keypoints.w_prime"]]

    def f():
        Z1, H1, Z2, H2 = model.forward(g1, g2)
        Y1, _ = model.keypoints(Z1, H1, H2)
        return ad.reduce_sum(ad.mul(Y1, Y1))

    assert ad.grad_check(f, checked) <= 1e-4


def test_state_round_trip_and_mismatch(small_model):
    arrays = small_model.state_arrays()
    clone = DockingModel(small_model.config, seed=99)
    clone.load_state_arrays(arrays)
    for name, value in arrays.items():
        assert np.array_equal(clone.params[name].data, value)
    with pytest.raises(ValueError, match="mismatch"):
        partial = dict(arrays)
        partial.pop("embed.table")
        clone.load_state_arrays(partial)
    with pytest.raises(ValueError, match="shape"):
        bad = dict(arrays)
        bad["embed.table"] = np.zeros((2, 2))
        clone.load_state_arrays(bad)
    with pytest.raises(ValueError, match=r"unexpected \['extra'\]"):
        clone.load_state_arrays({**arrays, "extra": np.zeros(1)})


def test_config_round_trip_and_validation():
    cfg = ModelConfig(hidden_dim=24, layers=3, heads=12, neighbors=7)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError):
        ModelConfig(layers=0)
    with pytest.raises(ValueError, match="eta"):
        ModelConfig.from_dict({"eta": 1.5})
    with pytest.raises(ValueError):
        ModelConfig(heads=0)


@pytest.mark.parametrize("key, value, accepted", [
    ("leaky_slope", 0.01, True), ("eta", 0.25, True), ("beta", 0.5, True),
    ("sigma_msg", 30.0, True), ("share_layers", False, True),
    ("sigma_msg", 30, False),       # an int, not the float to_dict wrote
    ("beta", 0.5000001, False), ("leaky_slope", float("nan"), False),
    ("eta", True, False), ("normalize_h", 1, False),
])
def test_retired_keys_accept_only_their_built_in_value(key, value, accepted):
    d = {**ModelConfig().to_dict(), key: value}
    if accepted:
        assert ModelConfig.from_dict(d) == ModelConfig()
    else:
        with pytest.raises(ValueError, match=f"{key} is retired"):
            ModelConfig.from_dict(d)


def test_coordinate_override_shape_checked(small_model, small_pair):
    g1, g2 = small_pair
    with pytest.raises(ad.ShapeError):
        small_model.forward(g1, g2, X1=np.zeros((3, 5)))


class PrimitiveModel(DockingModel):
    """DockingModel with its layers and keypoint head built from primitive ops."""

    def _layer(self, l, state1, state2, g1, g2):
        prefix = f"iegmn.layer{l}."
        (Z1, H1, X1_0, F1), (Z2, H2, X2_0, F2) = state1, state2
        out = []
        for (Z, H, X0, F, g), (H_to, H_from, Z_from) in zip(
                ((Z1, H1, X1_0, F1, g1), (Z2, H2, X2_0, F2, g2)),
                ((H1, H2, Z2), (H2, H1, Z1))):
            m_node, z_new = reference_ops.message_pass(
                self._mlp_params(prefix + "phi_e"), self._mlp_params(prefix + "phi_x"),
                Z, H, X0, g.edge_feats, g.neighbors, LEAKY_SLOPE, SIGMA_MSG, ETA, 1.0)
            mu = self._cross_messages(prefix, H_to, H_from, Z_from)
            h_new = reference_ops.node_update(*self._mlp_params(prefix + "phi_h"), H,
                                              [m_node, mu, F], BETA, LEAKY_SLOPE)
            out.append((z_new, h_new, X0, F))
        return out[0], out[1]

    def keypoints(self, Z, H, H_other):
        p = self.params
        return reference_ops.keypoint_attention(
            p["keypoints.phi.W"], p["keypoints.phi.b"], p["keypoints.w_prime"], Z, H, H_other,
            self.config.heads, LEAKY_SLOPE)


def _outputs_and_grads(model, g1, g2):
    model_params = list(model.params.values())
    for p in model_params:
        p.zero_grad()
    with ad.Tape() as tape:
        Z1, H1, Z2, H2 = model.forward(g1, g2)
        (Y1, A1), (Y2, A2) = model.keypoints(Z1, H1, H2), model.keypoints(Z2, H2, H1)
        outs = [Z1, H1, Z2, H2, Y1, A1, Y2, A2]
        loss = ad.add(ad.reduce_sum(ad.mul(Y1, Y1)), ad.reduce_sum(ad.mul(Y2, ad.scale(Y1, 0.3))))
        loss = ad.add(loss, ad.reduce_sum(ad.mul(A1, A1)))
        tape.backward(loss)
    return [o.data for o in outs], {n: p.grad for n, p in model.params.items()}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(3, 14), st.integers(3, 14), st.integers(0, 2**16))
def test_property_fused_model_matches_primitive_model(layers, n1, n2, seed):
    """Fused and primitive layers agree to 1e-10 on every output and gradient.

    Proteins of 3-14 residues put k below 10 for most draws. The key bias
    att_k.b shifts every logit of a softmax row equally, so its true
    gradient is 0 and both sides hold only rounding there.
    """
    config = ModelConfig(hidden_dim=6, layers=layers, heads=3)
    rng = np.random.default_rng(seed)
    g1 = build_graph(random_residue_set(rng, n1))
    g2 = build_graph(random_residue_set(rng, n2))
    fused, reference = DockingModel(config, seed=seed), PrimitiveModel(config, seed=seed)
    for name, p in fused.params.items():
        p.data = p.data + rng.uniform(-0.2, 0.2, p.data.shape)  # the gates start at 0
        reference.params[name].data = p.data.copy()
    outs, grads = _outputs_and_grads(fused, g1, g2)
    ref_outs, ref_grads = _outputs_and_grads(reference, g1, g2)
    for out, ref in zip(outs, ref_outs):
        assert np.max(np.abs(out - ref)) <= 1e-10 * np.max(np.abs(ref))
    largest = max(np.max(np.abs(g)) for g in ref_grads.values() if g is not None)
    for name, ref in ref_grads.items():
        got = grads[name]
        if name.endswith("att_k.b"):
            assert max(np.max(np.abs(got)), np.max(np.abs(ref))) <= 1e-10 * largest, name
        elif ref is None:
            assert got is None or not np.any(got), name
        else:
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), name
