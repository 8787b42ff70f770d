"""Top-level acceptance checks, one test per shipped guarantee.

Run with -v to get one pass/fail line per criterion. Each test states its
tolerance inline and prints a short summary on success.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest
import scipy.stats

from rigiddock import autodiff as ad
from rigiddock import graphs
from rigiddock.checkpoint import save_named_tensors
from rigiddock.checks import check_complex_invariance, check_pairwise_equivariance, check_role_swap
from rigiddock.cli import main as cli_main
from rigiddock.docking import dock_forward, kabsch, predict_dock
from rigiddock.geometry import RigidTransform, random_rotation, random_se3
from rigiddock.graphs import build_graph
from rigiddock.losses import ot_pocket_loss, total_loss
from rigiddock.metrics import complex_rmsd, kabsch_align, rmsd
from rigiddock.model import DockingModel, ModelConfig
from rigiddock.pdbio import format_ca_pdb, parse_pdb_file
from rigiddock.synthetic import generate_dataset, generate_pair, load_split
from rigiddock.training import (
    TrainConfig,
    evaluate,
    prepare_pair,
    train,
)
from rigiddock.transport import solve_uniform_transport

from conftest import DATA_DIR, random_residue_set
from test_transport import brute_force_objective


def spiked_model(config: ModelConfig, seed: int) -> DockingModel:
    """Random weights with nonzero coordinate gates (the init zeroes them)."""
    model = DockingModel(config, seed=seed)
    rng = np.random.default_rng(seed + 7777)
    for l in range(config.layers):
        name = f"iegmn.layer{l}.phi_x.lin1.W"
        model.params[name].data = rng.uniform(-0.2, 0.2, model.params[name].data.shape)
    return model


def random_graph_pair(rng, lo=9, hi=14):
    n1 = int(rng.integers(lo, hi + 1))
    n2 = int(rng.integers(lo, hi + 1))
    return (build_graph(random_residue_set(rng, n1), 8),
            build_graph(random_residue_set(rng, n2), 8))


def test_criterion_01_pairwise_equivariance():
    """Max relative deviation <= 1e-6 over 20+ draws, 2-8 layer models, <30 s."""
    start = time.monotonic()
    rng = np.random.default_rng(100)
    worst = 0.0
    draws = 0
    for layers in range(2, 9):
        model = spiked_model(ModelConfig(hidden_dim=12, layers=layers, heads=4), seed=layers)
        g1, g2 = random_graph_pair(rng)
        dev = check_pairwise_equivariance(model, g1, g2, seed=layers, trials=3)
        worst = max(worst, dev)
        draws += 3
    elapsed = time.monotonic() - start
    assert draws >= 20
    assert worst <= 1e-6
    assert elapsed < 30.0
    print(f"criterion 1: PASS (max deviation {worst:.2e}, {draws} draws, {elapsed:.1f} s)")


def test_criterion_02_complex_invariance():
    """Complexes from transformed inputs superimpose to <= 1e-4 A, 20 seeds."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        model = spiked_model(ModelConfig(hidden_dim=12, layers=2, heads=5), seed=seed)
        g1, g2 = random_graph_pair(rng)
        worst = max(worst, check_complex_invariance(model, g1, g2, seed=seed, trials=1))
    assert worst <= 1e-4
    print(f"criterion 2: PASS (max complex RMSD {worst:.2e} A over 20 seeds)")


def test_criterion_03_role_swap():
    """Swapped roles give the inverse motion (<=1e-6) and the same complex (<=1e-4)."""
    worst_rt = 0.0
    worst_complex = 0.0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        model = spiked_model(ModelConfig(hidden_dim=12, layers=2, heads=5), seed=seed)
        g1, g2 = random_graph_pair(rng)
        worst_rt = max(worst_rt, check_role_swap(model, g1, g2))
        fwd = predict_dock(model, g1, g2)
        rev = predict_dock(model, g2, g1)
        stack_fwd = np.concatenate([fwd.apply(g1.X), g2.X], axis=1)
        stack_rev = np.concatenate([g1.X, rev.apply(g2.X)], axis=1)
        R, t = kabsch_align(stack_rev, stack_fwd)
        worst_complex = max(worst_complex, rmsd(R @ stack_rev + t[:, None], stack_fwd))
    assert worst_rt <= 1e-6
    assert worst_complex <= 1e-4
    print(f"criterion 3: PASS (R/t deviation {worst_rt:.2e}, "
          f"complex RMSD {worst_complex:.2e} A)")


def test_criterion_04_kabsch_recovery():
    """100 clouds K=4..50: recovery <= 1e-8; det = +1 in all, incl. 20 mirrored."""
    rng = np.random.default_rng(400)
    worst = 0.0
    dets = []
    for trial in range(80):
        k = int(rng.integers(4, 51))
        Y1 = rng.normal(scale=4.0, size=(3, k))
        R = random_rotation(rng)
        t = rng.uniform(-15, 15, size=3)
        fit = kabsch(Y1, R @ Y1 + t[:, None])
        worst = max(worst, np.max(np.abs(fit.R - R)), np.max(np.abs(fit.t - t)))
        dets.append(np.linalg.det(fit.R))
    for trial in range(20):
        k = int(rng.integers(4, 51))
        Y1 = rng.normal(scale=4.0, size=(3, k))
        mirrored = np.diag([1.0, 1.0, -1.0]) @ Y1
        fit = kabsch(Y1, random_rotation(rng) @ mirrored + rng.uniform(-5, 5, size=(3, 1)))
        dets.append(np.linalg.det(fit.R))
    assert worst <= 1e-8
    assert len(dets) == 100
    assert all(abs(d - 1.0) <= 1e-9 for d in dets)
    print(f"criterion 4: PASS (recovery {worst:.2e}, det=+1 in 100/100)")


def _primitive_op_cases(rng):
    """(name, input arrays, scalar-valued builder) for every tape operation.

    Each builder mixes the op's output with a fixed random probe so every
    entry of the gradient matters. Probes are drawn once, outside the
    closures: grad_check re-evaluates the function for finite differences
    and needs it deterministic.
    """
    A = rng.normal(size=(4, 3))
    B = rng.normal(size=(4, 3))
    col = rng.normal(size=(4, 1))
    M = rng.normal(size=(3, 5))
    v = rng.normal(size=(5,))
    w = rng.normal(size=(5,))
    pos = rng.uniform(0.5, 2.0, size=(4, 3))
    kinkfree = rng.choice([-1.0, 1.0], size=(4, 3)) * rng.uniform(0.2, 1.5, size=(4, 3))
    idx = np.array([0, 2, 2, 1])
    segs = np.array([0, 1, 0, 2, 1])
    left = ad.constant(rng.normal(size=(2, 3)))
    p25 = ad.constant(rng.normal(size=(2, 5)))
    p34 = ad.constant(rng.normal(size=(3, 4)))
    p26 = ad.constant(rng.normal(size=(2, 6)))
    p3 = ad.constant(rng.normal(size=(3,)))
    p4 = ad.constant(rng.normal(size=(4,)))
    p46 = ad.constant(rng.normal(size=(4, 6)))
    p43 = ad.constant(rng.normal(size=(4, 3)))
    p43b = ad.constant(rng.normal(size=(4, 3)))
    p44 = ad.constant(rng.normal(size=(4, 4)))
    p33 = ad.constant(rng.normal(size=(3, 3)))
    p46b = ad.constant(rng.normal(size=(4, 6)))
    # the fused layers draw from their own stream, leaving the draws above
    # and those of the later checks unchanged
    frng = np.random.default_rng(505)
    nbrs = np.array([[1, 2], [0, 2], [3, 0], [2, 1]])  # 4 nodes, k = 2
    layer = [frng.normal(size=s) for s in ((3, 2), (3, 1), (2, 3), (2, 1))]
    p26b = ad.constant(frng.normal(size=(2, 6)))
    p28 = ad.constant(frng.normal(size=(2, 8)))
    # and so does the fused cross-attention
    arng = np.random.default_rng(506)
    attention = [arng.normal(size=s) for s in ((3, 4), (3, 5), (2, 5))]
    p24 = ad.constant(arng.normal(size=(2, 4)))
    # and so do the fused message pass (4 nodes, k = 2), node update and
    # keypoint head, one generator each
    mrng = np.random.default_rng(507)
    message = [mrng.normal(size=s) for s in ((3, 7), (3, 1), (2, 3), (2, 1), (2, 2),
                                              (2, 1), (1, 2), (1, 1), (3, 4), (2, 4))]
    edge_feats = mrng.normal(size=(2, 8))
    X0 = ad.constant(mrng.normal(size=(3, 4)))
    p24m = ad.constant(mrng.normal(size=(2, 4)))
    p34m = ad.constant(mrng.normal(size=(3, 4)))

    def message_pass(W0, b0, W1, b1, Wx0, bx0, Wx1, bx1, Z, H):
        m, z = ad.message_pass((W0, b0, W1, b1), (Wx0, bx0, Wx1, bx1), Z, H, X0,
                               edge_feats, nbrs, 0.1, 3.0, 0.25, 0.5)
        return ad.add(ad.reduce_sum(ad.mul(m, p24m)), ad.reduce_sum(ad.mul(z, p34m)))

    urng = np.random.default_rng(508)
    update = [urng.normal(size=s) for s in ((3, 6), (3, 1), (3, 3), (3, 1), (3, 4),
                                             (2, 4), (1, 4))]
    p34u = ad.constant(urng.normal(size=(3, 4)))
    krng = np.random.default_rng(509)
    keypoint = [krng.normal(size=s) for s in ((2, 3), (2, 1), (6, 2), (3, 5), (3, 5), (3, 4))]
    p32k = ad.constant(krng.normal(size=(3, 2)))
    p25k = ad.constant(krng.normal(size=(2, 5)))
    # and so does the fused intersection depth (509 is the keypoint head's):
    # 6 points against 5, offset so that some points lie inside the level
    # and some outside
    srng = np.random.default_rng(510)
    penetration = [srng.normal(scale=2.0, size=(3, 6)) + np.array([[7.0], [0.0], [0.0]]),
                   srng.normal(scale=2.0, size=(3, 5))]

    def keypoint_attention(*args):
        Y, att = ad.keypoint_attention(*args, 2, 0.1)
        return ad.add(ad.reduce_sum(ad.mul(Y, p32k)), ad.reduce_sum(ad.mul(att, p25k)))

    return [
        ("add", [A, B], lambda a, b: ad.reduce_sum(ad.mul(ad.add(a, b), ad.add(a, b)))),
        ("add broadcast", [A, col], lambda a, c: ad.reduce_sum(ad.mul(ad.add(a, c), ad.add(a, c)))),
        ("sub", [A, B], lambda a, b: ad.reduce_sum(ad.mul(ad.sub(a, b), ad.sub(a, b)))),
        ("mul", [A, B], lambda a, b: ad.reduce_sum(ad.mul(ad.mul(a, b), a))),
        ("scale", [A], lambda a: ad.reduce_sum(ad.mul(ad.scale(a, -2.5), a))),
        ("matmul", [M], lambda m: ad.reduce_sum(ad.mul(ad.matmul(left, m), p25))),
        ("transpose", [A], lambda a: ad.reduce_sum(ad.mul(ad.transpose(a), p34))),
        ("reshape", [A], lambda a: ad.reduce_sum(ad.mul(ad.reshape(a, (2, 6)), p26))),
        ("exp", [A], lambda a: ad.reduce_sum(ad.exp(ad.scale(a, 0.3)))),
        ("log", [pos], lambda p: ad.reduce_sum(ad.log(p))),
        ("leaky_relu", [kinkfree], lambda x: ad.reduce_sum(ad.mul(ad.leaky_relu(x, 0.1), x))),
        ("relu", [kinkfree], lambda x: ad.reduce_sum(ad.mul(ad.relu(x), x))),
        ("reduce_sum axis", [A], lambda a: ad.dot(ad.reduce_sum(a, axis=0), p3)),
        ("reduce_mean", [A], lambda a: ad.dot(ad.reduce_mean(a, axis=1), p4)),
        ("dot", [v, w], lambda a, b: ad.dot(a, b)),
        ("concat", [A, B], lambda a, b: ad.reduce_sum(ad.mul(ad.concat([a, b], axis=1), p46))),
        ("softmax", [A], lambda a: ad.reduce_sum(ad.mul(ad.softmax(a, axis=1), p43))),
        ("layer_norm", [A], lambda a: ad.reduce_sum(ad.mul(ad.layer_norm(a, axis=0), p43b))),
        ("take_columns", [A], lambda a: ad.reduce_sum(ad.mul(ad.take_columns(a, idx), p44))),
        ("segment_sum_columns", [rng.normal(size=(3, 5))],
         lambda a: ad.reduce_sum(ad.mul(ad.segment_sum_columns(a, segs, 3), p33))),
        ("pairwise_sqdist", [rng.normal(size=(3, 4)), rng.normal(size=(3, 6))],
         lambda x, y: ad.reduce_sum(ad.mul(ad.pairwise_sqdist(x, y), p46b))),
        ("linear", [layer[2], frng.normal(size=(3, 6)), layer[3]],
         lambda W, x, b: ad.reduce_sum(ad.mul(ad.linear(W, x, b), p26b))),
        ("mlp", layer + [frng.normal(size=(2, 6))],
         lambda W0, b0, W1, b1, x: ad.reduce_sum(ad.mul(ad.mlp(W0, b0, W1, b1, x, 0.1), p26b))),
        ("edge_mlp", [frng.normal(size=(3, 5)), layer[1], layer[2], layer[3],
                      frng.normal(size=(2, 4)), frng.normal(size=(1, 8))],
         lambda W0, b0, W1, b1, H, e: ad.reduce_sum(
             ad.mul(ad.edge_mlp(W0, b0, W1, b1, H, e, nbrs, 0.1), p28))),
        ("cross_attention", attention,
         lambda q, k, v: ad.reduce_sum(ad.mul(ad.cross_attention(q, k, v), p24))),
        ("message_pass", message, message_pass),
        ("node_update", update,
         lambda W0, b0, W1, b1, H, m, mu: ad.reduce_sum(ad.mul(
             ad.node_update(W0, b0, W1, b1, H, [m, mu], 0.5, 0.1), p34u))),
        ("keypoint_attention", keypoint, keypoint_attention),
        ("surface_penetration", penetration,
         lambda x, y: ad.surface_penetration(x, y, 10.0, 25.0)),
    ]


def test_criterion_05_gradient_suite():
    """grad_check <= 1e-4 on every primitive, svd3, OT loss, end-to-end. <2 min."""
    start = time.monotonic()
    rng = np.random.default_rng(500)
    worst = {"op": 0.0}
    for name, arrays, fn in _primitive_op_cases(rng):
        params = [ad.parameter(np.asarray(a, dtype=np.float64)) for a in arrays]
        err = ad.grad_check(lambda: fn(*params), params)
        assert err <= 1e-4, f"{name}: {err:.2e}"
        worst["op"] = max(worst["op"], err)

    # through the 3x3 SVD
    A = ad.parameter(rng.normal(size=(3, 3)) + np.diag([3.0, 2.0, 1.0]))
    WU = ad.constant(rng.normal(size=(3, 3)))
    WV = ad.constant(rng.normal(size=(3, 3)))
    ws = ad.constant(rng.normal(size=(3,)))

    def f_svd():
        d = ad.svd3(A)
        return ad.add(ad.add(ad.reduce_sum(ad.mul(d.U, WU)),
                             ad.reduce_sum(ad.mul(d.V, WV))),
                      ad.dot(d.S, ws))

    err_svd = ad.grad_check(f_svd, [A])
    assert err_svd <= 1e-4

    # through the frozen-plan transport loss
    Y1 = ad.parameter(rng.normal(scale=3.0, size=(3, 6)))
    Y2 = ad.parameter(rng.normal(scale=3.0, size=(3, 6)))
    P1 = rng.normal(scale=3.0, size=(3, 7))
    P2 = rng.normal(scale=3.0, size=(3, 7))
    err_ot = ad.grad_check(lambda: ot_pocket_loss(Y1, Y2, P1, P2), [Y1, Y2])
    assert err_ot <= 1e-4

    # end-to-end on a 6-residue pair
    pair_rng = np.random.default_rng(501)
    pair = generate_pair(pair_rng, "tiny", 6, 6)
    model = spiked_model(ModelConfig(hidden_dim=8, layers=2, heads=4, neighbors=5), seed=0)
    prep = prepare_pair(pair, neighbors=5)
    move = random_se3(np.random.default_rng(502))
    X_mobile = move.apply(prep.bound_lig)

    def f_end_to_end():
        result = dock_forward(model, prep.graph_lig, prep.graph_rec,
                              X_lig=X_mobile, X_rec=prep.bound_rec)
        loss, _ = total_loss(result.ligand_pose, prep.bound_lig,
                             result.Y1, result.Y2,
                             move.apply(prep.midpoints), prep.midpoints,
                             prep.bound_rec)
        return loss

    subset = [model.params[name] for name in (
        "embed.table", "iegmn.layer0.phi_x.lin1.W",
        "iegmn.layer1.cross.W", "keypoints.w_prime")]
    err_e2e = ad.grad_check(f_end_to_end, subset)
    assert err_e2e <= 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 5: PASS (ops {worst['op']:.2e}, svd {err_svd:.2e}, "
          f"ot {err_ot:.2e}, end-to-end {err_e2e:.2e}, {elapsed:.1f} s)")


def test_criterion_06_transport_exactness():
    """Objective matches brute force within 1e-9 (S,K<=4); marginals to 1e-9 at 200."""
    rng = np.random.default_rng(600)
    worst_obj = 0.0
    objectives = {}
    for _ in range(200):
        s = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        cost = rng.uniform(-5.0, 5.0, size=(s, k))
        _, value = solve_uniform_transport(cost)
        worst_obj = max(worst_obj, abs(value - brute_force_objective(cost)))
    assert worst_obj <= 1e-9

    worst_marginal = 0.0
    for s, k in ((1, 200), (200, 1), (37, 101), (200, 200)):
        cost = rng.uniform(-1.0, 1.0, size=(s, k))
        plan, _ = solve_uniform_transport(cost)
        worst_marginal = max(worst_marginal,
                             np.max(np.abs(plan.sum(axis=1) - 1.0 / s)),
                             np.max(np.abs(plan.sum(axis=0) - 1.0 / k)))
    assert worst_marginal <= 1e-9
    print(f"criterion 6: PASS (objective gap {worst_obj:.2e}, "
          f"marginal error {worst_marginal:.2e})")


def test_criterion_07_surface_feature():
    """Arc score matches 2 sin(a/2)/a +-0.02; polygon center <=1e-10; disk trend."""
    for alpha in (np.pi / 2, np.pi, 3 * np.pi / 2):
        m = 200
        ang = np.linspace(-alpha / 2, alpha / 2, m)
        pts = np.zeros((3, m + 1))
        pts[:2, 1:] = 5.0 * np.vstack([np.cos(ang), np.sin(ang)])
        rho = graphs.surface_features(pts, [np.arange(1, m + 1)] + [np.array([0])] * m)
        expected = 2.0 * np.sin(alpha / 2) / alpha
        assert abs(rho[0, 0] - expected) <= 0.02, f"alpha={alpha}"

    m = 12
    ang = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    pts = np.zeros((3, m + 1))
    pts[:2, 1:] = 4.0 * np.vstack([np.cos(ang), np.sin(ang)])
    rho = graphs.surface_features(pts, [np.arange(1, m + 1)] + [np.array([0])] * m)
    assert np.max(rho[0]) <= 1e-10

    rng = np.random.default_rng(700)
    r = np.sqrt(rng.uniform(0, 1, 500))
    theta = rng.uniform(0, 2 * np.pi, 500)
    X = np.zeros((3, 500))
    X[0] = r * np.cos(theta)
    X[1] = r * np.sin(theta)
    src, dst = graphs.knn_edges(X, k=50)
    nbrs = [src[dst == i] for i in range(500)]
    rho = graphs.surface_features(X, nbrs, lambdas=(0.05,))
    corr = scipy.stats.spearmanr(rho[:, 0], 1.0 - r).statistic
    assert abs(corr) >= 0.5
    print(f"criterion 7: PASS (disk Spearman {corr:+.3f})")


def test_criterion_08_toy_training(tmp_path):
    """3x median CRMSD gain on 50 pairs; single-pair overfit < 1 A. <15 min."""
    start = time.monotonic()
    root = tmp_path / "toy"
    generate_dataset(str(root), n_pairs=50, seed=0)
    train_pairs = load_split(str(root), "train")
    val_pairs = load_split(str(root), "val")
    test_pairs = load_split(str(root), "test")

    config = ModelConfig(hidden_dim=16, layers=2, heads=8)
    untrained = DockingModel(config, seed=0)
    base_median = evaluate(untrained, test_pairs, seed=1).summary()["crmsd_median"]

    model = DockingModel(config, seed=0)
    train(model, train_pairs, val_pairs,
          TrainConfig(lr=1e-3, max_epochs=60, patience=100, seed=0))
    trained_median = evaluate(model, test_pairs, seed=1).summary()["crmsd_median"]
    assert trained_median * 3.0 <= base_median, \
        f"untrained {base_median:.2f} A vs trained {trained_median:.2f} A"

    overfit_pair = [train_pairs[0]]
    overfit = DockingModel(config, seed=2)
    result = train(overfit, overfit_pair, overfit_pair,
                   TrainConfig(lr=3e-3, max_epochs=500, patience=500, seed=2))
    assert result.best_val < 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 900.0
    print(f"criterion 8: PASS (untrained {base_median:.2f} A, trained "
          f"{trained_median:.2f} A, overfit {result.best_val:.3f} A, {elapsed:.0f} s)")


def test_criterion_09_feature_invariance():
    """Node and edge features move by <= 1e-8 under rigid motions, 10 proteins."""
    rng = np.random.default_rng(900)
    worst = 0.0
    for i in range(10):
        rs = random_residue_set(rng, int(rng.integers(15, 35)))
        g = build_graph(rs, 8)
        Q = random_rotation(rng)
        t = rng.uniform(-40.0, 40.0, size=3)
        g2 = build_graph(rs.transformed(Q, t), 8)
        assert np.array_equal(g.src, g2.src) and np.array_equal(g.dst, g2.dst)
        assert np.array_equal(g.types, g2.types)
        worst = max(worst,
                    np.max(np.abs(g.rho - g2.rho)),
                    np.max(np.abs(g.edge_feats - g2.edge_feats)))
    assert worst <= 1e-8
    print(f"criterion 9: PASS (max feature drift {worst:.2e})")


def test_criterion_10_cli_round_trips(tmp_path):
    """Round trip, rigidity, pose independence, and determinism on the fixture."""
    fixture = os.path.join(DATA_DIR, "fixture20.pdb")
    lig = parse_pdb_file(fixture)

    # receptor: an axis-permuted copy, exact in PDB coordinate precision
    perm = np.array([[0.0, 0, 1], [1, 0, 0], [0, 1, 0]])
    g = np.array([6.5, -3.25, 9.75])
    receptor_pdb = tmp_path / "receptor.pdb"
    receptor_pdb.write_text(format_ca_pdb(lig.transformed(perm, g), full_backbone=True))

    model = DockingModel(ModelConfig(hidden_dim=16, layers=2, heads=8), seed=0)
    ckpt = tmp_path / "model.npz"
    save_named_tensors(str(ckpt), model.state_arrays(),
                       extra={"config": model.config.to_dict()})

    def read_ca(path):
        xyz = [[float(l[30:38]), float(l[38:46]), float(l[46:54])]
               for l in open(path) if l.startswith("ATOM") and l[12:16].strip() == "CA"]
        return np.array(xyz).T

    def dock(ligand_path, out_pdb, out_json):
        code = cli_main(["dock", "--ligand", str(ligand_path),
                         "--receptor", str(receptor_pdb), "--model", str(ckpt),
                         "--out-pdb", str(out_pdb), "--out-transform", str(out_json)])
        assert code == 0

    out_pdb, out_json = tmp_path / "pose.pdb", tmp_path / "pose.json"
    dock(fixture, out_pdb, out_json)
    pose = read_ca(out_pdb)
    tr = RigidTransform.from_json(out_json.read_text())

    round_trip = np.max(np.abs(tr.apply(lig.ca) - pose))
    assert round_trip <= 1e-3

    def pairwise(X):
        return np.sqrt(((X[:, :, None] - X[:, None, :]) ** 2).sum(axis=0))

    rigidity = np.max(np.abs(pairwise(lig.ca) - pairwise(pose)))
    assert rigidity <= 1e-3

    # pre-rotated input through a real file must give the same complex
    rng = np.random.default_rng(1000)
    moved = lig.transformed(random_rotation(rng), rng.uniform(-20, 20, size=3))
    moved_pdb = tmp_path / "ligand_moved.pdb"
    moved_pdb.write_text(format_ca_pdb(moved, full_backbone=True))
    out2_pdb, out2_json = tmp_path / "pose2.pdb", tmp_path / "pose2.json"
    dock(moved_pdb, out2_pdb, out2_json)
    invariance = complex_rmsd(read_ca(out2_pdb), pose, read_ca(receptor_pdb))
    assert invariance <= 1e-3

    # byte-identical outputs on a rerun
    out3_pdb, out3_json = tmp_path / "pose3.pdb", tmp_path / "pose3.json"
    dock(fixture, out3_pdb, out3_json)
    assert out3_pdb.read_bytes() == out_pdb.read_bytes()
    assert out3_json.read_bytes() == out_json.read_bytes()
    print(f"criterion 10: PASS (round trip {round_trip:.1e} A, rigidity "
          f"{rigidity:.1e} A, pose independence {invariance:.1e} A)")
