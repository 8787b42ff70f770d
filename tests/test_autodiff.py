"""Forward values and finite-difference gradient checks for the tape ops."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigiddock import autodiff as ad
from rigiddock import tiles

import reference_ops


def test_softmax_uniform_logits():
    out = ad.softmax(ad.constant([0.0, 0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_leaky_relu_values():
    out = ad.leaky_relu(ad.constant([-1.0, 2.0]), slope=0.01)
    np.testing.assert_allclose(out.data, [-0.01, 2.0], atol=1e-15)


def test_sum_of_squares_gradient():
    x = ad.parameter([3.0])
    with ad.Tape() as tape:
        y = ad.reduce_sum(ad.mul(x, x))
        tape.backward(y)
    np.testing.assert_allclose(x.grad, [6.0], atol=1e-12)


def test_grad_check_norm_squared():
    x = ad.parameter([1.0, 2.0])
    err = ad.grad_check(lambda: ad.dot(x, x), [x])
    assert err <= 1e-9


def test_grad_check_constant_function():
    x = ad.parameter([0.7, -0.3])
    c = ad.constant([[1.0, 2.0]])
    err = ad.grad_check(lambda: ad.reduce_sum(c), [x])
    assert err <= 1e-9
    assert x.grad is None or not np.any(x.grad)


def test_tape_determinism():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((4, 4))
    x = rng.standard_normal((4, 3))

    def run():
        a = ad.parameter(w.copy())
        b = ad.constant(x.copy())
        with ad.Tape() as tape:
            y = ad.softmax(ad.matmul(a, b), axis=0)
            loss = ad.reduce_sum(ad.mul(y, y))
            tape.backward(loss)
        return loss.data.copy(), a.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def test_shape_errors_name_op_and_shapes():
    with pytest.raises(ad.ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 3))))
    with pytest.raises(ad.ShapeError, match=r"add.*\(2,\).*\(3,\)"):
        ad.add(ad.constant(np.zeros(2)), ad.constant(np.zeros(3)))


def test_nested_tape_rejected():
    with ad.Tape():
        with pytest.raises(RuntimeError):
            with ad.Tape():
                pass


# --- gradient checks across the full op set --------------------------------

GRAD_TOL = 1e-4


def _checked(build_fn, *params):
    err = ad.grad_check(build_fn, list(params), step=1e-5)
    assert err <= GRAD_TOL, f"grad check failed: {err}"


def test_grad_add_sub_mul_broadcast():
    rng = np.random.default_rng(0)
    a = ad.parameter(rng.standard_normal((3, 4)))
    b = ad.parameter(rng.standard_normal((3, 1)))
    c = ad.parameter(rng.standard_normal((1, 4)))
    _checked(lambda: ad.reduce_sum(ad.mul(ad.add(a, b), ad.sub(a, c))), a, b, c)


def test_grad_matmul_transpose_reshape():
    rng = np.random.default_rng(1)
    a = ad.parameter(rng.standard_normal((3, 5)))
    b = ad.parameter(rng.standard_normal((3, 4)))
    _checked(
        lambda: ad.reduce_sum(ad.reshape(ad.matmul(ad.transpose(a), b), (20,))),
        a, b,
    )


def test_grad_exp_log_scale():
    rng = np.random.default_rng(2)
    a = ad.parameter(rng.uniform(0.5, 2.0, size=(4, 3)))
    _checked(lambda: ad.reduce_sum(ad.log(ad.exp(ad.scale(a, 0.7)))), a)


def test_grad_leaky_relu():
    rng = np.random.default_rng(3)
    # Keep entries away from the kink where FD is one-sided.
    vals = rng.standard_normal((5, 4))
    vals[np.abs(vals) < 0.05] += 0.1
    a = ad.parameter(vals)
    _checked(lambda: ad.reduce_sum(ad.mul(ad.leaky_relu(a, 0.01), a)), a)


def test_grad_reductions():
    rng = np.random.default_rng(4)
    a = ad.parameter(rng.standard_normal((4, 6)))
    _checked(lambda: ad.dot(ad.reduce_mean(a, axis=1), ad.reduce_sum(a, axis=1)), a)
    _checked(lambda: ad.reduce_sum(ad.mul(ad.reduce_mean(a, axis=0, keepdims=True), a)), a)


def test_grad_concat():
    rng = np.random.default_rng(5)
    a = ad.parameter(rng.standard_normal((2, 3)))
    b = ad.parameter(rng.standard_normal((2, 5)))
    w = ad.constant(rng.standard_normal((2, 8)))
    _checked(lambda: ad.reduce_sum(ad.mul(ad.concat([a, b], axis=1), w)), a, b)


def test_grad_softmax_rows_and_columns():
    rng = np.random.default_rng(6)
    a = ad.parameter(rng.standard_normal((3, 5)))
    w = ad.constant(rng.standard_normal((3, 5)))
    _checked(lambda: ad.reduce_sum(ad.mul(ad.softmax(a, axis=0), w)), a)
    _checked(lambda: ad.reduce_sum(ad.mul(ad.softmax(a, axis=1), w)), a)


def test_grad_layer_norm():
    rng = np.random.default_rng(8)
    a = ad.parameter(rng.standard_normal((6, 4)))
    w = ad.constant(rng.standard_normal((6, 4)))
    _checked(lambda: ad.reduce_sum(ad.mul(ad.layer_norm(a, axis=0), w)), a)


def test_grad_take_columns():
    rng = np.random.default_rng(9)
    a = ad.parameter(rng.standard_normal((3, 5)))
    idx = np.array([4, 0, 0, 2, 1, 4])
    w = ad.constant(rng.standard_normal((3, 6)))
    _checked(lambda: ad.reduce_sum(ad.mul(ad.take_columns(a, idx), w)), a)


def test_grad_segment_sum_columns():
    rng = np.random.default_rng(10)
    a = ad.parameter(rng.standard_normal((3, 7)))
    seg = np.array([0, 2, 1, 1, 0, 2, 2])
    w = ad.constant(rng.standard_normal((3, 3)))
    _checked(
        lambda: ad.reduce_sum(ad.mul(ad.segment_sum_columns(a, seg, 3), w)), a
    )


def test_segment_sum_forward_matches_loop():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 9))
    seg = rng.integers(0, 3, size=9)
    out = ad.segment_sum_columns(ad.constant(a), seg, 3).data
    expect = np.zeros((4, 3))
    for col, s in enumerate(seg):
        expect[:, s] += a[:, col]
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_grad_pairwise_sqdist():
    rng = np.random.default_rng(12)
    x = ad.parameter(rng.standard_normal((3, 4)))
    y = ad.parameter(rng.standard_normal((3, 6)))
    w = ad.constant(rng.standard_normal((4, 6)))
    _checked(lambda: ad.reduce_sum(ad.mul(ad.pairwise_sqdist(x, y), w)), x, y)


def test_pairwise_sqdist_forward_matches_loop():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 5))
    y = rng.standard_normal((3, 4))
    out = ad.pairwise_sqdist(ad.constant(x), ad.constant(y)).data
    for i in range(5):
        for j in range(4):
            d = np.sum((x[:, i] - y[:, j]) ** 2)
            assert abs(out[i, j] - d) < 1e-12


def test_gradients_accumulate_across_reuse():
    x = ad.parameter([2.0])
    with ad.Tape() as tape:
        y = ad.add(ad.mul(x, x), ad.scale(x, 3.0))  # x^2 + 3x
        tape.backward(ad.reduce_sum(y))
    np.testing.assert_allclose(x.grad, [7.0], atol=1e-12)


def test_no_tape_means_no_recording():
    x = ad.parameter([1.0, 2.0])
    y = ad.dot(x, x)
    assert y.grad is None
    np.testing.assert_allclose(y.data, 5.0)


# --- fused layers ------------------------------------------------------------


def _grads_of_outputs(params, build, used):
    """Outputs of build() and each parameter's gradient of a probe mix of the used outputs."""
    for p in params:
        p.zero_grad()
    with ad.Tape() as tape:
        outs = build()
        outs = outs if isinstance(outs, tuple) else (outs,)
        terms = [ad.reduce_sum(ad.mul(o, ad.constant(
                     np.cos(np.arange(o.data.size) + 3.0 * i).reshape(o.data.shape))))
                 for i, o in enumerate(outs) if used[i]]
        loss = terms[0]
        for term in terms[1:]:
            loss = ad.add(loss, term)
        tape.backward(loss)
    return [o.data for o in outs], [p.grad for p in params]


def _grads(params, build):
    """Output data and every parameter's gradient of sum(build() * probe)."""
    outs, grads = _grads_of_outputs(params, build, (True,))
    return outs[0], grads


def test_fused_linear_and_mlp_equal_their_primitives_exactly():
    rng = np.random.default_rng(20)
    W0, b0, W1, b1, x = (ad.parameter(rng.standard_normal(s))
                         for s in ((4, 3), (4, 1), (2, 4), (2, 1), (3, 7)))
    params = [W0, b0, W1, b1, x]

    def unfused():
        hidden = ad.leaky_relu(ad.add(ad.matmul(W0, x), b0), 0.2)
        return ad.add(ad.matmul(W1, hidden), b1)

    for fused, reference in (
        (lambda: ad.linear(W0, x, b0), lambda: ad.add(ad.matmul(W0, x), b0)),
        (lambda: ad.mlp(W0, b0, W1, b1, x, 0.2), unfused),
    ):
        out, grads = _grads(params, fused)
        ref_out, ref_grads = _grads(params, reference)
        assert np.array_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            assert (g is None and ref is None) or np.array_equal(g, ref)


@st.composite
def edge_mlp_cases(draw):
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n - 1))
    d, c, hid, out = (draw(st.integers(1, 4)) for _ in range(4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    neighbors = rng.integers(0, n, size=(n, k))
    shapes = ((hid, 2 * d + c), (hid, 1), (out, hid), (out, 1), (d, n), (c, n * k))
    return neighbors, [rng.standard_normal(s) for s in shapes]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edge_mlp_cases())
def test_property_edge_mlp_matches_mlp_on_gathered_edges(case):
    neighbors, arrays = case
    params = [ad.parameter(a) for a in arrays]
    W0, b0, W1, b1, H, E = params
    src = neighbors.reshape(-1)
    dst = np.repeat(np.arange(neighbors.shape[0]), neighbors.shape[1])
    out, grads = _grads(params, lambda: ad.edge_mlp(W0, b0, W1, b1, H, E, neighbors, 0.1))
    gathered = lambda: ad.concat([ad.take_columns(H, dst), ad.take_columns(H, src), E], axis=0)
    ref_out, ref_grads = _grads(params, lambda: ad.mlp(W0, b0, W1, b1, gathered(), 0.1))
    assert np.max(np.abs(out - ref_out)) <= 1e-12
    for g, ref in zip(grads, ref_grads):
        assert np.max(np.abs(g - ref)) <= 1e-12


def test_edge_mlp_rejects_bad_neighbors():
    W0, b0, W1, b1 = (ad.constant(np.zeros(s)) for s in ((2, 5), (2, 1), (1, 2), (1, 1)))
    H, E = ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((1, 6)))
    with pytest.raises(ad.ShapeError, match="outside"):
        ad.edge_mlp(W0, b0, W1, b1, H, E, np.array([[1, 2], [0, 3], [0, 1]]))
    with pytest.raises(ad.ShapeError, match="edge columns"):
        ad.edge_mlp(W0, b0, W1, b1, H, E, np.array([[1], [0], [0]]))


def test_transpose_is_a_view_and_parameters_stay_contiguous():
    a = ad.constant(np.arange(6.0).reshape(2, 3))
    assert np.shares_memory(ad.transpose(a).data, a.data)
    p = ad.parameter(np.arange(6.0).reshape(2, 3).T)
    assert p.data.flags.c_contiguous


def test_grad_check_through_transposed_view():
    """The cross-attention pattern: softmax(q.T @ k) and values @ att.T on views."""
    rng = np.random.default_rng(21)
    a = ad.parameter(rng.standard_normal((3, 5)))
    q = ad.constant(rng.standard_normal((3, 4)))
    probe = ad.constant(rng.standard_normal((3, 4)))

    def f():
        att = ad.softmax(ad.matmul(ad.transpose(q), a), axis=1)  # 4 x 5
        return ad.reduce_sum(ad.mul(ad.matmul(a, ad.transpose(att)), probe))

    _checked(f, a)


# --- one-pass LeakyReLU --------------------------------------------------------


@pytest.mark.parametrize("slope", [0.0, 0.01, 1.0])
def test_leaky_relu_matches_masked_product_bit_for_bit(slope):
    rng = np.random.default_rng(22)
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324]
    with np.errstate(over="ignore", invalid="ignore"):
        # every length up to 40 and a long one, so vectorized loops and
        # their remainders both see the special values
        for n in list(range(1, 41)) + [1001]:
            pre = np.where(rng.random(n) < 0.5, rng.choice(specials, size=n),
                           rng.standard_normal(n))
            g = rng.standard_normal(n)
            x = ad.parameter(pre)
            ops = [lambda t: ad.leaky_relu(t, slope)] + ([ad.relu] if slope == 0.0 else [])
            for op in ops:
                x.zero_grad()
                with ad.Tape() as tape:
                    out = op(x)
                    tape.backward(ad.reduce_sum(ad.mul(out, ad.constant(g))))
                factor = np.where(pre >= 0, 1.0, slope)
                assert np.array_equal(out.data.view(np.uint64), (pre * factor).view(np.uint64))
                assert np.array_equal(x.grad.view(np.uint64), (g * factor).view(np.uint64))


@pytest.mark.parametrize("slope", [-0.3, 2.5, np.inf, np.nan])
def test_leaky_relu_refuses_a_slope_outside_zero_to_one(slope):
    with pytest.raises(ValueError, match=r"slope must lie in \[0, 1\]"):
        ad.leaky_relu(ad.constant([-1.0, 2.0]), slope)


# --- fused cross-attention ----------------------------------------------------


def _primitive_cross_attention(q, k, values):
    att = ad.softmax(ad.matmul(ad.transpose(q), k), axis=1)
    return ad.matmul(values, ad.transpose(att))


@st.composite
def cross_attention_cases(draw):
    n1 = draw(st.sampled_from([1, 2, 7, 33]))
    n2 = draw(st.sampled_from([1, 3, 9, 40]))
    d, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    tile = draw(st.sampled_from([1, 10, 50, 2**16]))  # logits per row tile
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, k = rng.standard_normal((d, n1)), rng.standard_normal((d, n2))
    logits = draw(st.sampled_from(["unit", "spread", "offset"]))
    if logits == "spread":  # logits up to about +-1e3: rows are nearly one-hot
        q *= 30.0
        k *= 30.0 / np.sqrt(d)
    elif logits == "offset":  # logits near +-1e3 with a spread of a few units
        q[0] = 1e3 * rng.choice([-1.0, 1.0])
        k[0] = 1.0
    return tile, [q, k, rng.standard_normal((m, n2))]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cross_attention_cases())
def test_property_cross_attention_matches_primitives(case):
    tile, arrays = case
    params = [ad.parameter(a) for a in arrays]
    with mock.patch.object(tiles, "TILE_ENTRIES", tile):
        out, grads = _grads(params, lambda: ad.cross_attention(*params))
    ref_out, ref_grads = _grads(params, lambda: _primitive_cross_attention(*params))
    for got, ref in zip([out] + grads, [ref_out] + ref_grads):
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_cross_attention_records_one_node_and_rejects_bad_shapes():
    q, k, v = (ad.parameter(np.ones(s)) for s in ((2, 3), (2, 4), (1, 4)))
    with ad.Tape() as tape:
        ad.cross_attention(q, k, v)
        assert len(tape) == 1
    with pytest.raises(ad.ShapeError, match="cross_attention"):
        ad.cross_attention(q, k, ad.constant(np.ones((1, 3))))
    with pytest.raises(ad.ShapeError, match="cross_attention"):
        ad.cross_attention(q, ad.constant(np.ones((2, 0))), ad.constant(np.ones((1, 0))))


def test_cross_attention_memory_stays_below_one_logit_array():
    n = 2000
    rng = np.random.default_rng(23)
    q, k, v = (ad.parameter(rng.standard_normal((8, n))) for _ in range(3))
    probe = ad.constant(rng.standard_normal((8, n)))
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            tape.backward(ad.reduce_sum(ad.mul(ad.cross_attention(q, k, v), probe)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert q.grad is not None and k.grad is not None and v.grad is not None
    assert peak < n * n * 8  # one n x n float64 array: 32 MB


# --- fused intersection depth: mean(relu(gamma - soft-min)) in row tiles --------


@st.composite
def penetration_cases(draw):
    m, n2 = draw(st.sampled_from([1, 2, 5, 17])), draw(st.sampled_from([1, 3, 8, 30]))
    tile = draw(st.sampled_from([1, 7, 2**16]))  # distances per row tile
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points, cloud = 3.0 * rng.standard_normal((3, m)), 3.0 * rng.standard_normal((3, n2))
    # from overlapping clouds, through touching ones, to clouds out of reach
    points[0] += draw(st.sampled_from([0.0, 4.0, 9.0, 40.0]))
    gamma, sigma = draw(st.sampled_from([(10.0, 25.0), (4.0, 3.0), (30.0, 60.0)]))
    return tile, [points, cloud], gamma, sigma


@settings(max_examples=200, deadline=None, derandomize=True)
@given(penetration_cases())
def test_property_surface_penetration_matches_primitives(case):
    tile, arrays, gamma, sigma = case
    params = [ad.parameter(a) for a in arrays]
    with mock.patch.object(tiles, "TILE_ENTRIES", tile):
        out, grads = _grads(params, lambda: ad.surface_penetration(*params, gamma, sigma))
    ref_out, ref_grads = _grads(
        params, lambda: reference_ops.surface_penetration(*params, gamma, sigma))
    for got, ref in zip([out] + grads, [ref_out] + ref_grads):
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_surface_penetration_within_one_tile_is_the_composition_bit_for_bit():
    rng = np.random.default_rng(26)
    params = [ad.parameter(3.0 * rng.standard_normal((3, n))) for n in (40, 30)]
    out, grads = _grads(params, lambda: ad.surface_penetration(*params, 10.0, 25.0))
    ref_out, ref_grads = _grads(
        params, lambda: reference_ops.surface_penetration(*params, 10.0, 25.0))
    assert out > 0.0
    for got, ref in zip([out] + grads, [ref_out] + ref_grads):
        assert np.array_equal(got, ref)


def test_surface_penetration_records_one_node_and_rejects_bad_shapes():
    x, y = ad.parameter(np.zeros((3, 4))), ad.constant(np.ones((3, 5)))
    with ad.Tape() as tape:
        ad.surface_penetration(x, y, 10.0, 25.0)
        assert len(tape) == 1
    for points, cloud in ((x, ad.constant(np.ones((2, 5)))), (x, ad.constant(np.ones((3, 0)))),
                          (ad.constant(np.ones((3, 0))), y)):
        with pytest.raises(ad.ShapeError, match="surface_penetration"):
            ad.surface_penetration(points, cloud, 10.0, 25.0)


def test_surface_penetration_keeps_relu_nan_for_a_non_finite_depth():
    """relu is ``pre * (pre >= 0)``, so a depth of -inf or NaN gives NaN, not 0."""
    rng = np.random.default_rng(27)
    points, cloud = rng.standard_normal((3, 4)), rng.standard_normal((3, 6))
    far = points.copy()
    far[:, 0] = 1e200  # every distance from it overflows: its soft-min is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for x, gamma in ((points, -np.inf), (far, 10.0)):
            args = (ad.constant(x), ad.constant(cloud), gamma, 25.0)
            assert np.isnan(ad.surface_penetration(*args).item())
            assert np.isnan(reference_ops.surface_penetration(*args).item())


def test_surface_penetration_memory_stays_below_16_mb():
    """Forward and backward at n = 3000, where one n x n float64 array is 72 MB."""
    n = 3000
    rng = np.random.default_rng(28)
    x = ad.parameter(15.0 * rng.standard_normal((3, n)))
    y = ad.parameter(15.0 * rng.standard_normal((3, n)) + 5.0)
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            loss = ad.surface_penetration(x, y, 10.0, 25.0)
            tape.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loss.item() > 0.0 and np.any(x.grad) and np.any(y.grad)
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


# --- fused IEGMN ops: one node per message pass, node update and keypoint head ---


def _assert_match(got, ref, rel=1e-10):
    """Every array within rel of the reference, relative to its largest entry.

    A parameter the reference leaves without a gradient (it does not reach
    the loss) must get none or zeros.
    """
    for i, (g, r) in enumerate(zip(got, ref)):
        if r is None:
            assert g is None or not np.any(g), i
            continue
        assert np.max(np.abs(g - r)) <= rel * np.max(np.abs(r)), \
            (i, np.max(np.abs(g - r)), np.max(np.abs(r)))


OUTPUT_USE = [(True, True), (True, False), (False, True)]


@st.composite
def message_pass_cases(draw):
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, min(n - 1, 9)))  # build_graph lowers k below 10 on small proteins
    d, c, hid, out, gate_hid = (draw(st.integers(1, 4)) for _ in range(5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    options = dict(slope=draw(st.sampled_from([0.01, 0.2])), sigma=30.0,
                   eta=draw(st.sampled_from([0.0, 0.25, 1.0])),
                   shift_scale=1.0 / k if draw(st.booleans()) else 1.0)
    shapes = ((hid, 2 * d + 1 + c), (hid, 1), (out, hid), (out, 1),
              (gate_hid, out), (gate_hid, 1), (1, gate_hid), (1, 1))
    weights = [rng.standard_normal(s) for s in shapes]
    Z, X0 = 3.0 * rng.standard_normal((3, n)), 3.0 * rng.standard_normal((3, n))
    graph = (rng.standard_normal((c, n * k)), rng.integers(0, n, size=(n, k)))
    return (weights, Z, rng.standard_normal((d, n)), X0, graph, options,
            draw(st.booleans()), draw(st.sampled_from(OUTPUT_USE)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(message_pass_cases())
def test_property_message_pass_matches_primitives(case):
    weights, Z, H, X0, (edge_feats, neighbors), options, z_grad, used = case
    params = [ad.parameter(w) for w in weights] + [ad.parameter(H), ad.parameter(X0)]
    Z = ad.parameter(Z) if z_grad else ad.constant(Z)
    if z_grad:
        params.append(Z)
    phi_e, phi_x = params[:4], params[4:8]
    H, X0 = params[8], params[9]
    args = (phi_e, phi_x, Z, H, X0, edge_feats, neighbors)
    outs, grads = _grads_of_outputs(params, lambda: ad.message_pass(*args, **options), used)
    ref_outs, ref_grads = _grads_of_outputs(
        params, lambda: reference_ops.message_pass(*args, **options), used)
    _assert_match(outs + grads, ref_outs + ref_grads)


def _message_pass_blocks_case():
    """A 9-node, k = 3 graph with every layer width distinct; the widest edge array has 6 rows."""
    rng = np.random.default_rng(29)
    n, k, d, c, hid, out, gate_hid = 9, 3, 2, 2, 6, 4, 5
    shapes = ((hid, 2 * d + 1 + c), (hid, 1), (out, hid), (out, 1),
              (gate_hid, out), (gate_hid, 1), (1, gate_hid), (1, 1))
    arrays = [0.5 * rng.standard_normal(s) for s in shapes]
    arrays += [3.0 * rng.standard_normal((3, n)), rng.standard_normal((d, n)),
               3.0 * rng.standard_normal((3, n))]
    graph = (rng.standard_normal((c, n * k)),
             np.array([rng.choice(np.delete(np.arange(n), i), k, replace=False)
                       for i in range(n)]))
    return arrays, graph, k * hid


def _run_message_pass(arrays, graph, budget, taped):
    """Outputs of a message pass under the given tile budget, plus gradients when taped."""
    make = ad.parameter if taped else ad.constant
    params = [make(a) for a in arrays]
    args = (params[:4], params[4:8], *params[8:], *graph, 0.1, 30.0, 0.25, 0.5)
    with mock.patch.object(tiles, "TILE_ENTRIES", budget):
        if not taped:
            return [o.data for o in ad.message_pass(*args)], None
        return _grads_of_outputs(params, lambda: ad.message_pass(*args), (True, True))


# 1: one node per block, less than one node's edges; 3: the same, below a
# row; 2 * width: two nodes per block, so the ninth node is a block alone;
# 2**16: the whole graph in one block
BLOCK_BUDGETS = (1, 3, "two nodes", 2**16)


@pytest.mark.parametrize("budget", BLOCK_BUDGETS)
def test_message_pass_node_blocks_match_one_block(budget):
    """Blocked outputs equal the one-block ones to rounding, and bit for bit in one block.

    Smaller blocks hand BLAS narrower products, whose last columns it may
    round differently, so only the one-block budget is held to the bit.
    """
    arrays, graph, width = _message_pass_blocks_case()
    budget = 2 * width if budget == "two nodes" else budget
    one_block, _ = _run_message_pass(arrays, graph, 2**16, taped=False)
    blocked, _ = _run_message_pass(arrays, graph, budget, taped=False)
    if budget == 2**16:
        assert all(np.array_equal(a, b) for a, b in zip(blocked, one_block))
    _assert_match(blocked, one_block, rel=1e-13)


@pytest.mark.parametrize("budget", BLOCK_BUDGETS)
def test_taped_message_pass_node_blocks_match_one_block(budget):
    """A tape sees the tape-free values bit for bit, and one-block gradients."""
    arrays, graph, width = _message_pass_blocks_case()
    budget = 2 * width if budget == "two nodes" else budget
    untaped, _ = _run_message_pass(arrays, graph, budget, taped=False)
    outs, grads = _run_message_pass(arrays, graph, budget, taped=True)
    ref_outs, ref_grads = _run_message_pass(arrays, graph, 2**16, taped=True)
    assert all(np.array_equal(a, b) for a, b in zip(outs, untaped))
    if budget == 2**16:
        assert all(np.array_equal(a, b) for a, b in zip(outs + grads, ref_outs + ref_grads))
    _assert_match(outs + grads, ref_outs + ref_grads, rel=1e-12)


def test_message_pass_memory_stays_below_one_edge_array():
    """A tape-free pass at n = 3000 (k = 10, 32 wide) stays below one 32 x n * k array."""
    n, k, d, c, hid = 3000, 10, 32, 27, 32
    rng = np.random.default_rng(30)
    shapes = ((hid, 2 * d + 1 + c), (hid, 1), (hid, hid), (hid, 1),
              (hid, hid), (hid, 1), (1, hid), (1, 1))
    weights = [ad.constant(0.2 * rng.standard_normal(s)) for s in shapes]
    Z, H = ad.constant(20.0 * rng.standard_normal((3, n))), ad.constant(rng.standard_normal((d, n)))
    neighbors = (np.arange(n)[:, None] + np.arange(1, k + 1)) % n
    edge_feats = rng.standard_normal((c, n * k))
    tracemalloc.start()
    try:
        m, z = ad.message_pass(weights[:4], weights[4:], Z, H, Z, edge_feats, neighbors,
                               0.01, 30.0, 0.25, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.shape == (hid, n) and z.shape == (3, n)
    assert peak < hid * n * k * 8, f"peak {peak / 2**20:.1f} MB"


def _held_by_taped_message_pass(n, budget):
    """Bytes a taped message pass (k = 10, 32 wide) holds after forward, and its edge-array bytes.

    The second figure is the nine float64 edge arrays a tape kept before it
    kept sign masks, 181 rows over the n * k edges, plus the two outputs.
    """
    k, d, c, hid = 10, 32, 15, 32
    rng = np.random.default_rng(7)
    shapes = ((hid, 2 * d + 1 + c), (hid, 1), (hid, hid), (hid, 1),
              (hid, hid), (hid, 1), (1, hid), (1, 1))
    weights = [ad.parameter(0.3 * rng.standard_normal(s)) for s in shapes]
    Z, H, X0 = (ad.parameter(rng.standard_normal(s)) for s in ((3, n), (d, n), (3, n)))
    edge_feats = rng.standard_normal((c, n * k))
    neighbors = (np.arange(n)[:, None] + np.arange(1, k + 1)) % n
    rows = 3 + 1 + (1 + c) + 2 * hid + hid + 2 * hid + 1
    tracemalloc.start()
    try:
        with ad.Tape(), mock.patch.object(tiles, "TILE_ENTRIES", budget):
            before = tracemalloc.get_traced_memory()[0]
            ad.message_pass(weights[:4], weights[4:], Z, H, X0, edge_feats, neighbors,
                            0.01, 30.0, 0.25, 1.0)
            held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held, (rows * k + hid + 3) * n * 8


def test_taped_one_block_message_pass_keeps_sign_masks():
    """The tape holds a 1-byte mask per pre-activation and no radial row: under 75%."""
    held, float64_arrays = _held_by_taped_message_pass(150, 2**16)
    assert held <= 0.75 * float64_arrays, f"{held} of {float64_arrays} bytes"


def test_taped_multi_block_message_pass_keeps_no_edge_array():
    """Backward forms a multi-block graph's edge arrays again, so forward keeps none."""
    held, float64_arrays = _held_by_taped_message_pass(150, 3000)
    assert held <= 0.1 * float64_arrays, f"{held} of {float64_arrays} bytes"


@st.composite
def node_update_cases(draw):
    n, d, hid = draw(st.integers(1, 8)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = [(hid, d + sum(rows)), (hid, 1), (d, hid), (d, 1), (d, n)] + [(r, n) for r in rows]
    options = dict(beta=draw(st.sampled_from([0.0, 0.5, 1.0])),
                   slope=draw(st.sampled_from([0.01, 0.2])))
    return [rng.standard_normal(s) for s in shapes], options


@settings(max_examples=150, deadline=None, derandomize=True)
@given(node_update_cases())
def test_property_node_update_matches_primitives(case):
    arrays, options = case
    params = [ad.parameter(a) for a in arrays]
    args = (*params[:5], params[5:])
    out, grads = _grads_of_outputs(params, lambda: ad.node_update(*args, **options), (True,))
    ref_out, ref_grads = _grads_of_outputs(
        params, lambda: reference_ops.node_update(*args, **options), (True,))
    _assert_match(out + grads, ref_out + ref_grads)


@st.composite
def keypoint_cases(draw):
    n, n_other = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    d, m, heads = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = ((m, d), (m, 1), (heads * d, m), (3, n), (d, n), (d, n_other))
    return ([rng.standard_normal(s) for s in shapes], heads,
            draw(st.sampled_from([0.01, 0.2])), draw(st.sampled_from(OUTPUT_USE)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(keypoint_cases())
def test_property_keypoint_attention_matches_primitives(case):
    arrays, heads, slope, used = case
    params = [ad.parameter(a) for a in arrays]
    outs, grads = _grads_of_outputs(
        params, lambda: ad.keypoint_attention(*params, heads, slope), used)
    ref_outs, ref_grads = _grads_of_outputs(
        params, lambda: reference_ops.keypoint_attention(*params, heads, slope), used)
    _assert_match(outs + grads, ref_outs + ref_grads)


def test_fused_layer_ops_record_one_node_and_reject_bad_shapes():
    rng = np.random.default_rng(24)
    P = lambda *s: ad.parameter(rng.standard_normal(s))
    phi_e, phi_x = (P(2, 6), P(2, 1), P(2, 2), P(2, 1)), (P(2, 2), P(2, 1), P(1, 2), P(1, 1))
    Z, H, edge_feats = P(3, 4), P(2, 4), rng.standard_normal((1, 8))
    nbrs = np.array([[1, 2], [0, 2], [3, 0], [2, 1]])
    with ad.Tape() as tape:
        ad.message_pass(phi_e, phi_x, Z, H, Z, edge_feats, nbrs, 0.01, 30.0, 0.25, 1.0)
        ad.node_update(P(2, 4), P(2, 1), P(2, 2), P(2, 1), H, [P(2, 4)], 0.5, 0.01)
        ad.keypoint_attention(P(2, 2), P(2, 1), P(6, 2), Z, H, P(2, 5), 3, 0.01)
        assert len(tape) == 3
    with pytest.raises(ad.ShapeError, match="message_pass.*outside"):
        ad.message_pass(phi_e, phi_x, Z, H, Z, edge_feats, nbrs + 1, 0.01, 30.0, 0.25, 1.0)
    with pytest.raises(ad.ShapeError, match="message_pass.*edge columns"):
        ad.message_pass(phi_e, phi_x, Z, H, Z, edge_feats[:, :6], nbrs, 0.01, 30.0, 0.25, 1.0)
    with pytest.raises(ad.ShapeError, match="message_pass.*one row"):
        ad.message_pass(phi_e, phi_x[:2] + (P(2, 2), P(2, 1)), Z, H, Z, edge_feats, nbrs,
                        0.01, 30.0, 0.25, 1.0)
    with pytest.raises(ad.ShapeError, match="node_update"):
        ad.node_update(P(2, 4), P(2, 1), P(2, 2), P(2, 1), H, [P(2, 3)], 0.5, 0.01)
    with pytest.raises(ad.ShapeError, match="keypoint_attention"):
        ad.keypoint_attention(P(2, 2), P(2, 1), P(5, 2), Z, H, P(2, 5), 3, 0.01)


def test_references_share_no_fused_helper(monkeypatch):
    """The primitive references run forward and backward without the fused ops' helpers."""
    def refuse(*args):
        raise AssertionError("a reference reached a fused op's helper")

    for name in ("_head_backward", "_edge_pre", "_sum_groups"):
        monkeypatch.setattr(ad, name, refuse)
    rng = np.random.default_rng(30)
    P = lambda *s: ad.parameter(rng.standard_normal(s))
    phi_e, phi_x = (P(2, 6), P(2, 1), P(2, 2), P(2, 1)), (P(2, 2), P(2, 1), P(1, 2), P(1, 1))
    Z, H, X0 = P(3, 4), P(2, 4), P(3, 4)
    update, context = (P(2, 4), P(2, 1), P(2, 2), P(2, 1)), [P(2, 4)]
    nbrs = np.array([[1, 2], [0, 2], [3, 0], [2, 1]])
    with ad.Tape() as tape:
        m, z = reference_ops.message_pass(phi_e, phi_x, Z, H, X0, rng.standard_normal((1, 8)),
                                          nbrs, 0.01, 30.0, 0.25, 1.0)
        h = reference_ops.node_update(*update, H, context, 0.5, 0.01)
        probe = lambda t: ad.dot(t, ad.constant(rng.standard_normal(t.data.shape)))
        tape.backward(ad.add(ad.add(probe(m), probe(z)), probe(h)))
    for p in (*phi_e, *phi_x, Z, H, X0, *update, *context):
        assert p.grad is not None and np.all(np.isfinite(p.grad))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0))
def test_property_leaky_relu_factor_is_the_select_bit_for_bit(slope):
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324]
    pre = np.concatenate([specials, np.random.default_rng(25).standard_normal(40)])
    expected = np.where(pre >= 0.0, 1.0, slope)
    assert np.array_equal(ad._leaky_relu_factor(pre >= 0.0, slope).view(np.uint64),
                          expected.view(np.uint64))


def test_backward_drops_each_node_once_it_has_run():
    x = ad.parameter([1.0])
    remaining = []
    with ad.Tape() as tape:
        y = x
        for _ in range(3):
            def backward(g, parent=y):
                remaining.append(len(tape))
                ad._accumulate(parent, 2.0 * g)
            y = ad._emit(2.0 * y.data, (y,), backward)
        loss = ad.reduce_sum(y)
        assert len(tape) == 4  # the recorded count, as read before backward
        tape.backward(loss)
    assert remaining == [2, 1, 0]
    assert len(tape) == 0
    np.testing.assert_array_equal(x.grad, [8.0])
