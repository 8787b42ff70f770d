"""Forward values and finite-difference gradient checks for the tape ops."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigiddock import autodiff as ad


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


def _grads(params, build):
    """Output data and every parameter's gradient of sum(build() * probe)."""
    for p in params:
        p.zero_grad()
    with ad.Tape() as tape:
        out = build()
        probe = ad.constant(np.cos(np.arange(out.data.size)).reshape(out.data.shape))
        tape.backward(ad.reduce_sum(ad.mul(out, probe)))
    return out.data, [p.grad for p in params]


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


@pytest.mark.parametrize("slope", [0.0, 0.01, 1.0, 2.5, -0.3])
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
    with mock.patch.object(ad, "_TILE_ENTRIES", tile):
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
