"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a float64 ndarray. Operations execute eagerly; when a Tape is
active in the current thread and an input requires gradients, the operation
also records a backward closure. ``Tape.backward`` replays the closures in
exact reverse order and frees the recording.

``transpose`` and ``reshape`` return views of their input's data where numpy
can (a transposed operand goes to BLAS as is, without a copy), so a Tensor's
data need not be C-contiguous. Parameters are the exception: ``parameter``
stores C-contiguous data, because ``grad_check`` and the optimizer write
into it in place through flat views. Nothing writes into the data of any
other tensor.

``linear``, ``mlp``, ``edge_mlp``, ``message_pass``, ``node_update``,
``cross_attention``, ``keypoint_attention`` and ``surface_penetration``
are fused ops: each records one tape node with a hand-written backward
instead of one node per primitive. ``message_pass`` and
``keypoint_attention`` have two outputs; ``svd3`` has three.

Tiles come from the one budget in ``tiles``. ``cross_attention`` and
``surface_penetration`` run over row tiles of their n1 x n2 logits or
distances and keep only each row's max and sum, so no n1 x n2 array
outlives a tile, with or without a tape. ``message_pass`` runs over blocks
of nodes whose edge arrays fit the budget; under a tape, a graph of
several blocks keeps no edge array, and backward forms them again. A tape
keeps each LeakyReLU's sign mask, not its pre-activation
(``_leaky_relu_factor``).

The forward tile loops of ``cross_attention``, ``soft_min`` and
``message_pass`` go through ``tiles.run``, which may run two tiles at once,
one on a pool thread. Each tile writes only its own rows or columns of
the outputs, and its arithmetic does not depend on which thread runs it,
so the bits are the serial ones. Tile bodies call only private helpers
and never touch the tape: every tape node is emitted on the calling
thread, after its loop. The message pass's backward rebuild also goes
through ``tiles.run``; backward loops that sum over tiles stay serial.
Whole ops run on the pool thread only without a tape, as part of a model
layer's ``tiles.branches`` half (``recording`` tells the model which).

``Tape.backward`` drops each recorded closure once it has run, so the
forward arrays a closure holds are freed as backward proceeds.

Tensors that never touch a tape are plain immutable value holders and can be
shared freely across threads. A Tape itself is single-threaded; concurrent
training needs one tape per thread.
"""

from __future__ import annotations

import collections
import threading
from dataclasses import dataclass

import numpy as np

from . import tiles


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class NonFiniteError(ValueError):
    """An operation that needs finite input received NaN or Inf."""


_ACTIVE = threading.local()


def _active_tape():
    return getattr(_ACTIVE, "tape", None)


def recording() -> bool:
    """Whether a Tape is active in the calling thread."""
    return _active_tape() is not None


class Tensor:
    """Dense float64 array participating in reverse-mode differentiation."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor has shape {self.data.shape}, expected a scalar")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.data.shape)}{flag})"


def constant(data) -> Tensor:
    """Untracked tensor; gradients never flow into it."""
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    """Leaf tensor that accumulates gradients during backward.

    Its data is C-contiguous, so in-place writes through ``data.reshape(-1)``
    reach it.
    """
    return Tensor(np.ascontiguousarray(data, dtype=np.float64), requires_grad=True)


class Tape:
    """Eager single-graph recording of operations, freed after backward.

    Recording order is the execution order, which is a topological order of
    the computation by construction; backward visits it exactly reversed.
    Use as a context manager::

        with Tape() as tape:
            loss = ...
            tape.backward(loss)
    """

    def __init__(self):
        self._nodes: list = []

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("a Tape is already active in this thread")
        _ACTIVE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.tape = None

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise ShapeError(f"backward: loss has shape {loss.data.shape}, expected a scalar")
        loss.grad = np.ones_like(loss.data)
        nodes = self._nodes
        while nodes:
            nodes.pop()()


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # a C-ordered copy: g may alias another buffer or be a transposed view
        t.grad = np.array(g, dtype=np.float64, order="C")
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _emit(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Create the output tensor and record ``backward`` if anything needs it.

    ``backward`` receives the output gradient and is responsible for calling
    :func:`_accumulate` on each parent.
    """
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    tape = _active_tape()
    if tape is not None and out.requires_grad:

        def node():
            if out.grad is not None:
                backward(out.grad)

        tape._nodes.append(node)
    return out


def _emit_multi(datas: tuple[np.ndarray, ...], parents: tuple[Tensor, ...],
                backward) -> tuple[Tensor, ...]:
    """``_emit`` for an op with several outputs, recorded as one tape node.

    ``backward`` receives one gradient per output, in order, and runs when
    any output has one; outputs without a gradient pass zeros.
    """
    requires_grad = any(p.requires_grad for p in parents)
    outs = tuple(Tensor(d, requires_grad=requires_grad) for d in datas)
    tape = _active_tape()
    if tape is not None and requires_grad:

        def node():
            if all(o.grad is None for o in outs):
                return
            backward(*(np.zeros_like(o.data) if o.grad is None else o.grad for o in outs))

        tape._nodes.append(node)
    return outs


# ---------------------------------------------------------------------------
# Elementwise and linear operations
# ---------------------------------------------------------------------------


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _emit(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _emit(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    ad, bd = a.data, b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * bd, a.data.shape))
        _accumulate(b, _unbroadcast(g * ad, b.data.shape))

    return _emit(ad * bd, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        _accumulate(a, g * c)

    return _emit(a.data * c, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: shapes {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data

    def backward(g):
        _accumulate(a, g @ bd.T)
        _accumulate(b, ad.T @ g)

    return _emit(ad @ bd, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: shape {a.data.shape}, expected 2-D")

    def backward(g):
        _accumulate(a, g.T)

    return _emit(a.data.T, (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"reshape: {a.data.shape} -> {shape}")
    old = a.data.shape

    def backward(g):
        _accumulate(a, g.reshape(old))

    return _emit(a.data.reshape(shape), (a,), backward)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out_data)

    return _emit(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    ad = a.data

    def backward(g):
        _accumulate(a, g / ad)

    return _emit(np.log(ad), (a,), backward)


def _leaky_relu_factor(mask: np.ndarray, slope: float) -> np.ndarray:
    """The derivative where(pre >= 0, 1, slope), bit for bit, from the sign mask ``pre >= 0.0``.

    Backward builds it when it runs. A tape keeps the 1-byte mask, not the
    8-byte ``pre``: the mask alone sets every bit of the factor. For
    0 <= slope <= 1 it is formed without a select, as m * (1 - slope) +
    slope with m the mask as 0/1, which is several times faster on mixed
    signs. That is slope exactly where m = 0, and exactly 1 where m = 1:
    fl(1 - slope) is within 2**-54 of 1 - slope, so adding slope back rounds
    to 1. A NaN pre has a false mask and gets the slope, as in the select.
    """
    if not 0.0 <= slope <= 1.0:
        return np.where(mask, 1.0, slope)
    factor = mask.astype(np.float64)
    factor *= 1.0 - slope
    factor += slope
    return factor


def _leaky_relu_values(pre: np.ndarray, slope: float) -> np.ndarray:
    """pre * where(pre >= 0, 1, slope), bit for bit, without the mask for 0 < slope < inf.

    For 0 < slope <= 1, pre * slope is at most pre when pre >= 0 and at least
    pre when pre < 0, so max(pre * slope, pre) is the masked product; for
    slope > 1 the order flips and min gives it. Operands that tie are then
    equal bit for bit, and a NaN comes from the product, as in the masked
    form. Slope 0 keeps the masked product because inf * 0 is NaN, and a
    negative slope keeps it because +0.0 would tie with -0.0.
    """
    if not 0.0 < slope < np.inf:
        return pre * _leaky_relu_factor(pre >= 0.0, slope)
    out = pre * slope
    (np.maximum if slope <= 1.0 else np.minimum)(out, pre, out=out)
    return out


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    ad = a.data

    def backward(g):
        _accumulate(a, g * _leaky_relu_factor(ad >= 0.0, slope))

    return _emit(_leaky_relu_values(ad, slope), (a,), backward)


def relu(a: Tensor) -> Tensor:
    return leaky_relu(a, 0.0)


def reduce_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    shape = a.data.shape

    def backward(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, shape).copy())
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(ge, shape).copy())

    return _emit(a.data.sum(axis=axis, keepdims=keepdims if axis is not None else False), (a,), backward)


def reduce_mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return scale(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Full contraction of two same-shape tensors to a scalar."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"dot: shapes {a.data.shape} and {b.data.shape} differ")
    return reduce_sum(mul(a, b))


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty input list")
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(idx)])

    return _emit(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), backward)


def softmax(a: Tensor, axis: int) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        _accumulate(a, (g - inner) * out_data)

    return _emit(out_data, (a,), backward)


def _layer_norm(x: np.ndarray, axis: int, eps: float):
    """Zero mean / unit variance along ``axis``, plus the adjoint of that map."""
    mean = x.mean(axis=axis, keepdims=True)
    var = x.var(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x - mean) * inv

    def backward(g):
        gm = g.mean(axis=axis, keepdims=True)
        gy = (g * y).mean(axis=axis, keepdims=True)
        return inv * (g - gm - y * gy)

    return y, backward


def layer_norm(a: Tensor, axis: int = 0, eps: float = 1e-5) -> Tensor:
    """Normalize to zero mean / unit variance along ``axis`` (no affine part)."""
    y, norm_backward = _layer_norm(a.data, axis, eps)

    def backward(g):
        _accumulate(a, norm_backward(g))

    return _emit(y, (a,), backward)


def _sum_into_columns(values: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """out[:, j] = sum of values[:, e] over idx[e] == j, added in column order.

    One flat bincount over row * n + idx; it sums each bucket sequentially,
    in the same order as ``np.add.at``.
    """
    rows = values.shape[0]
    flat = (np.arange(rows)[:, None] * n + idx).reshape(-1)
    return np.bincount(flat, weights=values.reshape(-1), minlength=rows * n).reshape(rows, n)


def _sum_groups(x: np.ndarray, k: int) -> np.ndarray:
    """Sums of consecutive groups of k columns: (rows, n * k) -> (rows, n).

    One matrix-vector product with a vector of ones; numpy's own reduction
    over such short inner rows runs several times slower.
    """
    return (x.reshape(-1, k) @ np.ones(k)).reshape(x.shape[0], -1)


def take_columns(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather columns of a 2-D tensor; backward sums gradients per source column."""
    if a.data.ndim != 2:
        raise ShapeError(f"take_columns: shape {a.data.shape}, expected 2-D")
    idx = np.asarray(idx, dtype=np.intp)
    out_data = a.data[:, idx]
    idx = idx % a.data.shape[1]  # negative indices wrap, as in the gather

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _sum_into_columns(g, idx, a.data.shape[1]))

    return _emit(out_data, (a,), backward)


def segment_sum_columns(a: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Sum columns of a 2-D tensor into ``num_segments`` buckets."""
    if a.data.ndim != 2:
        raise ShapeError(f"segment_sum_columns: shape {a.data.shape}, expected 2-D")
    segments = np.asarray(segments, dtype=np.intp)
    if segments.shape != (a.data.shape[1],):
        raise ShapeError(
            f"segment_sum_columns: {segments.shape[0]} segment ids for {a.data.shape[1]} columns"
        )
    if segments.size and (segments.min() < 0 or segments.max() >= num_segments):
        raise ShapeError(f"segment_sum_columns: segment ids outside [0, {num_segments})")

    def backward(g):
        _accumulate(a, g[:, segments])

    return _emit(_sum_into_columns(a.data, segments, num_segments), (a,), backward)


def pairwise_sqdist(x: Tensor, y: Tensor) -> Tensor:
    """Squared Euclidean distances between columns: out[i, j] = ||x_i - y_j||^2."""
    if x.data.ndim != 2 or y.data.ndim != 2 or x.data.shape[0] != y.data.shape[0]:
        raise ShapeError(f"pairwise_sqdist: shapes {x.data.shape} and {y.data.shape}")
    xd, yd = x.data, y.data
    x2 = (xd * xd).sum(axis=0)
    y2 = (yd * yd).sum(axis=0)
    out_data = x2[:, None] + y2[None, :] - 2.0 * (xd.T @ yd)
    np.maximum(out_data, 0.0, out=out_data)

    def backward(g):
        _accumulate(x, 2.0 * (xd * g.sum(axis=1) - yd @ g.T))
        _accumulate(y, 2.0 * (yd * g.sum(axis=0) - xd @ g))

    return _emit(out_data, (x, y), backward)


# ---------------------------------------------------------------------------
# Fused layers: one tape node each, with a hand-written backward
# ---------------------------------------------------------------------------


def _check_layer(op: str, W: Tensor, b: Tensor, rows_in: int) -> None:
    """W is (out, rows_in) and b is the (out, 1) bias column."""
    if W.data.ndim != 2 or W.data.shape[1] != rows_in or b.data.shape != (W.data.shape[0], 1):
        raise ShapeError(f"{op}: weight {W.data.shape} and bias {b.data.shape} "
                         f"for {rows_in} input rows")


def _affine(W: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = W @ x
    out += b
    return out


def linear(W: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """W @ x + b for a column bias b."""
    if x.data.ndim != 2:
        raise ShapeError(f"linear: input shape {x.data.shape}, expected 2-D")
    _check_layer("linear", W, b, x.data.shape[0])
    Wd, xd = W.data, x.data

    def backward(g):
        _accumulate(W, g @ xd.T)
        if x.requires_grad:
            _accumulate(x, Wd.T @ g)
        _accumulate(b, g.sum(axis=1, keepdims=True))

    return _emit(_affine(Wd, xd, b.data), (W, x, b), backward)


def _records(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``parents`` records a tape node: a tape is on and one needs a gradient."""
    return _active_tape() is not None and any(p.requires_grad for p in parents)


def _head_backward(mask: np.ndarray, hidden: np.ndarray, W1: Tensor, b1: Tensor,
                   slope: float):
    """Backward of W1 @ hidden + b1 with hidden = leaky_relu(pre, slope) and mask = pre >= 0.0.

    It accumulates into W1 and b1 and returns the gradient with respect to
    ``pre``.
    """
    W1d = W1.data

    def backward(g):
        _accumulate(W1, g @ hidden.T)
        _accumulate(b1, g.sum(axis=1, keepdims=True))
        # a one-row W1 (a gate) makes this an outer product, which BLAS runs
        # several times slower than the broadcast product with the same bits
        g_pre = W1d.T * g if W1d.shape[0] == 1 else W1d.T @ g
        g_pre *= _leaky_relu_factor(mask, slope)
        return g_pre

    return backward


def _mlp_head(pre: np.ndarray, W1: Tensor, b1: Tensor, slope: float, keep: bool):
    """W1 @ leaky_relu(pre, slope) + b1, plus its backward (``_head_backward``), or None.

    The backward, and the sign mask of ``pre`` it holds, are formed only
    when ``keep`` says a tape records the op.
    """
    hidden = _leaky_relu_values(pre, slope)
    out = _affine(W1.data, hidden, b1.data)
    return out, _head_backward(pre >= 0.0, hidden, W1, b1, slope) if keep else None


def mlp(W0: Tensor, b0: Tensor, W1: Tensor, b1: Tensor, x: Tensor,
        slope: float = 0.01) -> Tensor:
    """W1 @ leaky_relu(W0 @ x + b0, slope) + b1."""
    if x.data.ndim != 2:
        raise ShapeError(f"mlp: input shape {x.data.shape}, expected 2-D")
    _check_layer("mlp", W0, b0, x.data.shape[0])
    _check_layer("mlp", W1, b1, W0.data.shape[0])
    W0d, xd = W0.data, x.data
    out_data, head_backward = _mlp_head(_affine(W0d, xd, b0.data), W1, b1, slope,
                                        _records((W0, b0, W1, b1, x)))

    def backward(g):
        g_pre = head_backward(g)
        _accumulate(b0, g_pre.sum(axis=1, keepdims=True))
        _accumulate(W0, g_pre @ xd.T)
        if x.requires_grad:
            _accumulate(x, W0d.T @ g_pre)

    return _emit(out_data, (W0, b0, W1, b1, x), backward)


def _check_graph(op: str, neighbors: np.ndarray, n: int, edge_columns: int) -> np.ndarray:
    """neighbors as an (n, k) index array with ids in [0, n), for n * k edge columns."""
    neighbors = np.asarray(neighbors, dtype=np.intp)
    if neighbors.ndim != 2 or neighbors.shape[0] != n or neighbors.size != edge_columns:
        raise ShapeError(f"{op}: {neighbors.shape} neighbors and {edge_columns} "
                         f"edge columns for {n} nodes")
    if neighbors.size and (neighbors.min() < 0 or neighbors.max() >= n):
        raise ShapeError(f"{op}: neighbor ids outside [0, {n})")
    return neighbors


def _edge_pre(W_edge: np.ndarray, b0: np.ndarray, edge_in: np.ndarray, dst_proj: np.ndarray,
              src_proj: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Edge pre-activations for a run of nodes, from node-side projections.

    ``neighbors`` holds the run's (b, k) rows and ``edge_in`` their b * k edge
    columns; ``dst_proj`` is ``W_dst @ H`` on the run's nodes and ``src_proj``
    is ``W_src @ H`` on all nodes. Edge j -> i gets ``W_edge @ edge_in + b0 +
    dst_proj[:, i] + src_proj[:, j]``.
    """
    pre = _affine(W_edge, edge_in, b0)
    per_node = pre.reshape(pre.shape[0], *neighbors.shape)  # a view: edge i * k + j is [:, i, j]
    per_node += dst_proj[:, :, None]
    # np.take gives a C-ordered copy; ``a[:, src]`` would be F-ordered, so the
    # add would walk it with a stride
    pre += np.take(src_proj, neighbors.reshape(-1), axis=1)
    return pre


def _edge_backward(head_backward, W0: Tensor, b0: Tensor, H: Tensor, edge_in: np.ndarray,
                   neighbors: np.ndarray):
    """Backward of an edge MLP whose pre-activations came from ``_edge_pre`` on all nodes.

    ``head_backward`` is its head's (``_head_backward``). The backward
    accumulates into W0, b0 and H, reducing the edge gradient to nodes before
    the node-side matmuls, and returns the gradient with respect to the
    pre-activation, ``g_pre``; the edge input's gradient is
    ``W0[:, 2 * d:].T @ g_pre``.
    """
    d, n = H.data.shape
    k = neighbors.shape[1]
    W0d, Hd = W0.data, H.data
    W_dst, W_src = W0d[:, :d], W0d[:, d:2 * d]
    src = neighbors.reshape(-1)

    def backward(g):
        g_pre = head_backward(g)
        _accumulate(b0, g_pre.sum(axis=1, keepdims=True))
        g_dst = _sum_groups(g_pre, k)
        g_src = _sum_into_columns(g_pre, src, n)
        _accumulate(W0, np.concatenate([g_dst @ Hd.T, g_src @ Hd.T, g_pre @ edge_in.T], axis=1))
        if H.requires_grad:
            g_H = W_dst.T @ g_dst
            g_H += W_src.T @ g_src
            _accumulate(H, g_H)
        return g_pre

    return backward


def edge_mlp(W0: Tensor, b0: Tensor, W1: Tensor, b1: Tensor, H: Tensor,
             edge_in: Tensor, neighbors: np.ndarray, slope: float = 0.01) -> Tensor:
    """``mlp`` over the edges of a fixed-degree graph, without gathering H to edges.

    Node i has the k in-edges ``neighbors[i, j] -> i``, stored as column
    ``i * k + j``. The per-edge input is ``concat([H[:, dst], H[:, src],
    edge_in])``; W0 is read as the column blocks ``[W_dst | W_src | W_edge]``
    and ``W_dst @ H``, ``W_src @ H`` are formed on the n nodes before the
    gather. Backward reduces the edge gradient to nodes before the node-side
    matmuls.
    """
    if H.data.ndim != 2 or edge_in.data.ndim != 2:
        raise ShapeError(f"edge_mlp: H {H.data.shape}, edge input {edge_in.data.shape}")
    d = H.data.shape[0]
    neighbors = _check_graph("edge_mlp", neighbors, H.data.shape[1], edge_in.data.shape[1])
    _check_layer("edge_mlp", W0, b0, 2 * d + edge_in.data.shape[0])
    _check_layer("edge_mlp", W1, b1, W0.data.shape[0])
    W0d, Hd = W0.data, H.data
    W_edge = W0d[:, 2 * d:]
    pre = _edge_pre(W_edge, b0.data, edge_in.data, W0d[:, :d] @ Hd, W0d[:, d:2 * d] @ Hd,
                    neighbors)
    out_data, head_backward = _mlp_head(pre, W1, b1, slope,
                                        _records((W0, b0, W1, b1, H, edge_in)))
    core_backward = _edge_backward(head_backward, W0, b0, H, edge_in.data, neighbors)

    def backward(g):
        g_pre = core_backward(g)
        if edge_in.requires_grad:
            _accumulate(edge_in, W_edge.T @ g_pre)

    return _emit(out_data, (W0, b0, W1, b1, H, edge_in), backward)


def message_pass(phi_e: tuple[Tensor, Tensor, Tensor, Tensor],
                 phi_x: tuple[Tensor, Tensor, Tensor, Tensor],
                 Z: Tensor, H: Tensor, X0: Tensor, edge_feats: np.ndarray,
                 neighbors: np.ndarray, slope: float, sigma: float, eta: float,
                 shift_scale: float) -> tuple[Tensor, Tensor]:
    """One EGNN-style message pass over a fixed-degree graph: (m, Z_new).

    Node i has the k in-edges ``neighbors[i, j] -> i`` (edge column
    ``i * k + j``, as in ``edge_mlp``). Per edge, ``diff = Z_i - Z_src``,
    ``radial = exp(-|diff|^2 / sigma)`` and ``m_e = mlp(phi_e, [H_i; H_src;
    radial; edge_feats_e])``, formed through ``edge_mlp``'s node-side
    projection. Then, with ``phi_e`` and ``phi_x`` each ``(W0, b0, W1, b1)``
    of a LeakyReLU ``mlp`` and ``phi_x`` giving one gate per edge::

        m     = (1 / k) * sum_j m_e
        Z_new = eta * X0 + (1 - eta) * Z + shift_scale * sum_j diff * mlp(phi_x, m_e)

    Every node has exactly k in-edges, so the sums over j are reshape-sums
    of the (., n, k) edge layout. Z, H and X0 are 3 x n, d x n and 3 x n.

    The forward is one loop over blocks of nodes (``tiles.run``), each
    holding the edge arrays of at most ``tiles.TILE_ENTRIES`` entries (the
    widest of them sets the height), so it allocates no array over all
    n * k edges; a block drops each edge array once the next is formed.

    A tape keeps only what backward reads. Each LeakyReLU's pre-activation
    is kept as its 1-byte sign mask (``_leaky_relu_factor``), and the radial
    term is read back as row 0 of the edge input. A graph that fits one
    block keeps its block's edge arrays. On a graph of more blocks the
    forward keeps none: backward forms them again, through the same blocks
    and ``tiles.run``, into fresh full arrays that are freed when it
    returns. The blocks' node outputs then go to throwaway buffers. Every
    block is the forward's own arithmetic, so backward reads the same bits.
    """
    W0, b0, W1, b1 = phi_e
    Wx0, bx0, Wx1, bx1 = phi_x
    Zd, Hd, X0d = Z.data, H.data, X0.data
    edge_feats = np.asarray(edge_feats, dtype=np.float64)
    if (Zd.ndim != 2 or Zd.shape[0] != 3 or X0d.shape != Zd.shape or Hd.ndim != 2
            or Hd.shape[1] != Zd.shape[1] or edge_feats.ndim != 2):
        raise ShapeError(f"message_pass: Z {Zd.shape}, X0 {X0d.shape}, H {Hd.shape}, "
                         f"edge features {edge_feats.shape}")
    (d, n), edge_rows = Hd.shape, 1 + edge_feats.shape[0]
    neighbors = _check_graph("message_pass", neighbors, n, edge_feats.shape[1])
    _check_layer("message_pass", W0, b0, 2 * d + edge_rows)
    _check_layer("message_pass", W1, b1, W0.data.shape[0])
    _check_layer("message_pass", Wx0, bx0, W1.data.shape[0])
    _check_layer("message_pass", Wx1, bx1, Wx0.data.shape[0])
    if Wx1.data.shape[0] != 1:
        raise ShapeError(f"message_pass: gate weight {Wx1.data.shape}, expected one row")
    k = neighbors.shape[1]
    c = -1.0 / sigma
    parents = (W0, b0, W1, b1, Wx0, bx0, Wx1, bx1, Z, H, X0)
    W0d, Wx0d = W0.data, Wx0.data
    W_edge, W_radial = W0d[:, 2 * d:], W0d[:, 2 * d]
    dst_proj, src_proj = W0d[:, :d] @ Hd, W0d[:, d:2 * d] @ Hd
    hid = W1.data.shape[0]
    m_node = np.empty((hid, n))
    shift = np.empty((3, n))
    height = tiles.tile_rows(k * max(edge_rows, W0d.shape[0], hid, Wx0d.shape[0]))
    blocks = tiles.spans(n, height)

    def edge_arrays(lo, hi, m_out, shift_out, masks):
        """Fill m_out and shift_out for nodes lo:hi, yielding the edge arrays backward reads.

        They are diff, edge_in, pre's sign mask, hidden, m_edge, pre_x's
        sign mask, hidden_x and gate; without ``masks`` None stands in for
        each mask, so a tape-free pass forms none. Each array is yielded once
        formed and dropped here once the next is formed, so a caller that
        keeps none holds only what the current step reads and writes.
        """
        nbrs = neighbors[lo:hi]
        diff = Zd[:, lo:hi, None] - np.take(Zd, nbrs, axis=1)  # (3, b, k)
        diff_e = diff.reshape(3, -1)
        yield diff_e
        radial = np.exp((diff_e * diff_e).sum(axis=0, keepdims=True) * c)
        edge_in = np.concatenate([radial, edge_feats[:, lo * k:hi * k]], axis=0)
        del radial
        yield edge_in
        pre = _edge_pre(W_edge, b0.data, edge_in, dst_proj[:, lo:hi], src_proj, nbrs)
        del edge_in
        yield pre >= 0.0 if masks else None
        hidden = _leaky_relu_values(pre, slope)
        del pre
        yield hidden
        m_edge = _affine(W1.data, hidden, b1.data)
        del hidden
        yield m_edge
        m_out[:, lo:hi] = _sum_groups(m_edge, k)
        pre_x = _affine(Wx0d, m_edge, bx0.data)
        del m_edge
        yield pre_x >= 0.0 if masks else None
        hidden_x = _leaky_relu_values(pre_x, slope)
        del pre_x
        yield hidden_x
        gate = _affine(Wx1.data, hidden_x, bx1.data)
        del hidden_x
        yield gate
        shift_out[:, lo:hi] = _sum_groups((diff * gate.reshape(1, hi - lo, k)).reshape(3, -1), k)

    def rebuild():
        """The edge arrays of all blocks, formed again into full arrays."""
        full = tuple(np.empty((rows, n * k), dtype) for rows, dtype in (
            (3, np.float64), (edge_rows, np.float64), (W0d.shape[0], bool),
            (W0d.shape[0], np.float64), (hid, np.float64), (Wx0d.shape[0], bool),
            (Wx0d.shape[0], np.float64), (1, np.float64)))
        m_out, shift_out = np.empty((hid, n)), np.empty((3, n))  # throwaway

        def edge_block(lo, hi):
            for whole, part in zip(full, edge_arrays(lo, hi, m_out, shift_out, True)):
                whole[:, lo * k:hi * k] = part

        tiles.run(edge_block, blocks)
        return full

    if _records(parents) and len(blocks) == 1:
        kept = tuple(edge_arrays(0, n, m_node, shift, True))

        def saved():
            return kept
    else:  # run each block keeping none of its edge arrays
        tiles.run(lambda lo, hi: collections.deque(
            edge_arrays(lo, hi, m_node, shift, False), maxlen=0), blocks)
        saved = rebuild
    m_node *= 1.0 / k
    shift *= shift_scale
    z_new = X0d * eta
    z_new += Zd * (1.0 - eta)
    z_new += shift

    def backward(g_m, g_z):
        diff_e, edge_in, pre_mask, hidden, m_edge, prex_mask, hidden_x, gate = saved()
        diff = diff_e.reshape(3, n, k)
        if X0.requires_grad:
            _accumulate(X0, g_z * eta)
        g_shift = (g_z * shift_scale)[:, :, None]
        gate_backward = _head_backward(prex_mask, hidden_x, Wx1, bx1, slope)
        g_prex = gate_backward((g_shift * diff).sum(axis=0).reshape(1, n * k))
        _accumulate(bx0, g_prex.sum(axis=1, keepdims=True))
        _accumulate(Wx0, g_prex @ m_edge.T)
        g_edge = Wx0d.T @ g_prex
        per_node = g_edge.reshape(hid, n, k)
        per_node += (g_m * (1.0 / k))[:, :, None]
        edge_backward = _edge_backward(_head_backward(pre_mask, hidden, W1, b1, slope),
                                       W0, b0, H, edge_in, neighbors)
        g_pre = edge_backward(g_edge)
        if Z.requires_grad:
            g_sqd = (W_radial @ g_pre) * edge_in[0]
            g_sqd *= 2.0 * c
            g_diff = g_shift * gate.reshape(1, n, k)
            g_diff += g_sqd.reshape(1, n, k) * diff
            g_Z = g_z * (1.0 - eta)
            g_Z += _sum_groups(g_diff.reshape(3, n * k), k)
            g_Z -= _sum_into_columns(g_diff.reshape(3, n * k), neighbors.reshape(-1), n)
            _accumulate(Z, g_Z)

    return _emit_multi((m_node, z_new), parents, backward)


def node_update(W0: Tensor, b0: Tensor, W1: Tensor, b1: Tensor, H: Tensor,
                context: list[Tensor], beta: float, slope: float) -> Tensor:
    """Residual node update: layer_norm((1 - beta) * H + beta * mlp([H; context])).

    The MLP is ``mlp(W0, b0, W1, b1, x, slope)`` on x, H stacked over the
    context tensors (all with H's columns), and ``layer_norm`` runs over the
    rows of the mixed result. Without a tape that records it, the stacked
    input and the MLP's hidden arrays are freed as soon as they are read,
    since two layer halves may run updates at once.
    """
    parts = (H, *context)
    if any(p.data.ndim != 2 or p.data.shape[1] != H.data.shape[1] for p in parts):
        raise ShapeError(f"node_update: shapes {[p.data.shape for p in parts]}")
    x = np.concatenate([p.data for p in parts], axis=0)
    _check_layer("node_update", W0, b0, x.shape[0])
    _check_layer("node_update", W1, b1, W0.data.shape[0])
    if W1.data.shape[0] != H.data.shape[0]:
        raise ShapeError(f"node_update: output weight {W1.data.shape} for H {H.data.shape}")
    W0d = W0.data
    keep = _records(parts + (W0, b0, W1, b1))
    pre = _affine(W0d, x, b0.data)
    if not keep:  # nothing will run backward, so free each input array once it is read
        x = None
    mix, head_backward = _mlp_head(pre, W1, b1, slope, keep)
    del pre
    h = H.data * (1.0 - beta)
    h += mix * beta
    out_data, norm_backward = _layer_norm(h, 0, 1e-5)
    bounds = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def backward(g):
        g = norm_backward(g)
        g_pre = head_backward(g * beta)
        _accumulate(b0, g_pre.sum(axis=1, keepdims=True))
        _accumulate(W0, g_pre @ x.T)
        g_x = W0d.T @ g_pre
        g_x[:bounds[1]] += g * (1.0 - beta)
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            _accumulate(p, g_x[lo:hi])

    return _emit(out_data, parts + (W0, b0, W1, b1), backward)


def cross_attention(q: Tensor, k: Tensor, values: Tensor) -> Tensor:
    """values @ softmax(q.T @ k, axis=1).T without an n1 x n2 array.

    q is (d, n1), k is (d, n2) and values is (m, n2); the output is (m, n1).
    The logits are formed in row tiles of the ``tiles.TILE_ENTRIES`` budget
    (``tiles.run``), in one reused buffer per worker. Each tile is shifted
    by its row maxima and exponentiated in place, and ``values @ E.T`` is
    divided by the row sums. Only the row
    maxima and sums are kept: backward rebuilds each tile's attention from
    them and takes the softmax adjoint's row term from the output,
    ``sum_j A_ij dA_ij = g[:, i] . out[:, i]`` (the online-softmax pattern of
    Rabe & Staats 2021 and FlashAttention, Dao et al. 2022).
    """
    qd, kd, vd = q.data, k.data, values.data
    if (qd.ndim != 2 or kd.ndim != 2 or vd.ndim != 2 or qd.shape[0] != kd.shape[0]
            or vd.shape[1] != kd.shape[1] or kd.shape[1] == 0):
        raise ShapeError(f"cross_attention: q {qd.shape}, k {kd.shape}, values {vd.shape}")
    n1, n2 = qd.shape[1], kd.shape[1]
    rows = tiles.tile_rows(n2)
    spans = tiles.spans(n1, rows)
    tile_shape = (min(rows, n1), n2)
    row_max = np.empty(n1)
    row_sum = np.empty(n1)
    out_data = np.empty((vd.shape[0], n1))

    def forward_tile(lo, hi, buf):
        e = np.matmul(qd[:, lo:hi].T, kd, out=buf[:hi - lo])
        e.max(axis=1, out=row_max[lo:hi])
        e -= row_max[lo:hi, None]
        np.exp(e, out=e)
        e.sum(axis=1, out=row_sum[lo:hi])
        np.divide(vd @ e.T, row_sum[lo:hi], out=out_data[:, lo:hi])

    tiles.run(forward_tile, spans, lambda: (np.empty(tile_shape),))

    def backward(g):
        row_dot = np.einsum("ij,ij->j", g, out_data)
        g_q = np.empty_like(qd)
        g_k = np.zeros_like(kd)
        g_v = np.zeros_like(vd)
        att_buf = np.empty(tile_shape)
        d_buf = np.empty(tile_shape)
        for lo, hi in spans:
            att = np.matmul(qd[:, lo:hi].T, kd, out=att_buf[:hi - lo])
            att -= row_max[lo:hi, None]
            np.exp(att, out=att)
            att /= row_sum[lo:hi, None]
            g_tile = g[:, lo:hi]
            g_v += g_tile @ att
            d_logits = np.matmul(g_tile.T, vd, out=d_buf[:hi - lo])
            d_logits -= row_dot[lo:hi, None]
            d_logits *= att
            g_q[:, lo:hi] = kd @ d_logits.T
            g_k += qd[:, lo:hi] @ d_logits
        _accumulate(q, g_q)
        _accumulate(k, g_k)
        _accumulate(values, g_v)

    return _emit(out_data, (q, k, values), backward)


def _scaled_sqdist_tiles(x: np.ndarray, y: np.ndarray, c: float):
    """``(spans, scratch, tile)`` for the row tiles of ``c * pairwise_sqdist(x, y)``.

    ``tile(lo, hi, buf, tmp)``, with ``(buf, tmp) = scratch()``, returns rows
    lo:hi in ``buf``, valid until ``buf`` is reused. The arithmetic is
    ``pairwise_sqdist``'s, ``(x2_i + y2_j) - 2 x_i . y_j`` clamped at 0, then
    scaled as ``scale`` does. The spans follow the ``tiles.TILE_ENTRIES``
    budget.
    """
    m, n2 = x.shape[1], y.shape[1]
    x2, y2 = (x * x).sum(axis=0), (y * y).sum(axis=0)
    rows = tiles.tile_rows(n2)
    shape = (min(rows, m), n2)

    def tile(lo, hi, buf, tmp):
        out = np.matmul(x[:, lo:hi].T, y, out=buf[:hi - lo])
        out *= 2.0
        np.subtract(np.add.outer(x2[lo:hi], y2, out=tmp[:hi - lo]), out, out=out)
        np.maximum(out, 0.0, out=out)
        out *= c
        return out

    return tiles.spans(m, rows), lambda: (np.empty(shape), np.empty(shape)), tile


def soft_min(x: np.ndarray, y: np.ndarray,
             sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Soft-min squared distance from each column of x to the columns of y.

    Returns ``(G, row_max, row_sum)``, each with one entry per column of x:
    ``G_i = -sigma * ln sum_j exp(-||x_i - y_j||^2 / sigma)``, formed as
    ``-sigma * (row_max_i + ln row_sum_i)`` with ``row_max_i`` the largest
    ``-d2_ij / sigma`` and ``row_sum_i = sum_j exp(-d2_ij / sigma - row_max_i)``,
    so distances up to ~1e4 never overflow. The distances are formed in row
    tiles (``_scaled_sqdist_tiles``) through ``tiles.run``, never as one
    n1 x n2 array.
    """
    row_max, row_sum = np.empty(x.shape[1]), np.empty(x.shape[1])
    spans, scratch, sqdist = _scaled_sqdist_tiles(x, y, -1.0 / sigma)

    def soft_min_tile(lo, hi, buf, tmp):
        e = sqdist(lo, hi, buf, tmp)
        e.max(axis=1, out=row_max[lo:hi])
        e -= row_max[lo:hi, None]
        np.exp(e, out=e)
        e.sum(axis=1, out=row_sum[lo:hi])

    tiles.run(soft_min_tile, spans, scratch)
    lse = row_max + np.log(row_sum)
    return lse * float(-sigma), row_max, row_sum


def surface_penetration(points: Tensor, cloud: Tensor, gamma: float, sigma: float) -> Tensor:
    """Mean over the columns x of ``points`` of ``relu(gamma - G(x))``, one tape node.

    G is ``soft_min(points, cloud, sigma)``: points deeper than the level
    ``gamma`` inside the cloud's soft-min surface are penalized. Values and
    gradients follow the primitive composition (``pairwise_sqdist``,
    ``scale``, a log-sum-exp shifted by the row maximum, ``sub``, ``relu``,
    ``reduce_mean``) operation for operation, so clouds whose distances fit
    one tile get its bits. ``relu`` keeps its form ``pre * (pre >= 0)``: a
    depth of -inf, or a NaN soft-min, gives NaN.

    Only each row's max and sum outlive the forward. Backward rebuilds each
    row tile of the softmax weights from them, as ``cross_attention`` does,
    so neither pass holds an n1 x n2 array.
    """
    xd, yd = points.data, cloud.data
    if (xd.ndim != 2 or yd.ndim != 2 or xd.shape[0] != yd.shape[0] or xd.shape[1] == 0
            or yd.shape[1] == 0):
        raise ShapeError(f"surface_penetration: points {xd.shape}, cloud {yd.shape}")
    m = xd.shape[1]
    G, row_max, row_sum = soft_min(xd, yd, sigma)
    depth = gamma - G
    out_data = _leaky_relu_values(depth, 0.0).sum() * (1.0 / m)

    def backward(g):
        # the adjoint of each primitive in turn, down to -d2 / sigma
        g_lse = -(g * (1.0 / m) * _leaky_relu_factor(depth >= 0.0, 0.0))
        g_lse *= float(-sigma)
        g_lse /= row_sum
        c = -1.0 / sigma
        g_x = np.empty_like(xd) if points.requires_grad else None
        col_sum = x_w = None
        spans, scratch, sqdist = _scaled_sqdist_tiles(xd, yd, c)
        bufs = scratch()
        for lo, hi in spans:
            w = sqdist(lo, hi, *bufs)
            w -= row_max[lo:hi, None]
            np.exp(w, out=w)
            w *= g_lse[lo:hi, None]
            w *= c  # now the gradient of pairwise_sqdist's tile
            if g_x is not None:
                g_x[:, lo:hi] = 2.0 * (xd[:, lo:hi] * w.sum(axis=1) - yd @ w.T)
            if cloud.requires_grad:
                if col_sum is None:
                    col_sum, x_w = w.sum(axis=0), xd[:, lo:hi] @ w
                else:
                    col_sum += w.sum(axis=0)
                    x_w += xd[:, lo:hi] @ w
        if g_x is not None:
            _accumulate(points, g_x)
        if col_sum is not None:
            _accumulate(cloud, 2.0 * (yd * col_sum - x_w))

    return _emit(out_data, (points, cloud), backward)


def keypoint_attention(W: Tensor, b: Tensor, w_prime: Tensor, Z: Tensor, H: Tensor,
                       H_other: Tensor, heads: int, slope: float) -> tuple[Tensor, Tensor]:
    """Attention keypoints of one protein given the other: (Y, A).

    With d the rows of H and m those of W::

        summary  = column mean of leaky_relu(W @ H_other + b, slope)    (m x 1)
        per_head = (w_prime @ summary) read row-major as heads x d
        A        = softmax(per_head @ H / sqrt(d), axis=1)             (heads x n)
        Y        = Z @ A.T                                             (3 x heads)

    Each row of A holds convex weights over the n nodes of Z and H.
    """
    Wd, bd, wpd = W.data, b.data, w_prime.data
    Zd, Hd, Od = Z.data, H.data, H_other.data
    if (Zd.ndim != 2 or Hd.ndim != 2 or Od.ndim != 2 or Zd.shape[1] != Hd.shape[1]
            or wpd.shape != (heads * Hd.shape[0], Wd.shape[0])):
        raise ShapeError(f"keypoint_attention: Z {Zd.shape}, H {Hd.shape}, H_other {Od.shape}, "
                         f"w_prime {wpd.shape} for {heads} heads")
    _check_layer("keypoint_attention", W, b, Od.shape[0])
    d, n_other = Hd.shape[0], Od.shape[1]
    pre = _affine(Wd, Od, bd)
    summary = _leaky_relu_values(pre, slope).sum(axis=1, keepdims=True)
    mask = pre >= 0.0 if _records((W, b, w_prime, Z, H, H_other)) else None
    del pre
    summary *= 1.0 / n_other
    per_head = (wpd @ summary).reshape(heads, d)
    c = 1.0 / np.sqrt(d)
    logits = per_head @ Hd
    logits *= c
    logits -= logits.max(axis=1, keepdims=True)
    att = np.exp(logits)
    att /= att.sum(axis=1, keepdims=True)

    def backward(g_y, g_att):
        _accumulate(Z, g_y @ att)
        g_att = g_att + g_y.T @ Zd
        g_logits = g_att - (g_att * att).sum(axis=1, keepdims=True)
        g_logits *= att
        g_logits *= c
        _accumulate(H, per_head.T @ g_logits)
        g_head = (g_logits @ Hd.T).reshape(-1, 1)
        _accumulate(w_prime, g_head @ summary.T)
        g_summary = wpd.T @ g_head
        g_summary *= 1.0 / n_other
        g_pre = np.repeat(g_summary, n_other, axis=1)
        g_pre *= _leaky_relu_factor(mask, slope)
        _accumulate(W, g_pre @ Od.T)
        _accumulate(b, g_pre.sum(axis=1, keepdims=True))
        _accumulate(H_other, Wd.T @ g_pre)

    return _emit_multi((Zd @ att.T, att), (W, b, w_prime, Z, H, H_other), backward)


# ---------------------------------------------------------------------------
# 3x3 singular value decomposition
# ---------------------------------------------------------------------------


@dataclass
class Svd3:
    """Full SVD of a 3x3 matrix: input = U @ diag(S) @ V.T, S descending."""

    U: Tensor
    S: Tensor
    V: Tensor


_JACOBI_SWEEPS = 30
# Clamp for 1/(S_i^2 - S_j^2) in the backward pass; gradients are approximate
# when singular values nearly coincide.
_SVD_GAP_FLOOR = 1e-8


def _jacobi_eigh3(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition of a symmetric 3x3 matrix."""
    b = b.copy()
    v = np.eye(3)
    norm = np.linalg.norm(b)
    tol = 1e-15 * max(norm, 1.0)
    for _ in range(_JACOBI_SWEEPS):
        off = np.sqrt(b[0, 1] ** 2 + b[0, 2] ** 2 + b[1, 2] ** 2)
        if off <= tol:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            if b[p, q] == 0.0:
                continue
            tau = (b[q, q] - b[p, p]) / (2.0 * b[p, q])
            t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0.0 else 1.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            rot = np.eye(3)
            rot[p, p] = c
            rot[q, q] = c
            rot[p, q] = s
            rot[q, p] = -s
            b = rot.T @ b @ rot
            v = v @ rot
    return np.diag(b).copy(), v


def _svd3_forward(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    evals, v = _jacobi_eigh3(a.T @ a)
    order = np.argsort(-evals, kind="stable")
    v = v[:, order]
    w = a @ v
    # Taking S from ||A v_i|| (not sqrt of eigenvalues) makes the
    # reconstruction A ~= U diag(S) V^T exact by construction.
    s = np.linalg.norm(w, axis=0)
    reorder = np.argsort(-s, kind="stable")
    s = s[reorder]
    v = v[:, reorder]
    w = w[:, reorder]
    u = np.zeros((3, 3))
    tiny = 1e-12 * max(s[0], 1.0)
    filled = []
    for i in range(3):
        if s[i] <= tiny:
            continue
        col = w[:, i] / s[i]
        for j in filled:
            col = col - np.dot(col, u[:, j]) * u[:, j]
        norm = np.linalg.norm(col)
        if norm > 0.5:
            u[:, i] = col / norm
            filled.append(i)
    missing = [i for i in range(3) if i not in filled]
    if len(missing) == 1:
        i, j = filled
        u[:, missing[0]] = np.cross(u[:, i], u[:, j])
    elif missing:
        # Rank <= 1: complete an orthonormal basis around any filled column.
        basis = [u[:, i] for i in filled]
        for cand in np.eye(3):
            if len(basis) == 3:
                break
            r = cand - sum(np.dot(cand, b) * b for b in basis)
            norm = np.linalg.norm(r)
            if norm > 1e-6:
                basis.append(r / norm)
        for i, col in zip(missing, basis[len(filled):]):
            u[:, i] = col
    return u, s, v


def _svd3_backward(
    u: np.ndarray, s: np.ndarray, v: np.ndarray,
    gu: np.ndarray, gs: np.ndarray, gv: np.ndarray,
) -> np.ndarray:
    """Adjoint of the full 3x3 SVD with clamped inverse spectral gaps."""
    s2 = s * s
    gap = s2[None, :] - s2[:, None]
    sign = np.where(gap >= 0.0, 1.0, -1.0)
    gap = sign * np.maximum(np.abs(gap), _SVD_GAP_FLOOR)
    f = 1.0 / gap
    np.fill_diagonal(f, 0.0)
    sdiag = np.diag(s)
    ju = f * (u.T @ gu - gu.T @ u)
    jv = f * (v.T @ gv - gv.T @ v)
    middle = ju @ sdiag + sdiag @ jv + np.diag(gs)
    return u @ middle @ v.T


def svd3(a: Tensor) -> Svd3:
    """Differentiable SVD of a 3x3 tensor.

    Forward runs cyclic Jacobi on ``a.T @ a``; backward applies the standard
    SVD adjoint with the spectral-gap denominators clamped away from zero.
    """
    if a.data.shape != (3, 3):
        raise ShapeError(f"svd3: shape {a.data.shape}, expected (3, 3)")
    if not np.all(np.isfinite(a.data)):
        raise NonFiniteError("svd3: input has non-finite entries")
    ud, sd, vd = _svd3_forward(a.data)

    def backward(gu, gs, gv):
        _accumulate(a, _svd3_backward(ud, sd, vd, gu, gs, gv))

    return Svd3(*_emit_multi((ud, sd, vd), (a,), backward))


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


def grad_check(f, params: list[Tensor], step: float = 1e-5) -> float:
    """Max relative error between analytic gradients of ``f()`` and central FD.

    ``f`` must rebuild its computation from ``params`` on every call and
    return a scalar Tensor. Relative error per entry is
    ``|analytic - fd| / (|analytic| + |fd| + 1e-8)``.
    """
    if step <= 0.0:
        raise ValueError("grad_check: step must be positive")
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        out = f()
        if out.data.size != 1:
            raise ShapeError(f"grad_check: f returned shape {out.data.shape}, expected a scalar")
        tape.backward(out)

    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            f_plus = f().item()
            flat[i] = saved - step
            f_minus = f().item()
            flat[i] = saved
            fd = (f_plus - f_minus) / (2.0 * step)
            err = abs(aflat[i] - fd) / (abs(aflat[i]) + abs(fd) + 1e-8)
            worst = max(worst, err)
    return worst
