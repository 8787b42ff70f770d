"""The primitive compositions that the fused ops replace.

Each function builds, from one tape node per primitive, what one fused op
in ``rigiddock.autodiff`` computes in a single node. Tests compare the two
for values and gradients.
"""

import numpy as np

from rigiddock import autodiff as ad


def message_pass(phi_e, phi_x, Z, H, X0, edge_feats, neighbors, slope, sigma, eta,
                 shift_scale):
    """``ad.message_pass`` from gathers, an ``mlp`` on concatenated edges and scatters."""
    n, k = neighbors.shape
    src = neighbors.reshape(-1)
    dst = np.repeat(np.arange(n), k)
    diff = ad.sub(ad.take_columns(Z, dst), ad.take_columns(Z, src))
    sqd = ad.reduce_sum(ad.mul(diff, diff), axis=0, keepdims=True)
    radial = ad.exp(ad.scale(sqd, -1.0 / sigma))
    edge_in = ad.concat([ad.take_columns(H, dst), ad.take_columns(H, src), radial,
                         ad.constant(edge_feats)], axis=0)
    m_edge = ad.mlp(*phi_e, edge_in, slope)
    m_node = ad.scale(ad.segment_sum_columns(m_edge, dst, n), 1.0 / k)
    gate = ad.mlp(*phi_x, m_edge, slope)
    shift = ad.scale(ad.segment_sum_columns(ad.mul(diff, gate), dst, n), shift_scale)
    z_new = ad.add(ad.add(ad.scale(X0, eta), ad.scale(Z, 1.0 - eta)), shift)
    return m_node, z_new


def node_update(W0, b0, W1, b1, H, context, beta, slope):
    """``ad.node_update`` as concat, ``mlp``, the residual mix and ``layer_norm``."""
    h_mix = ad.mlp(W0, b0, W1, b1, ad.concat([H, *context], axis=0), slope)
    h_new = ad.add(ad.scale(H, 1.0 - beta), ad.scale(h_mix, beta))
    return ad.layer_norm(h_new, axis=0)


def keypoint_attention(W, b, w_prime, Z, H, H_other, heads, slope):
    """``ad.keypoint_attention`` from linear, LeakyReLU, mean, softmax and matmuls."""
    d = H.data.shape[0]
    summary = ad.reduce_mean(ad.leaky_relu(ad.linear(W, H_other, b), slope),
                             axis=1, keepdims=True)
    per_head = ad.reshape(ad.matmul(w_prime, summary), (heads, d))
    logits = ad.scale(ad.matmul(per_head, H), 1.0 / np.sqrt(d))
    attention = ad.softmax(logits, axis=1)
    return ad.matmul(Z, ad.transpose(attention)), attention


def surface_field(points, cloud, sigma):
    """The soft-min G of ``ad.soft_min`` per column of points, as a shifted log-sum-exp."""
    sqd = ad.pairwise_sqdist(points, cloud)
    scaled = ad.scale(sqd, -1.0 / sigma)
    shift = ad.constant(scaled.data.max(axis=1, keepdims=True))
    lse = ad.add(shift, ad.log(ad.reduce_sum(ad.exp(ad.sub(scaled, shift)), axis=1, keepdims=True)))
    return ad.scale(lse, -sigma)


def surface_penetration(points, cloud, gamma, sigma):
    """``ad.surface_penetration`` as ``surface_field``, ``sub``, ``relu`` and ``reduce_mean``."""
    depth = ad.relu(ad.sub(ad.constant(np.array(gamma)), surface_field(points, cloud, sigma)))
    return ad.reduce_mean(depth)
