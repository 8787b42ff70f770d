"""Graph matching network over protein pairs, equivariant by construction.

Each layer has its own parameters. It passes messages along the frozen
k-NN edges of both proteins, exchanges feature-only attention messages
across the pair, moves coordinates by the sum of their in-edges'
difference vectors scaled by learned gates, and layer-normalizes the
updated features. The network has this one shape; its config sets only
sizes, and its scalar weights are the module constants ``LEAKY_SLOPE``,
``ETA``, ``BETA`` and ``SIGMA_MSG``. Feature channels see only
rigid-motion-invariant quantities (initial features, distances, latent
embeddings), so arbitrary independent rigid motions of the two inputs
carry through to the coordinate outputs and leave the feature outputs
untouched.

Parameters live in a flat name -> Tensor mapping whose keys
(``iegmn.layer{l}.*``, ``embed.*``, ``keypoints.*``) are the checkpoint
interface. ``parameter_table`` lists each one's name, shape and init once;
the model is built from it and checkpoints are checked against it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import tiles
from .graphs import DEFAULT_K, EDGE_FEATURE_DIM, ProteinGraph
from .pdbio import RESIDUE_TYPES

SURFACE_FEATURES = 5

LEAKY_SLOPE = 0.01
ETA = 0.25          # weight pulling coordinates back to the input
BETA = 0.5          # mixing weight of the feature update
SIGMA_MSG = 30.0    # squared-distance scale inside edge messages

# Config keys that checkpoints of earlier versions store, each with the one
# value the network now always has.
_RETIRED = {"share_layers": False, "normalize_h": True, "mean_coord_update": False,
            "leaky_slope": LEAKY_SLOPE, "eta": ETA, "beta": BETA, "sigma_msg": SIGMA_MSG}


@dataclass
class ModelConfig:
    hidden_dim: int = 32
    layers: int = 5
    heads: int = 50
    neighbors: int = DEFAULT_K

    def __post_init__(self):
        # a rigid fit needs three keypoints, one from each head
        for name, least in (("hidden_dim", 1), ("layers", 1), ("heads", 3), ("neighbors", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config ``to_dict`` wrote, also from checkpoints of earlier versions.

        Those carry the ``_RETIRED`` keys (three variant switches and four
        scalar weights that are now module constants): see ``drop_retired_keys``.
        """
        return cls(**drop_retired_keys(d, _RETIRED))


def drop_retired_keys(d: dict, retired: dict) -> dict:
    """``d`` without the keys of ``retired``, the one rule for retired config keys.

    A key is dropped when it holds its value in ``retired`` with the same type
    (so a bool or an int never stands for a float); any other value raises
    ``ValueError`` naming the key.
    """
    d = dict(d)
    for key, built_in in retired.items():
        if key in d:
            value = d.pop(key)
            if type(value) is not type(built_in) or value != built_in:
                raise ValueError(f"{key} must be {built_in!r} if given, since {key} is "
                                 f"retired; got {value!r}")
    return d


def parameter_table(config: ModelConfig):
    """Every parameter as ``(name, shape, glorot)``, in creation and draw order.

    A Glorot-uniform row draws from the init generator in this order; a zero
    row draws nothing. Rows are yielded one at a time, so a walk that stops
    at the first mismatch costs no more than the rows it saw, whatever sizes
    the config asks for.
    """
    d = config.hidden_dim
    feat = d + SURFACE_FEATURES
    yield "embed.table", (d, len(RESIDUE_TYPES)), True
    yield "embed.project.W", (d, feat), True
    yield "embed.project.b", (d, 1), False
    for l in range(config.layers):
        p = f"iegmn.layer{l}."
        yield p + "phi_e.lin0.W", (d, 2 * d + 1 + EDGE_FEATURE_DIM), True
        yield p + "phi_e.lin0.b", (d, 1), False
        yield p + "phi_e.lin1.W", (d, d), True
        yield p + "phi_e.lin1.b", (d, 1), False
        yield p + "phi_x.lin0.W", (d, d), True
        yield p + "phi_x.lin0.b", (d, 1), False
        # zero-initialized gate: the network starts coordinate-preserving
        yield p + "phi_x.lin1.W", (1, d), False
        yield p + "phi_x.lin1.b", (1, 1), False
        yield p + "phi_h.lin0.W", (d, 3 * d + feat), True
        yield p + "phi_h.lin0.b", (d, 1), False
        yield p + "phi_h.lin1.W", (d, d), True
        yield p + "phi_h.lin1.b", (d, 1), False
        yield p + "cross.W", (d, d), True
        yield p + "att_q.W", (d, d), True
        yield p + "att_q.b", (d, 1), False
        yield p + "att_k.W", (d, d), True
        yield p + "att_k.b", (d, 1), False
    yield "keypoints.phi.W", (d, d), True
    yield "keypoints.phi.b", (d, 1), False
    yield "keypoints.w_prime", (config.heads * d, d), True


def check_state_arrays(config: ModelConfig, arrays: dict[str, np.ndarray]) -> None:
    """Raise ``ValueError`` unless ``arrays`` holds exactly the parameters of ``config``.

    Names and shapes are compared with ``parameter_table`` row by row, and
    the first missing or misshaped tensor raises, so nothing of the config's
    sizes is allocated or walked past the arrays at hand.
    """
    seen = set()
    for name, shape, _ in parameter_table(config):
        if name not in arrays:
            raise ValueError(f"parameter name mismatch: missing {name!r}")
        if arrays[name].shape != shape:
            raise ValueError(f"{name}: shape {arrays[name].shape}, expected {shape}")
        seen.add(name)
    extra = set(arrays) - seen
    if extra:
        raise ValueError(f"parameter name mismatch: unexpected {sorted(extra)}")


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


class DockingModel:
    """Learnable network mapping a protein pair to matched point clouds."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.params: dict[str, ad.Tensor] = {
            name: ad.parameter(_glorot(rng, *shape) if glorot else np.zeros(shape))
            for name, shape, glorot in parameter_table(config)}

    # -- building blocks ---------------------------------------------------

    def _linear(self, prefix: str, x: ad.Tensor) -> ad.Tensor:
        return ad.linear(self.params[prefix + ".W"], x, self.params[prefix + ".b"])

    def _mlp_params(self, prefix: str) -> tuple[ad.Tensor, ...]:
        p = self.params
        return (p[prefix + ".lin0.W"], p[prefix + ".lin0.b"],
                p[prefix + ".lin1.W"], p[prefix + ".lin1.b"])

    def _node_features(self, g: ProteinGraph) -> ad.Tensor:
        emb = ad.take_columns(self.params["embed.table"], g.types)
        return ad.concat([emb, ad.constant(g.rho.T)], axis=0)

    def _initial_state(self, g: ProteinGraph, X: np.ndarray | None):
        coords = g.X if X is None else np.asarray(X, dtype=np.float64)
        if coords.shape != g.X.shape:
            raise ad.ShapeError(f"coordinate override shape {coords.shape}, expected {g.X.shape}")
        feats = self._node_features(g)
        h0 = self._linear("embed.project", feats)
        return ad.constant(coords), h0, feats

    def _cross_values(self, prefix: str, H_other: ad.Tensor, Z_other: ad.Tensor) -> ad.Tensor:
        """Per-node message content taken from the other graph.

        Coordinates are accepted and deliberately ignored: cross-graph
        traffic must stay rigid-motion-invariant. Tests monkeypatch this to
        confirm the equivariance checks catch a coordinate leak.
        """
        del Z_other
        return ad.matmul(self.params[prefix + "cross.W"], H_other)

    def _cross_messages(self, prefix: str, H_to: ad.Tensor, H_from: ad.Tensor,
                        Z_from: ad.Tensor) -> ad.Tensor:
        q = self._linear(prefix + "att_q", H_to)
        k = self._linear(prefix + "att_k", H_from)
        return ad.cross_attention(q, k, self._cross_values(prefix, H_from, Z_from))

    def _layer(self, l: int, state1, state2, g1: ProteinGraph, g2: ProteinGraph):
        """Both proteins' halves of layer l, in ligand, receptor order.

        Each half reads only the layer's input states, so tape-free halves
        go through ``tiles.branches``, the ligand's on this thread and the
        receptor's on the pool thread when the n1 x n2 logits span more than
        one tile. Under a tape they run in order here: tapes are
        thread-local, so a half on the pool thread would record nothing.
        """
        prefix = f"iegmn.layer{l}."

        def ligand():
            return self._half_layer(prefix, state1, g1, state2)

        def receptor():
            return self._half_layer(prefix, state2, g2, state1)

        if ad.recording():
            return ligand(), receptor()
        return tiles.branches(ligand, receptor,
                              tiles.spans(g1.n_nodes, tiles.tile_rows(g2.n_nodes)))

    def _half_layer(self, prefix: str, state, g: ProteinGraph, other):
        """One protein's new state: its message pass, cross messages and node update."""
        Z, H, X0, F = state
        Z_other, H_other = other[:2]
        m_node, z_new = ad.message_pass(
            self._mlp_params(prefix + "phi_e"), self._mlp_params(prefix + "phi_x"),
            Z, H, X0, g.edge_feats, g.neighbors, LEAKY_SLOPE, SIGMA_MSG, ETA, 1.0)
        mu = self._cross_messages(prefix, H, H_other, Z_other)
        h_new = ad.node_update(*self._mlp_params(prefix + "phi_h"), H, [m_node, mu, F],
                               BETA, LEAKY_SLOPE)
        return z_new, h_new, X0, F

    def forward(self, g1: ProteinGraph, g2: ProteinGraph,
                X1: np.ndarray | None = None, X2: np.ndarray | None = None):
        """Run all layers; returns coordinate and feature embeddings (Z1, H1, Z2, H2).

        X1/X2 optionally replace the stored coordinates (the graphs' edge
        features are rigid-motion-invariant, so any rigidly moved copy of
        the same protein reuses its graph).
        """
        Z1, H1, F1 = self._initial_state(g1, X1)
        Z2, H2, F2 = self._initial_state(g2, X2)
        state1 = (Z1, H1, Z1, F1)
        state2 = (Z2, H2, Z2, F2)
        for l in range(self.config.layers):
            state1, state2 = self._layer(l, state1, state2, g1, g2)
        return state1[0], state1[1], state2[0], state2[1]

    def keypoints(self, Z: ad.Tensor, H: ad.Tensor, H_other: ad.Tensor):
        """K attention-weighted points (3 x K) plus the attention rows (K x n).

        Rows are convex weights over this protein's nodes; the query vector
        summarizing the other protein is the column mean of a shared linear
        map plus LeakyReLU.
        """
        p = self.params
        return ad.keypoint_attention(p["keypoints.phi.W"], p["keypoints.phi.b"],
                                     p["keypoints.w_prime"], Z, H, H_other,
                                     self.config.heads, LEAKY_SLOPE)

    # -- serialization -----------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy ``arrays`` (checked by ``check_state_arrays``) into the parameters.

        The values are written into each parameter's data in place, so an
        optimizer that already holds the data as views of its flat buffer
        (``training.Adam``) goes on driving the loaded model.
        """
        check_state_arrays(self.config, arrays)
        for name, value in arrays.items():
            np.copyto(self.params[name].data, value)
