"""Graph matching network over protein pairs, equivariant by construction.

Each layer has its own parameters. It passes messages along the frozen
k-NN edges of both proteins, exchanges feature-only attention messages
across the pair, moves coordinates by the sum of their in-edges'
difference vectors scaled by learned gates, and layer-normalizes the
updated features. The network has this one shape; its config sets only
sizes and scalar weights. Feature channels see only rigid-motion-invariant
quantities (initial features, distances, latent embeddings), so arbitrary
independent rigid motions of the two inputs carry through to the
coordinate outputs and leave the feature outputs untouched.

Parameters live in a flat name -> Tensor mapping whose keys
(``iegmn.layer{l}.*``, ``embed.*``, ``keypoints.*``) are the checkpoint
interface.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import tiles
from .graphs import EDGE_FEATURE_DIM, ProteinGraph
from .pdbio import RESIDUE_TYPES

SURFACE_FEATURES = 5

# Variant switches that checkpoints of earlier versions store, each with the
# one value the network now always has.
_RETIRED = {"share_layers": False, "normalize_h": True, "mean_coord_update": False}


@dataclass
class ModelConfig:
    hidden_dim: int = 32
    layers: int = 5
    heads: int = 50
    neighbors: int = 10
    leaky_slope: float = 0.01
    eta: float = 0.25           # weight pulling coordinates back to the input
    beta: float = 0.5           # mixing weight of the feature update
    sigma_msg: float = 30.0     # squared-distance scale inside edge messages

    def __post_init__(self):
        for name in ("hidden_dim", "layers", "heads", "neighbors"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not (0.0 <= self.eta <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError("eta and beta must lie in [0, 1]")
        if not (math.isfinite(self.sigma_msg) and self.sigma_msg > 0.0):
            raise ValueError(f"sigma_msg must be finite and > 0, got {self.sigma_msg!r}")
        if not math.isfinite(self.leaky_slope):
            raise ValueError(f"leaky_slope must be finite, got {self.leaky_slope!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config ``to_dict`` wrote, also from checkpoints of earlier versions.

        Those carry the retired variant switches of ``_RETIRED``; each is
        dropped when it holds the one value the network now has, and any
        other value raises ``ValueError`` naming the key.
        """
        d = dict(d)
        for key, built_in in _RETIRED.items():
            if key in d and (value := d.pop(key)) is not built_in:
                raise ValueError(f"{key} is retired and accepts only {built_in}, got {value!r}")
        return cls(**d)


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


class DockingModel:
    """Learnable network mapping a protein pair to matched point clouds."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, ad.Tensor] = {}
        rng = np.random.default_rng(seed)
        d = config.hidden_dim
        feat = d + SURFACE_FEATURES

        self._param(rng, "embed.table", d, len(RESIDUE_TYPES))
        self._param(rng, "embed.project.W", d, feat)
        self._zero("embed.project.b", d, 1)

        for l in range(config.layers):
            p = f"iegmn.layer{l}."
            self._param(rng, p + "phi_e.lin0.W", d, 2 * d + 1 + EDGE_FEATURE_DIM)
            self._zero(p + "phi_e.lin0.b", d, 1)
            self._param(rng, p + "phi_e.lin1.W", d, d)
            self._zero(p + "phi_e.lin1.b", d, 1)
            self._param(rng, p + "phi_x.lin0.W", d, d)
            self._zero(p + "phi_x.lin0.b", d, 1)
            # zero-initialized gate: the network starts coordinate-preserving
            self._zero(p + "phi_x.lin1.W", 1, d)
            self._zero(p + "phi_x.lin1.b", 1, 1)
            self._param(rng, p + "phi_h.lin0.W", d, 3 * d + feat)
            self._zero(p + "phi_h.lin0.b", d, 1)
            self._param(rng, p + "phi_h.lin1.W", d, d)
            self._zero(p + "phi_h.lin1.b", d, 1)
            self._param(rng, p + "cross.W", d, d)
            self._param(rng, p + "att_q.W", d, d)
            self._zero(p + "att_q.b", d, 1)
            self._param(rng, p + "att_k.W", d, d)
            self._zero(p + "att_k.b", d, 1)

        self._param(rng, "keypoints.phi.W", d, d)
        self._zero("keypoints.phi.b", d, 1)
        self._param(rng, "keypoints.w_prime", config.heads * d, d)

    def _param(self, rng, name: str, rows: int, cols: int) -> None:
        self.params[name] = ad.parameter(_glorot(rng, rows, cols))

    def _zero(self, name: str, rows: int, cols: int) -> None:
        self.params[name] = ad.parameter(np.zeros((rows, cols)))

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
        cfg = self.config
        Z, H, X0, F = state
        Z_other, H_other = other[:2]
        m_node, z_new = ad.message_pass(
            self._mlp_params(prefix + "phi_e"), self._mlp_params(prefix + "phi_x"),
            Z, H, X0, g.edge_feats, g.neighbors, cfg.leaky_slope, cfg.sigma_msg, cfg.eta, 1.0)
        mu = self._cross_messages(prefix, H, H_other, Z_other)
        h_new = ad.node_update(*self._mlp_params(prefix + "phi_h"), H, [m_node, mu, F],
                               cfg.beta, cfg.leaky_slope)
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
                                     self.config.heads, self.config.leaky_slope)

    # -- serialization -----------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(arrays)
        extra = set(arrays) - set(self.params)
        if missing or extra:
            raise ValueError(f"parameter name mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}")
        for name, value in arrays.items():
            current = self.params[name]
            if current.data.shape != value.shape:
                raise ValueError(f"{name}: shape {value.shape}, expected {current.data.shape}")
            current.data = np.asarray(value, dtype=np.float64, order="C").copy()
