"""Rigid protein-protein docking from backbone geometry.

The package predicts a proper rigid motion placing a ligand protein
against a receptor protein using an equivariant graph matching network,
attention keypoints, and a closed-form point-cloud alignment, all built
on an in-package reverse-mode autodiff engine.
"""

from .docking import DegenerateKeypointsError, dock_forward, kabsch, predict_dock
from .geometry import RigidTransform
from .graphs import ProteinGraph, build_graph
from .losses import NoContactError, intersection_loss, ot_pocket_loss, pocket_points
from .metrics import complex_rmsd, interface_rmsd, kabsch_align, ligand_rmsd, rmsd
from .model import DockingModel, ModelConfig
from .pdbio import PdbParseError, ResidueSet, parse_pdb, parse_pdb_file
from .synthetic import DockingPair, generate_dataset, load_pair, load_split
from .training import TrainConfig, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "DegenerateKeypointsError", "RigidTransform", "dock_forward", "kabsch",
    "predict_dock", "ProteinGraph", "build_graph", "NoContactError",
    "intersection_loss", "ot_pocket_loss", "pocket_points", "complex_rmsd",
    "interface_rmsd", "kabsch_align", "ligand_rmsd", "rmsd", "DockingModel",
    "ModelConfig", "PdbParseError", "ResidueSet", "parse_pdb", "parse_pdb_file",
    "DockingPair", "generate_dataset", "load_pair", "load_split",
    "TrainConfig", "evaluate", "train", "__version__",
]
