"""Command-line interface.

Subcommands: dock, train, eval, gen-synthetic, features, check-equivariance.
Exit codes: 0 success, 1 usage or configuration error, 2 input parse
failure, 3 numerical or degenerate failure. Output files are written to a
temporary sibling and renamed, so failures never leave partial files.
The RIGIDDOCK_LOG_LEVEL environment variable (DEBUG/INFO/WARNING/ERROR)
controls logging; there is no verbosity flag. A command runs numpy's
bundled OpenBLAS on one thread, since the tile runner already keeps two
cores busy: ``tiles.run`` with forward tiles, and ``tiles.branches`` with
one protein each when ``dock`` and ``eval`` featurize and dock a pair
larger than one tile.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .autodiff import NonFiniteError
from .checkpoint import CheckpointError, load_named_tensors
from .checks import (check_complex_invariance, check_pairwise_equivariance,
                     check_role_swap, check_transform_covariance)
from .docking import DegenerateKeypointsError, predict_dock
from .graphs import DEFAULT_K, build_graph, build_graph_pair
from .model import DockingModel, ModelConfig, check_state_arrays, drop_retired_keys
from .pdbio import (PdbFormatError, PdbParseError, format_ca_pdb, parse_pdb, parse_pdb_file,
                    read_pdb_text, transform_atom_records)
from .synthetic import (DatasetError, GenerationError, generate_dataset, generate_pair,
                        load_split)
from .training import RETIRED_KEYS, TrainConfig, evaluate, train, write_eval_csv

logger = logging.getLogger("rigiddock.cli")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3

_EQUIVARIANCE_LIMIT = 1e-5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage failures exit with code 1, not 2."""

    def error(self, message):
        raise _UsageError(message)


def _chain_set(arg: str | None):
    if arg is None:
        return None
    return {c.strip() for c in arg.split(",") if c.strip()}


def _load_model(path: str) -> DockingModel:
    tensors, extra = load_named_tensors(path)
    if not isinstance(extra, dict) or "config" not in extra:
        raise CheckpointError(f"{path}: missing model configuration")
    if not isinstance(extra["config"], dict):
        raise CheckpointError(f"{path}: model configuration is not a JSON object")
    try:
        config = ModelConfig.from_dict(extra["config"])
        # checked before any model exists, so the header's sizes allocate
        # nothing unless the file's own tensors have them
        check_state_arrays(config, tensors)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: checkpoint does not fit its configuration: {exc}") from None
    model = DockingModel(config, seed=0)
    model.load_state_arrays(tensors)
    return model


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_dock(args) -> int:
    ligand_text = read_pdb_text(args.ligand)
    ligand = parse_pdb(ligand_text, _chain_set(args.chains_ligand))
    receptor = parse_pdb_file(args.receptor, _chain_set(args.chains_receptor))
    model = _load_model(args.model)
    g_lig, g_rec = build_graph_pair(ligand, receptor, model.config.neighbors)
    tr = predict_dock(model, g_lig, g_rec)
    if args.out_pdb:
        if args.copy_full_atoms:
            moved = transform_atom_records(ligand_text, tr.R, tr.t)
        else:
            moved = format_ca_pdb(ligand.transformed(tr.R, tr.t))
        with atomic_open(args.out_pdb, "w") as fh:
            fh.write(moved)
    if args.out_transform:
        with atomic_open(args.out_transform, "w") as fh:
            fh.write(tr.to_json() + "\n")
    logger.info("docked %s onto %s", args.ligand, args.receptor)
    return EXIT_OK


def _train_config(args) -> TrainConfig:
    """CLI flags beat the config file, which beats the defaults."""
    base = TrainConfig.fine_tune() if args.fine_tune else TrainConfig()
    values = base.__dict__.copy()
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except json.JSONDecodeError as exc:  # an input error, exit 2
            raise json.JSONDecodeError(f"{args.config}: {exc.msg}", exc.doc, exc.pos) from None
        except UnicodeDecodeError as exc:  # a usage error, exit 1
            raise _UsageError(f"{args.config}: {exc}") from None
        if not isinstance(file_values, dict):
            raise _UsageError(f"{args.config}: expected a JSON object of training settings")
        file_values = drop_retired_keys(file_values, RETIRED_KEYS)
        unknown = set(file_values) - set(values)
        if unknown:
            raise _UsageError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)
    for flag in ("lr", "max_epochs", "patience", "seed"):
        override = getattr(args, flag)
        if override is not None:
            values[flag] = override
    return TrainConfig(**values)


def _cmd_train(args) -> int:
    config = _train_config(args)  # settings are refused before any data is read
    if args.init_model:
        model = _load_model(args.init_model)
    else:
        model = DockingModel(
            ModelConfig(hidden_dim=args.hidden_dim, layers=args.layers, heads=args.heads),
            seed=config.seed)
    train_pairs = load_split(args.data, "train")
    val_pairs = load_split(args.data, "val")
    result = train(model, train_pairs, val_pairs, config,
                   checkpoint_path=args.out_model, loss_csv_path=args.loss_csv)
    print(f"epochs {result.epochs_run}, steps {result.steps}, "
          f"best validation RMSD {result.best_val:.4f}")
    if result.skipped_pairs:
        print(f"skipped (no contacts): {', '.join(result.skipped_pairs)}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = _load_model(args.model)
    pairs = load_split(args.data, args.split)
    report = evaluate(model, pairs, seed=args.seed)
    if args.out_csv:
        write_eval_csv(report, args.out_csv)
    for key, value in sorted(report.summary().items()):
        print(f"{key}: {value:.4f}")
    return EXIT_OK


def _cmd_gen_synthetic(args) -> int:
    ids = generate_dataset(args.out, args.pairs, seed=args.seed,
                           val_fraction=args.val_fraction,
                           test_fraction=args.test_fraction,
                           min_residues=args.min_residues,
                           max_residues=args.max_residues)
    print(f"wrote {len(ids)} pairs under {args.out}")
    return EXIT_OK


def _cmd_features(args) -> int:
    residues = parse_pdb_file(args.input, _chain_set(args.chains))
    graph = build_graph(residues, args.neighbors)
    payload = {
        "nodes": [
            {
                "index": i,
                "type": int(graph.types[i]),
                "x": graph.X[:, i].tolist(),
                "rho": graph.rho[i].tolist(),
            }
            for i in range(graph.n_nodes)
        ],
        "edges": [
            {"src": int(src), "dst": int(dst), "f": feats.tolist()}
            for src, dst, feats in zip(graph.src, graph.dst, graph.edge_feats.T)
        ],
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with atomic_open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_check_equivariance(args) -> int:
    if args.model:
        model = _load_model(args.model)
    else:
        model = DockingModel(ModelConfig(hidden_dim=16, layers=3, heads=8), seed=args.seed)
    rng = np.random.default_rng(args.seed)
    pair = generate_pair(rng, "check", 20, 30)
    g1, g2 = build_graph_pair(pair.ligand, pair.receptor, model.config.neighbors)
    checks = {
        "pairwise equivariance": check_pairwise_equivariance(model, g1, g2, seed=args.seed,
                                                             trials=args.trials),
        "transform covariance": check_transform_covariance(model, g1, g2, seed=args.seed,
                                                           trials=args.trials),
        "complex invariance": check_complex_invariance(model, g1, g2, seed=args.seed,
                                                       trials=args.trials),
        "role-swap consistency": check_role_swap(model, g1, g2),
    }
    failed = False
    for name, deviation in checks.items():
        status = "ok" if deviation <= _EQUIVARIANCE_LIMIT else "FAIL"
        print(f"{name}: max deviation {deviation:.3e} [{status}]")
        failed = failed or deviation > _EQUIVARIANCE_LIMIT
    return EXIT_NUMERICAL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="rigiddock",
                     description="Rigid protein-protein docking from backbone geometry.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("dock", help="predict a rigid motion docking a ligand onto a receptor")
    p.add_argument("--ligand", required=True)
    p.add_argument("--receptor", required=True)
    p.add_argument("--model", required=True, help="trained checkpoint")
    p.add_argument("--out-pdb", help="write the moved ligand here")
    p.add_argument("--out-transform", help="write the rigid motion JSON here")
    p.add_argument("--chains-ligand", help="comma-separated chain IDs to keep")
    p.add_argument("--chains-receptor", help="comma-separated chain IDs to keep")
    p.add_argument("--copy-full-atoms", action="store_true",
                   help="move every original ligand atom instead of writing CA only")
    p.set_defaults(func=_cmd_dock)

    p = sub.add_parser("train", help="train a model on a generated dataset directory")
    p.add_argument("--data", required=True, help="dataset root with pairs/ and splits.json")
    p.add_argument("--out-model", required=True)
    p.add_argument("--loss-csv", help="per-step loss breakdown")
    p.add_argument("--config", help="JSON file of training settings")
    p.add_argument("--init-model", help="start from this checkpoint instead of fresh weights")
    p.add_argument("--fine-tune", action="store_true",
                   help="use the low-rate, long-patience preset")
    p.add_argument("--lr", type=float)
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--patience", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden-dim", type=int, default=ModelConfig.hidden_dim)
    p.add_argument("--layers", type=int, default=ModelConfig.layers)
    p.add_argument("--heads", type=int, default=ModelConfig.heads)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a model on one split of a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out-csv")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic docking dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--val-fraction", type=float, default=0.15)
    p.add_argument("--test-fraction", type=float, default=0.15)
    p.add_argument("--min-residues", type=int, default=30)
    p.add_argument("--max-residues", type=int, default=80)
    p.set_defaults(func=_cmd_gen_synthetic)

    p = sub.add_parser("features", help="dump graph node and edge features as JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="default: stdout")
    p.add_argument("--chains", help="comma-separated chain IDs to keep")
    p.add_argument("--neighbors", type=int, default=DEFAULT_K)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("check-equivariance",
                       help="verify the model's structural guarantees numerically")
    p.add_argument("--model", help="checkpoint to check (default: fresh random weights)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(func=_cmd_check_equivariance)
    return parser


def _openblas_threads():
    """``(get, set)``, the thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            names = (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
            if all(hasattr(lib, name) for name in names):
                return tuple(getattr(lib, name) for name in names)
    return None


@contextlib.contextmanager
def _blas_on_one_thread():
    """Run OpenBLAS on one thread inside the block, then restore its thread count.

    The forward tiles of ``tiles.run`` occupy two cores, and a BLAS that
    threads each product over the same cores competes with them. The count
    is set at run time because numpy, and BLAS with it, is loaded before
    ``main`` runs; a BLAS without these functions is left as it is.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("RIGIDDOCK_LOG_LEVEL", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", None) is not None and args.seed < 0:
            # before any file is read; numpy's own refusal names no setting
            raise _UsageError(f"seed must be an integer >= 0, got {args.seed}")
        with _blas_on_one_thread():
            return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PdbParseError, CheckpointError, DatasetError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DegenerateKeypointsError, GenerationError, NonFiniteError, PdbFormatError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
