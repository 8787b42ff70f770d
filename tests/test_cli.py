"""Command-line interface: pipelines, round trips, exit codes, atomicity."""

import argparse
import builtins
import csv
import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

from rigiddock import cli, synthetic
from rigiddock.atomic import atomic_open
from rigiddock.checkpoint import load_named_tensors, save_named_tensors
from rigiddock.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from rigiddock.geometry import RigidTransform, random_rotation
from rigiddock.metrics import complex_rmsd
from rigiddock.model import DockingModel, ModelConfig
from rigiddock.pdbio import format_ca_pdb, parse_pdb_file, transform_atom_records
from rigiddock.synthetic import DockingPair, generate_pair, write_pair
from rigiddock.training import TrainConfig


def read_ca_records(path):
    """CA coordinates straight from the fixed PDB columns.

    The dock output is CA-only by design, which the strict backbone parser
    refuses, so tests read the raw records instead.
    """
    xyz = []
    for line in open(path):
        if line.startswith("ATOM") and line[12:16].strip() == "CA":
            xyz.append([float(line[30:38]), float(line[38:46]), float(line[46:54])])
    return np.array(xyz).T


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset(workdir):
    root = workdir / "data"
    code = main(["gen-synthetic", "--out", str(root), "--pairs", "6",
                 "--seed", "0", "--min-residues", "30", "--max-residues", "40"])
    assert code == EXIT_OK
    return root


@pytest.fixture(scope="module")
def model_path(workdir):
    """An untrained but fully valid checkpoint."""
    model = DockingModel(ModelConfig(hidden_dim=16, layers=2, heads=8), seed=0)
    path = workdir / "untrained.npz"
    save_named_tensors(str(path), model.state_arrays(),
                       extra={"config": model.config.to_dict()})
    return path


@pytest.fixture(scope="module")
def ligand_pdb(dataset):
    return dataset / "pairs" / "pair0000" / "ligand.pdb"


@pytest.fixture(scope="module")
def receptor_pdb(dataset):
    return dataset / "pairs" / "pair0000" / "receptor.pdb"


class TestPipeline:
    def test_dataset_layout(self, dataset):
        splits = json.loads((dataset / "splits.json").read_text())
        assert sorted(splits) == ["test", "train", "val"]
        assert len(splits["train"]) == 4
        for name in splits["train"] + splits["val"] + splits["test"]:
            for fname in ("ligand.pdb", "receptor.pdb", "complex.json"):
                assert (dataset / "pairs" / name / fname).exists()

    def test_train_then_eval(self, workdir, dataset):
        out_model = workdir / "trained.npz"
        loss_csv = workdir / "loss.csv"
        code = main(["train", "--data", str(dataset), "--out-model", str(out_model),
                     "--loss-csv", str(loss_csv), "--hidden-dim", "16", "--layers", "2",
                     "--heads", "8", "--lr", "2e-3", "--max-epochs", "8", "--seed", "0"])
        assert code == EXIT_OK
        assert out_model.exists()
        with open(loss_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"step", "mse", "ot", "intersection", "total"}
        totals = [float(r["total"]) for r in rows]
        assert np.mean(totals[-8:]) < np.mean(totals[:8])

        out_csv = workdir / "eval.csv"
        code = main(["eval", "--data", str(dataset), "--model", str(out_model),
                     "--split", "test", "--out-csv", str(out_csv), "--seed", "1"])
        assert code == EXIT_OK
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "pair_id,crmsd,irmsd,status"
        assert len(lines) > 1

    def test_eval_scores_no_contact_pair(self, workdir, model_path, capsys):
        root = workdir / "nocontact"
        rng = np.random.default_rng(4)
        good, far = (generate_pair(rng, pid, 30, 40) for pid in ("good", "far"))
        # Moving the bound pose 5000 A away leaves the complex without contacts.
        far = DockingPair("far", far.ligand, far.receptor,
                          RigidTransform(far.truth.R, far.truth.t + [5000.0, 0.0, 0.0]))
        for pair in (good, far):
            write_pair(pair, str(root))
        (root / "splits.json").write_text(json.dumps(
            {"train": [], "val": [], "test": ["good", "far"]}))
        out_csv = workdir / "nocontact.csv"
        code = main(["eval", "--data", str(root), "--model", str(model_path),
                     "--split", "test", "--out-csv", str(out_csv)])
        assert code == EXIT_OK
        rows = {r["pair_id"]: r for r in csv.DictReader(out_csv.read_text().splitlines())}
        assert rows["far"]["status"] == "no_contact" and rows["far"]["irmsd"] == "nan"
        assert rows["good"]["status"] == "ok"
        assert float(rows["irmsd_median"]["crmsd"]) == pytest.approx(
            float(rows["good"]["irmsd"]), abs=1e-6)
        assert "irmsd_median: nan" not in capsys.readouterr().out

    def test_train_config_file_with_cli_override(self, workdir, dataset, capsys):
        cfg = workdir / "train.json"
        cfg.write_text(json.dumps({"lr": 1e-3, "max_epochs": 99}))
        out_model = workdir / "cfgrun.npz"
        code = main(["train", "--data", str(dataset), "--out-model", str(out_model),
                     "--config", str(cfg), "--max-epochs", "1",
                     "--hidden-dim", "16", "--layers", "2", "--heads", "8"])
        assert code == EXIT_OK
        assert "epochs 1," in capsys.readouterr().out

    @pytest.mark.parametrize("file_values, flags, expected", [
        (None, [], {"lr": 1e-4, "patience": 150}),
        ({"lr": 5e-4}, [], {"lr": 5e-4, "patience": 150}),
        ({"lr": 5e-4, "patience": 7}, ["--lr", "2e-3", "--patience", "3"],
         {"lr": 2e-3, "patience": 3}),
    ], ids=["preset", "file-beats-preset", "flags-beat-file"])
    def test_fine_tune_precedence(self, tmp_path, file_values, flags, expected):
        argv = ["train", "--data", "unused", "--out-model", "unused", "--fine-tune"] + flags
        if file_values is not None:
            cfg = tmp_path / "fine.json"
            cfg.write_text(json.dumps(file_values))
            argv += ["--config", str(cfg)]
        config = cli._train_config(cli._build_parser().parse_args(argv))
        assert config == TrainConfig(**{**TrainConfig().__dict__, **expected})

    def test_init_model_with_zero_rate_keeps_its_weights(self, workdir, dataset, model_path,
                                                          capsys):
        out_model = workdir / "init-run.npz"
        code = main(["train", "--data", str(dataset), "--out-model", str(out_model),
                     "--init-model", str(model_path), "--lr", "0", "--max-epochs", "1",
                     "--hidden-dim", "24"])
        assert code == EXIT_OK
        assert ", steps 0," not in capsys.readouterr().out   # Adam did step, with lr 0
        (start, start_extra), (end, end_extra) = (load_named_tensors(str(p))
                                                  for p in (model_path, out_model))
        assert list(end) == list(start)
        for name in start:
            assert end[name].tobytes() == start[name].tobytes(), name
        assert end_extra["config"] == start_extra["config"]
        assert end_extra["config"]["hidden_dim"] == 16

    def test_train_rejects_unknown_config_keys(self, workdir, dataset):
        cfg = workdir / "bad.json"
        cfg.write_text(json.dumps({"learning_rate": 1e-3}))
        code = main(["train", "--data", str(dataset), "--out-model",
                     str(workdir / "x.npz"), "--config", str(cfg)])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("key, value", [
        ("max_epochs", "2"), ("patience", 1.5), ("seed", True), ("lr", None),
        ("w_ot", float("nan")),
    ], ids=["string-epochs", "float-patience", "bool-seed", "null-rate", "nan-weight"])
    def test_train_rejects_mistyped_config_values(self, workdir, dataset, key, value, capsys):
        cfg = workdir / "mistyped.json"
        cfg.write_text(json.dumps({"max_epochs": 1, key: value}))
        out_model = workdir / "mistyped.npz"
        code = main(["train", "--data", str(dataset), "--out-model", str(out_model),
                     "--config", str(cfg), "--hidden-dim", "8", "--layers", "1", "--heads", "2"])
        assert code == EXIT_USAGE
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not out_model.exists()

    def test_retired_keys_at_their_built_in_values_train_alike(self, workdir, dataset):
        retired = {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "weight_decay": 0.0,
                   "improvement_factor": 0.98, "translation_scale": 30.0,
                   "w_mse": 1.0, "w_ot": 1.0, "w_ni": 1.0}
        outputs = []
        for tag, file_values in (("plain", {}), ("retired", retired)):
            cfg = workdir / f"{tag}.json"
            cfg.write_text(json.dumps({"lr": 1e-3, "seed": 2, **file_values}))
            out_model, loss_csv = workdir / f"{tag}-run.npz", workdir / f"{tag}-loss.csv"
            argv = ["train", "--data", str(dataset), "--out-model", str(out_model),
                    "--loss-csv", str(loss_csv), "--config", str(cfg), "--max-epochs", "2",
                    "--hidden-dim", "8", "--layers", "1", "--heads", "4"]
            assert main(argv) == EXIT_OK
            # the retired keys are dropped on reading, not kept as settings
            assert vars(cli._train_config(cli._build_parser().parse_args(argv))) == {
                "lr": 1e-3, "max_epochs": 2, "patience": 30, "seed": 2}
            tensors, _ = load_named_tensors(str(out_model))
            outputs.append(([(name, tensors[name].tobytes()) for name in sorted(tensors)],
                            loss_csv.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("key, value", [
        ("beta1", 0.8), ("weight_decay", 0.05), ("w_ot", 2.0), ("w_ni", True),
        ("w_mse", 1),       # an int, not the float the key held
    ])
    def test_train_rejects_retired_keys_off_their_built_in_value(self, workdir, dataset,
                                                                 key, value, capsys):
        cfg = workdir / "retired.json"
        cfg.write_text(json.dumps({"max_epochs": 1, key: value}))
        out_model = workdir / "retired.npz"
        code = main(["train", "--data", str(dataset), "--out-model", str(out_model),
                     "--config", str(cfg), "--hidden-dim", "8", "--layers", "1", "--heads", "4"])
        assert code == EXIT_USAGE
        assert f"{key} is retired" in capsys.readouterr().err
        assert not out_model.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--max-epochs", "0"], "max_epochs must be an integer >= 1"),
        (["--max-epochs", "-3"], "max_epochs must be an integer >= 1"),
        (["--lr=-1e-3"], "lr must be a finite number >= 0"),
        (["--patience", "-4"], "patience must be an integer >= 0, got -4"),
        (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
    ], ids=["zero-epochs", "negative-epochs", "negative-rate", "negative-patience",
            "negative-seed"])
    def test_train_rejects_out_of_range_settings(self, workdir, dataset, flags, message,
                                                 capsys):
        out_model = workdir / "out-of-range.npz"
        code = main(["train", "--data", str(dataset), "--out-model", str(out_model),
                     "--hidden-dim", "8", "--layers", "1", "--heads", "4"] + flags)
        assert code == EXIT_USAGE
        assert f"error: {message}" in capsys.readouterr().err
        assert not out_model.exists()

    @pytest.mark.parametrize("key", ["patience", "seed"])
    def test_train_rejects_negative_config_values(self, workdir, dataset, key, capsys):
        cfg = workdir / f"negative-{key}.json"
        cfg.write_text(json.dumps({"max_epochs": 1, key: -1}))
        out_model = workdir / "negative.npz"
        code = main(["train", "--data", str(dataset), "--out-model", str(out_model),
                     "--config", str(cfg), "--hidden-dim", "8", "--layers", "1", "--heads", "4"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {key} must be an integer >= 0, got -1\n"
        assert not out_model.exists()

    def test_train_config_holds_only_the_flag_settings(self):
        """A setting only a config file could reach would have no flag: there is none."""
        [sub] = [a for a in cli._build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        flags = {"--lr", "--max-epochs", "--patience", "--seed"}
        dests = {a.dest for a in sub.choices["train"]._actions if set(a.option_strings) & flags}
        assert {f.name for f in dataclasses.fields(TrainConfig)} == dests


class TestDock:
    def test_transform_reproduces_pdb(self, workdir, ligand_pdb, receptor_pdb, model_path):
        out_pdb = workdir / "pose.pdb"
        out_json = workdir / "pose.json"
        code = main(["dock", "--ligand", str(ligand_pdb), "--receptor", str(receptor_pdb),
                     "--model", str(model_path), "--out-pdb", str(out_pdb),
                     "--out-transform", str(out_json)])
        assert code == EXIT_OK
        tr = RigidTransform.from_json(out_json.read_text())
        original = parse_pdb_file(str(ligand_pdb))
        written = read_ca_records(out_pdb)
        assert np.max(np.abs(tr.apply(original.ca) - written)) <= 1e-3

    def test_pose_is_rigid(self, workdir, ligand_pdb):
        original = parse_pdb_file(str(ligand_pdb))
        written = read_ca_records(workdir / "pose.pdb")

        def pairwise(ca):
            diff = ca[:, :, None] - ca[:, None, :]
            return np.sqrt(np.sum(diff * diff, axis=0))

        # floor: both endpoints round to 3 decimals, 2 * sqrt(3) * 5e-4
        assert np.max(np.abs(pairwise(original.ca) - pairwise(written))) <= 1.8e-3

    def test_prerotated_input_gives_same_complex(self, workdir, ligand_pdb,
                                                 receptor_pdb, model_path):
        rng = np.random.default_rng(7)
        original = parse_pdb_file(str(ligand_pdb))
        receptor = parse_pdb_file(str(receptor_pdb)).ca
        out_a = workdir / "pose_a.pdb"
        code = main(["dock", "--ligand", str(ligand_pdb), "--receptor", str(receptor_pdb),
                     "--model", str(model_path), "--out-pdb", str(out_a)])
        assert code == EXIT_OK
        pose_a = read_ca_records(out_a)

        # an axis-permutation rotation keeps the moved file exact in PDB
        # precision, so the only deviation is the pipeline's own arithmetic
        perm = np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]])
        exact = original.transformed(perm, np.array([4.25, -7.5, 11.125]))
        exact_pdb = workdir / "ligand_exact.pdb"
        exact_pdb.write_text(format_ca_pdb(exact, full_backbone=True))
        out_b = workdir / "pose_b.pdb"
        code = main(["dock", "--ligand", str(exact_pdb), "--receptor", str(receptor_pdb),
                     "--model", str(model_path), "--out-pdb", str(out_b)])
        assert code == EXIT_OK
        assert complex_rmsd(read_ca_records(out_b), pose_a, receptor) <= 1e-3

        # a generic rotation additionally quantizes the input coordinates to
        # 3 decimals, which the network amplifies; the complex must still agree
        moved = original.transformed(random_rotation(rng), rng.uniform(-20, 20, size=3))
        moved_pdb = workdir / "ligand_moved.pdb"
        moved_pdb.write_text(format_ca_pdb(moved, full_backbone=True))
        out_c = workdir / "pose_c.pdb"
        code = main(["dock", "--ligand", str(moved_pdb), "--receptor", str(receptor_pdb),
                     "--model", str(model_path), "--out-pdb", str(out_c)])
        assert code == EXIT_OK
        assert complex_rmsd(read_ca_records(out_c), pose_a, receptor) <= 0.05

    def test_repeat_runs_are_byte_identical(self, workdir, ligand_pdb,
                                            receptor_pdb, model_path):
        outs = []
        for tag in ("r1", "r2"):
            out_pdb = workdir / f"det_{tag}.pdb"
            out_json = workdir / f"det_{tag}.json"
            code = main(["dock", "--ligand", str(ligand_pdb), "--receptor",
                         str(receptor_pdb), "--model", str(model_path),
                         "--out-pdb", str(out_pdb), "--out-transform", str(out_json)])
            assert code == EXIT_OK
            outs.append((out_pdb.read_bytes(), out_json.read_bytes()))
        assert outs[0] == outs[1]

    def test_gen_synthetic_byte_determinism(self, workdir):
        roots = []
        for tag in ("g1", "g2"):
            root = workdir / tag
            code = main(["gen-synthetic", "--out", str(root), "--pairs", "2",
                         "--seed", "3", "--min-residues", "30", "--max-residues", "35"])
            assert code == EXIT_OK
            roots.append(root)
        a, b = roots
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert files
        for rel in files:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_full_atom_copy_preserves_backbone(self, workdir, ligand_pdb,
                                               receptor_pdb, model_path):
        out_pdb = workdir / "full.pdb"
        code = main(["dock", "--ligand", str(ligand_pdb), "--receptor", str(receptor_pdb),
                     "--model", str(model_path), "--out-pdb", str(out_pdb),
                     "--copy-full-atoms"])
        assert code == EXIT_OK
        src_atoms = [l for l in ligand_pdb.read_text().splitlines()
                     if l.startswith(("ATOM", "HETATM"))]
        dst_atoms = [l for l in out_pdb.read_text().splitlines()
                     if l.startswith(("ATOM", "HETATM"))]
        assert len(src_atoms) == len(dst_atoms)
        assert {l[12:16] for l in src_atoms} == {l[12:16] for l in dst_atoms}
        moved = parse_pdb_file(str(out_pdb))
        bond = np.linalg.norm(moved.ca - moved.n_atom, axis=0)
        assert np.allclose(bond, 1.46, atol=2e-3)

    def test_full_atom_copy_of_a_ligand_with_a_latin1_byte(self, workdir, ligand_pdb,
                                                           receptor_pdb, model_path, monkeypatch):
        """The ligand file is opened once and decoded as parse_pdb_file decodes it."""
        ligand = workdir / "latin1.pdb"
        ligand.write_bytes(b"REMARK   caf\xe9\n" + ligand_pdb.read_bytes())
        opened = []
        real_open = builtins.open

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        out_pdb, out_json = workdir / "latin1-full.pdb", workdir / "latin1-full.json"
        code = main(["dock", "--ligand", str(ligand), "--receptor", str(receptor_pdb),
                     "--model", str(model_path), "--out-pdb", str(out_pdb),
                     "--out-transform", str(out_json), "--copy-full-atoms"])
        monkeypatch.undo()
        assert code == EXIT_OK
        assert opened.count(str(ligand)) == 1
        tr = RigidTransform.from_json(out_json.read_text())
        source = ligand.read_bytes().decode("utf-8", errors="replace")
        written = out_pdb.read_text()
        assert written == transform_atom_records(source, tr.R, tr.t)
        assert written.splitlines()[0] == "REMARK   caf\ufffd"
        pairs = [(old, new) for old, new in zip(source.splitlines(), written.splitlines())
                 if old.startswith(("ATOM", "HETATM"))]
        assert pairs
        for old, new in pairs:
            assert old[:30] == new[:30] and old[54:] == new[54:]
            xyz = np.array([float(old[i:i + 8]) for i in (30, 38, 46)])
            moved = np.array([float(new[i:i + 8]) for i in (30, 38, 46)])
            np.testing.assert_allclose(moved, tr.R @ xyz + tr.t, atol=5e-4 + 1e-9)


class TestFeatures:
    def test_json_schema(self, ligand_pdb, capsys):
        code = main(["features", "--input", str(ligand_pdb), "--neighbors", "10"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        residues = parse_pdb_file(str(ligand_pdb))
        n = residues.ca.shape[1]
        assert len(payload["nodes"]) == n
        assert len(payload["edges"]) == n * 10
        node = payload["nodes"][0]
        assert set(node) == {"index", "type", "x", "rho"}
        assert len(node["x"]) == 3
        edge = payload["edges"][0]
        assert set(edge) == {"src", "dst", "f"}
        assert 0 <= edge["src"] < n and 0 <= edge["dst"] < n
        flen = len(edge["f"])
        assert flen > 0
        assert all(len(e["f"]) == flen for e in payload["edges"])

    def test_written_file_matches_stdout(self, workdir, ligand_pdb, capsys):
        code = main(["features", "--input", str(ligand_pdb)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        out = workdir / "features.json"
        code = main(["features", "--input", str(ligand_pdb), "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text() == text


class TestCheckEquivariance:
    def test_fresh_model_passes(self, capsys):
        code = main(["check-equivariance", "--seed", "0", "--trials", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("[ok]") == 4
        assert "pairwise equivariance" in out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_refused(self, trials, capsys):
        code = main(["check-equivariance", "--seed", "0", "--trials", trials])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: trials must be an integer >= 1, got {trials}\n"

    def test_tightened_limit_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_EQUIVARIANCE_LIMIT", -1.0)
        code = main(["check-equivariance", "--seed", "0", "--trials", "1"])
        assert code == EXIT_NUMERICAL
        assert "[FAIL]" in capsys.readouterr().out


class TestExitCodes:
    def test_missing_required_flag(self, capsys):
        assert main(["dock", "--ligand", "x.pdb"]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("text", [
        "ATOM  mangled beyond recognition\n",
        # one complete residue: too few for a graph
        "ATOM      1  N   ALA A   1       1.460   0.000   0.000  1.00  0.00           N\n"
        "ATOM      2  CA  ALA A   1       0.000   0.000   0.000  1.00  0.00           C\n"
        "ATOM      3  C   ALA A   1       0.000   1.520   0.000  1.00  0.00           C\n",
        # N, CA and C on one line: no local frame
        "ATOM      1  N   ALA A   1       1.460   0.000   0.000  1.00  0.00           N\n"
        "ATOM      2  CA  ALA A   1       0.000   0.000   0.000  1.00  0.00           C\n"
        "ATOM      3  C   ALA A   1       2.920   0.000   0.000  1.00  0.00           C\n"
        "ATOM      4  N   GLY A   2       3.800   1.000   0.000  1.00  0.00           N\n"
        "ATOM      5  CA  GLY A   2       4.500   2.200   0.000  1.00  0.00           C\n"
        "ATOM      6  C   GLY A   2       6.000   2.000   0.500  1.00  0.00           C\n",
    ], ids=["mangled", "one-residue", "collinear"])
    def test_malformed_pdb(self, workdir, text, capsys):
        bad = workdir / "bad.pdb"
        bad.write_text(text)
        code = main(["features", "--input", str(bad)])
        assert code == EXIT_PARSE
        assert "input error" in capsys.readouterr().err

    def test_features_with_no_neighbors_is_a_usage_error(self, ligand_pdb, capsys):
        assert main(["features", "--input", str(ligand_pdb), "--neighbors", "0"]) == EXIT_USAGE
        assert "k must be >= 1" in capsys.readouterr().err

    def test_gen_synthetic_wider_than_the_residue_number_field_is_a_usage_error(
            self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("generated a pair")

        monkeypatch.setattr(synthetic, "generate_pair", refuse)
        root = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(root), "--pairs", "1",
                     "--min-residues", "30", "--max-residues", "10000"]) == EXIT_USAGE
        assert "max_residues must be <= 9999" in capsys.readouterr().err
        assert not root.exists()

    @pytest.mark.parametrize("copy_full_atoms", [False, True], ids=["ca", "full-atoms"])
    def test_dock_pose_outside_the_pdb_field(self, workdir, ligand_pdb, receptor_pdb, model_path,
                                             copy_full_atoms, monkeypatch, capsys):
        far = RigidTransform(np.eye(3), np.array([20000.0, 0.0, 0.0]))
        monkeypatch.setattr(cli, "predict_dock", lambda model, g1, g2: far)
        out_pdb, out_json = workdir / "far.pdb", workdir / "far.json"
        argv = ["dock", "--ligand", str(ligand_pdb), "--receptor", str(receptor_pdb),
                "--model", str(model_path), "--out-pdb", str(out_pdb),
                "--out-transform", str(out_json)]
        assert main(argv + ["--copy-full-atoms"] * copy_full_atoms) == EXIT_NUMERICAL
        assert "does not fit the 8-column PDB field" in capsys.readouterr().err
        assert not out_pdb.exists() and not out_json.exists()

    def test_missing_input_file(self, workdir, model_path):
        code = main(["dock", "--ligand", str(workdir / "nope.pdb"),
                     "--receptor", str(workdir / "nope.pdb"),
                     "--model", str(model_path)])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("edit", ["drop R", "skew R", "numeric convention"])
    def test_bad_complex_json_names_the_file(self, tmp_path, model_path, edit, capsys):
        root = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(root), "--pairs", "4", "--seed", "0",
                     "--min-residues", "30", "--max-residues", "40"]) == EXIT_OK
        pair_id = json.loads((root / "splits.json").read_text())["train"][0]
        path = root / "pairs" / pair_id / "complex.json"
        payload = json.loads(path.read_text())
        if edit == "drop R":
            del payload["R"]
        elif edit == "skew R":
            payload["R"][0][0] += 0.5
        else:
            payload["convention"] = 5
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["eval", "--data", str(root), "--model", str(model_path), "--split", "train"])
        assert code == EXIT_PARSE
        assert str(path) in capsys.readouterr().err

    def test_checkpoint_without_config(self, workdir, ligand_pdb, receptor_pdb):
        bare = workdir / "bare.npz"
        save_named_tensors(str(bare), {"w": np.zeros((2, 2))})
        code = main(["dock", "--ligand", str(ligand_pdb),
                     "--receptor", str(receptor_pdb), "--model", str(bare)])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("header", [b"[1]", b'{"format_version": 1}'])
    def test_malformed_checkpoint_header(self, workdir, ligand_pdb, receptor_pdb, header):
        bad = workdir / "bad.ckpt"
        bad.write_bytes(header + b"\n")
        code = main(["dock", "--ligand", str(ligand_pdb),
                     "--receptor", str(receptor_pdb), "--model", str(bad)])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("change", [
        {"dropout": 0.1},   # unknown key
        {"layers": 0},      # rejected by ModelConfig validation
        {"eta": 2.0},
        {"hidden_dim": 0},
        {"sigma_msg": 0.0},
        {"neighbors": 0},
        {"share_layers": True},     # retired keys, at the value the network no longer has
        {"normalize_h": False},
        {"mean_coord_update": True},
        # sizes the tensors do not have, refused before anything of that size exists
        {"heads": 10**12},
        {"hidden_dim": 10**12},
        {"layers": 10**9},
    ])
    def test_checkpoint_config_rejected(self, workdir, ligand_pdb, receptor_pdb, change, capsys):
        model = DockingModel(ModelConfig(hidden_dim=16, layers=2, heads=8), seed=0)
        path = workdir / "bad-config.npz"
        save_named_tensors(str(path), model.state_arrays(),
                           extra={"config": {**model.config.to_dict(), **change}})
        code = main(["dock", "--ligand", str(ligand_pdb),
                     "--receptor", str(receptor_pdb), "--model", str(path)])
        assert code == EXIT_PARSE
        assert "input error" in capsys.readouterr().err

    def test_checkpoint_with_retired_switches_docks_alike(self, workdir, ligand_pdb,
                                                          receptor_pdb):
        """A header that still stores the retired keys at their built-in values docks alike."""
        model = DockingModel(ModelConfig(hidden_dim=16, layers=2, heads=8), seed=0)
        rng = np.random.default_rng(7)
        for p in model.params.values():   # the gates start at 0
            p.data = p.data + rng.uniform(-0.2, 0.2, p.data.shape)
        config = model.config.to_dict()
        headers = {"current": config,
                   "earlier": {**config, "share_layers": False, "normalize_h": True,
                               "mean_coord_update": False, "leaky_slope": 0.01, "eta": 0.25,
                               "beta": 0.5, "sigma_msg": 30.0}}
        transforms = []
        for name, header in headers.items():
            path = workdir / f"{name}-config.npz"
            save_named_tensors(str(path), model.state_arrays(), extra={"config": header})
            out = workdir / f"{name}-transform.json"
            assert main(["dock", "--ligand", str(ligand_pdb), "--receptor", str(receptor_pdb),
                         "--model", str(path), "--out-transform", str(out)]) == EXIT_OK
            transforms.append(out.read_bytes())
        assert transforms[0] == transforms[1]

    @pytest.mark.parametrize("splits", ["5", '{"train": "pair0000"}'],
                             ids=["not-an-object", "split-not-a-list"])
    def test_malformed_splits_file(self, tmp_path, model_path, splits, capsys):
        (tmp_path / "splits.json").write_text(splits)
        code = main(["eval", "--data", str(tmp_path), "--model", str(model_path),
                     "--split", "train"])
        assert code == EXIT_PARSE
        assert f"input error: {tmp_path / 'splits.json'}" in capsys.readouterr().err

    @pytest.mark.parametrize("tamper", ["rename", "reshape"])
    def test_checkpoint_tensors_do_not_fit_config(self, workdir, ligand_pdb, receptor_pdb,
                                                  tamper, capsys):
        model = DockingModel(ModelConfig(hidden_dim=16, layers=2, heads=8), seed=0)
        arrays = model.state_arrays()
        if tamper == "rename":
            arrays["renamed"] = arrays.pop("embed.table")
        else:
            arrays["embed.table"] = arrays["embed.table"][:, :-1]
        path = workdir / f"tampered-{tamper}.npz"
        save_named_tensors(str(path), arrays, extra={"config": model.config.to_dict()})
        code = main(["dock", "--ligand", str(ligand_pdb),
                     "--receptor", str(receptor_pdb), "--model", str(path)])
        assert code == EXIT_PARSE
        assert "embed.table" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value, code, message", [
        ("keypoints.w_prime", np.nan, EXIT_PARSE, "'keypoints.w_prime' has non-finite entries"),
        # finite weights whose forward pass overflows reach svd3 as NaN/Inf
        ("embed.project.W", 1e200, EXIT_NUMERICAL, "numerical failure: svd3"),
    ])
    def test_non_finite_weights(self, workdir, ligand_pdb, receptor_pdb, name, value,
                                code, message, capsys):
        model = DockingModel(ModelConfig(hidden_dim=16, layers=2, heads=8), seed=0)
        arrays = model.state_arrays()
        if np.isnan(value):
            arrays[name].flat[0] = value
        else:
            arrays[name][:] = value
        path = workdir / "non-finite.npz"
        save_named_tensors(str(path), arrays, extra={"config": model.config.to_dict()})
        assert main(["dock", "--ligand", str(ligand_pdb), "--receptor", str(receptor_pdb),
                     "--model", str(path)]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["features", "dock"])
    def test_non_finite_coordinates(self, workdir, ligand_pdb, receptor_pdb, model_path,
                                    command, capsys):
        lines = ligand_pdb.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line[12:16].strip() == "CA")
        lines[row] = lines[row][:30] + "     nan" + lines[row][38:]
        bad = workdir / "nan.pdb"
        bad.write_text("".join(lines))
        out = workdir / "nan-features.json"
        if command == "features":
            argv = ["features", "--input", str(bad), "--out", str(out)]
        else:
            argv = ["dock", "--ligand", str(bad), "--receptor", str(receptor_pdb),
                    "--model", str(model_path)]
        assert main(argv) == EXIT_PARSE
        assert f"line {row + 1}: non-finite coordinate" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_train_config(self, workdir, dataset, capsys):
        cfg = workdir / "mangled.json"
        cfg.write_text("{not json")
        code = main(["train", "--data", str(dataset), "--out-model",
                     str(workdir / "y.npz"), "--config", str(cfg)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"input error: {cfg}: Expecting property name")

    def test_train_config_that_is_not_an_object(self, workdir, dataset, capsys):
        cfg = workdir / "scalar.json"
        cfg.write_text("5")
        code = main(["train", "--data", str(dataset), "--out-model",
                     str(workdir / "z.npz"), "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert "expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--pairs", "3", "--val-fraction", "0.5", "--test-fraction", "0.5"],
         "val_fraction and test_fraction leave no training pairs"),
        (["--pairs", "3", "--val-fraction", "-0.5"], "val_fraction must lie in [0, 1]"),
        (["--pairs", "3", "--test-fraction", "1.5"], "test_fraction must lie in [0, 1]"),
        (["--pairs", "3", "--min-residues", "3"], "min_residues must lie in [5, max_residues]"),
        (["--pairs", "3", "--min-residues", "50", "--max-residues", "40"],
         "min_residues must lie in [5, max_residues]"),
    ], ids=["no-training-pairs", "negative-fraction", "fraction-above-one",
            "fewer-residues-than-contacts", "min-above-max"])
    def test_gen_synthetic_checks_arguments_before_the_first_pair(self, tmp_path, flags,
                                                                  message, capsys):
        root = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(root)] + flags) == EXIT_USAGE
        assert f"error: {message}" in capsys.readouterr().err
        assert not root.exists()


    @pytest.mark.parametrize("tamper", ["name-not-a-string", "shape-past-int64",
                                        "config-a-list", "name-twice"])
    def test_checkpoint_header_is_an_input_error(self, workdir, ligand_pdb, receptor_pdb,
                                                 tamper, capsys):
        """One input-error line, no traceback and no output file for each header."""
        model = DockingModel(ModelConfig(hidden_dim=16, layers=2, heads=8), seed=0)
        path = workdir / f"header-{tamper}.npz"
        save_named_tensors(str(path), model.state_arrays(),
                           extra={"config": model.config.to_dict()})
        line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        if tamper == "name-not-a-string":
            header["names"][0] = [header["names"][0]]
        elif tamper == "shape-past-int64":  # 2**64 elements: an int64 product wraps to 0
            header["shapes"][0] = [2**32, 2**32]
        elif tamper == "config-a-list":
            header["extra"]["config"] = [list(item) for item in header["extra"]["config"].items()]
        else:  # a second tensor under one name, over the bytes of another of its shape
            other = header["names"].index("iegmn.layer1.phi_e.lin1.W")
            header["names"].append("iegmn.layer0.phi_e.lin1.W")
            header["shapes"].append(header["shapes"][other])
            header["offsets"].append(header["offsets"][other])
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        out = workdir / f"header-{tamper}.json"
        capsys.readouterr()
        code = main(["dock", "--ligand", str(ligand_pdb), "--receptor", str(receptor_pdb),
                     "--model", str(path), "--out-transform", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE
        assert err.startswith(f"input error: {path}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--data", "{tmp}/data", "--model", "{tmp}/model.npz"],
        ["check-equivariance", "--model", "{tmp}/model.npz"],
        ["gen-synthetic", "--out", "{tmp}/data", "--pairs", "2"],
    ], ids=["eval", "check-equivariance", "gen-synthetic"])
    def test_negative_seed_is_refused_before_any_file(self, tmp_path, argv, capsys):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv] + ["--seed", "-1"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be an integer >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_train_refuses_a_flag_before_reading_data(self, tmp_path, capsys):
        out_model = tmp_path / "model.npz"
        code = main(["train", "--data", str(tmp_path / "missing"), "--out-model", str(out_model),
                     "--max-epochs", "0"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: max_epochs must be an integer >= 1, got 0\n"
        assert not out_model.exists()

    @pytest.mark.parametrize("name", ["splits.json", "complex.json"])
    def test_undecodable_dataset_json_is_an_input_error(self, tmp_path, dataset, model_path,
                                                        name, capsys):
        (tmp_path / "splits.json").write_text(json.dumps({"test": ["pair0000"]}))
        shutil.copytree(dataset / "pairs" / "pair0000", tmp_path / "pairs" / "pair0000")
        path = tmp_path / "splits.json" if name == "splits.json" \
            else tmp_path / "pairs" / "pair0000" / "complex.json"
        path.write_bytes(b"\xff" + path.read_bytes())  # a byte no UTF-8 text holds
        code = main(["eval", "--data", str(tmp_path), "--model", str(model_path)])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_undecodable_train_config_stays_a_usage_error(self, tmp_path, dataset, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(b'{"lr": 0.001, "note": "caf\xe9"}')
        code = main(["train", "--data", str(dataset), "--out-model", str(tmp_path / "m.npz"),
                     "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}: 'utf-8' codec can't decode byte 0xe9")

    def test_train_refuses_fewer_than_three_heads(self, workdir, dataset, capsys):
        out_model = workdir / "two-heads.npz"
        code = main(["train", "--data", str(dataset), "--out-model", str(out_model),
                     "--hidden-dim", "8", "--layers", "1", "--heads", "2"])
        assert code == EXIT_USAGE
        assert "error: heads must be an integer >= 3, got 2" in capsys.readouterr().err
        assert not out_model.exists()

    def test_checkpoint_with_two_heads_is_an_input_error(self, workdir, ligand_pdb,
                                                         receptor_pdb, capsys):
        model = DockingModel(ModelConfig(hidden_dim=16, layers=2, heads=3), seed=0)
        arrays = model.state_arrays()
        arrays["keypoints.w_prime"] = arrays["keypoints.w_prime"][:2 * 16]  # two heads' rows
        path = workdir / "two-heads.npz"
        save_named_tensors(str(path), arrays,
                           extra={"config": {**model.config.to_dict(), "heads": 2}})
        code = main(["dock", "--ligand", str(ligand_pdb), "--receptor", str(receptor_pdb),
                     "--model", str(path)])
        assert code == EXIT_PARSE
        assert "heads must be an integer >= 3, got 2" in capsys.readouterr().err

    def test_checkpoint_shape_numpy_cannot_hold_is_an_input_error(self, workdir, model_path,
                                                                  ligand_pdb, receptor_pdb,
                                                                  capsys):
        # zero elements, so the payload check passes; numpy refuses the dimension
        head, payload = model_path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["names"].append("empty")
        header["shapes"].append([0, 2**70])
        header["offsets"].append(0)
        path = workdir / "huge-dimension.npz"
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        out_pdb = workdir / "huge-dimension.pdb"
        code = main(["dock", "--ligand", str(ligand_pdb), "--receptor", str(receptor_pdb),
                     "--model", str(path), "--out-pdb", str(out_pdb)])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"input error: {path}: tensor 'empty' has "
                                                   "a shape numpy cannot hold")
        assert not out_pdb.exists()


    @pytest.mark.parametrize("version, shown", [(True, "True"), (1.0, "1.0")])
    def test_checkpoint_version_that_only_equals_1_is_an_input_error(
            self, workdir, model_path, ligand_pdb, receptor_pdb, version, shown, capsys):
        head, payload = model_path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["format_version"] = version
        path = workdir / f"version-{shown}.npz"
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        out_pdb = workdir / f"version-{shown}.pdb"
        capsys.readouterr()
        code = main(["dock", "--ligand", str(ligand_pdb), "--receptor", str(receptor_pdb),
                     "--model", str(path), "--out-pdb", str(out_pdb)])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert err == [f"input error: {path}: unsupported format_version {shown}"]
        assert not out_pdb.exists()


class TestAtomicWrites:
    @pytest.mark.parametrize("mode, payload", [("w", "payload"), ("wb", b"payload")],
                             ids=["text", "binary"])
    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch, mode, payload):
        target = tmp_path / "out.json"

        def explode(src, dst):
            raise OSError("disk detached")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            with atomic_open(str(target), mode) as fh:
                fh.write(payload)
        assert list(tmp_path.iterdir()) == []

    def test_written_file_has_default_permissions(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("payload")
        target = tmp_path / "atomic.txt"
        with atomic_open(str(target), "w") as fh:
            fh.write("payload\n")
        assert target.read_bytes() == b"payload\n"
        assert target.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic.txt", "plain.txt"]

    def test_dock_to_unwritable_directory(self, workdir, ligand_pdb,
                                          receptor_pdb, model_path):
        out = workdir / "missing" / "deep" / "pose.pdb"
        code = main(["dock", "--ligand", str(ligand_pdb), "--receptor", str(receptor_pdb),
                     "--model", str(model_path), "--out-pdb", str(out)])
        assert code == EXIT_PARSE
        assert not out.exists()


def test_command_runs_openblas_on_one_thread(tmp_path, monkeypatch):
    """A command runs with OpenBLAS on one thread, and the count is restored afterwards."""
    threads = cli._openblas_threads()
    if threads is None:
        pytest.skip("numpy's OpenBLAS does not expose its thread count here")
    get, set_ = threads
    before = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS runs at most one thread here")
        seen = []

        def generate(*args, **kwargs):
            seen.append(get())
            return []

        monkeypatch.setattr(cli, "generate_dataset", generate)
        assert main(["gen-synthetic", "--out", str(tmp_path / "data"), "--pairs", "1"]) == EXIT_OK
        assert seen == [1]
        assert get() == 2
    finally:
        set_(before)
