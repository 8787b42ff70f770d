"""Command-line interface: pipelines, round trips, exit codes, atomicity."""

import csv
import json
import os

import numpy as np
import pytest

from rigiddock import cli
from rigiddock.atomic import atomic_open
from rigiddock.checkpoint import load_named_tensors, save_named_tensors
from rigiddock.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from rigiddock.geometry import RigidTransform, random_rotation
from rigiddock.metrics import complex_rmsd
from rigiddock.model import DockingModel, ModelConfig
from rigiddock.pdbio import format_ca_pdb, parse_pdb_file
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

    def test_malformed_pdb(self, workdir, model_path, capsys):
        bad = workdir / "bad.pdb"
        bad.write_text("ATOM  mangled beyond recognition\n")
        code = main(["features", "--input", str(bad)])
        assert code == EXIT_PARSE
        capsys.readouterr()

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

    def test_malformed_train_config(self, workdir, dataset):
        cfg = workdir / "mangled.json"
        cfg.write_text("{not json")
        code = main(["train", "--data", str(dataset), "--out-model",
                     str(workdir / "y.npz"), "--config", str(cfg)])
        assert code == EXIT_PARSE


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
