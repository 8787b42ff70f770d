"""Synthetic docking pair generator: geometry guarantees and persistence."""

import json
import os

import numpy as np
import pytest

from rigiddock import synthetic
from rigiddock.losses import intersection_loss, pocket_points
from rigiddock.synthetic import (
    GenerationError,
    generate_dataset,
    generate_pair,
    load_pair,
    load_split,
)


def all_cross_distances(A, B):
    diff = A[:, :, None] - B[:, None, :]
    return np.sqrt(np.sum(diff * diff, axis=0))


class TestGeneratePair:
    def test_bound_complex_geometry(self):
        rng = np.random.default_rng(0)
        for i in range(8):
            pair = generate_pair(rng, f"p{i}", 30, 60)
            bound = pair.bound_ligand()
            d = all_cross_distances(bound, pair.receptor.ca)
            # enough contact pairs for a pocket, but no clashes
            assert (d < 8.0).sum() >= 5
            assert d.min() >= 7.2
            mids = pocket_points(bound, pair.receptor.ca)
            assert mids.shape[1] >= 5
            assert intersection_loss(bound, pair.receptor.ca).item() <= 0.1

    def test_truth_recovers_bound_pose(self):
        rng = np.random.default_rng(1)
        pair = generate_pair(rng, "p", 30, 50)
        recovered = pair.truth.apply(pair.ligand.ca)
        assert np.max(np.abs(recovered - pair.bound_ligand())) <= 1e-9

    def test_unbound_ligand_is_displaced(self):
        rng = np.random.default_rng(2)
        pair = generate_pair(rng, "p", 30, 50)
        assert np.max(np.abs(pair.ligand.ca - pair.bound_ligand())) > 1.0

    def test_residue_counts_within_requested_range(self):
        rng = np.random.default_rng(3)
        for i in range(5):
            pair = generate_pair(rng, f"p{i}", 30, 80)
            assert 30 <= pair.ligand.ca.shape[1] <= 80
            assert 30 <= pair.receptor.ca.shape[1] <= 80

    def test_minimum_intra_separation(self):
        rng = np.random.default_rng(4)
        pair = generate_pair(rng, "p", 30, 60)
        for ca in (pair.receptor.ca, pair.bound_ligand()):
            d = all_cross_distances(ca, ca)
            np.fill_diagonal(d, np.inf)
            assert d.min() >= 3.4

    def test_verification_failure_raises(self, monkeypatch):
        monkeypatch.setattr(synthetic, "_verify", lambda *a, **k: False)
        rng = np.random.default_rng(5)
        with pytest.raises(GenerationError):
            generate_pair(rng, "p", 30, 50)


class TestDataset:
    def test_write_and_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        pair = generate_pair(rng, "pair0", 30, 50)
        synthetic.write_pair(pair, str(tmp_path))
        back = load_pair(str(tmp_path / "pairs" / "pair0"))
        assert np.max(np.abs(back.ligand.ca - pair.ligand.ca)) <= 1e-3
        assert np.max(np.abs(back.receptor.ca - pair.receptor.ca)) <= 1e-3
        assert np.max(np.abs(back.truth.R - pair.truth.R)) <= 1e-12
        assert back.ligand.types.tolist() == pair.ligand.types.tolist()
        # pocket is still detectable after the PDB coordinate rounding
        mids = pocket_points(back.bound_ligand(), back.receptor.ca)
        assert mids.shape[1] >= 5

    def test_dataset_splits_partition(self, tmp_path):
        generate_dataset(str(tmp_path), n_pairs=10, seed=0, val_fraction=0.2,
                         test_fraction=0.2, min_residues=30, max_residues=45)
        splits = json.loads((tmp_path / "splits.json").read_text())
        train, val, test = splits["train"], splits["val"], splits["test"]
        assert len(val) == 2 and len(test) == 2 and len(train) == 6
        names = train + val + test
        assert sorted(names) == sorted(set(names))
        for name in names:
            assert (tmp_path / "pairs" / name / "complex.json").exists()
        loaded = load_split(str(tmp_path), "val")
        assert len(loaded) == 2
        assert all(p.pair_id in val for p in loaded)

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for root in (a, b):
            generate_dataset(str(root), n_pairs=3, seed=7, min_residues=30, max_residues=40)
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_failed_rename_leaves_no_files(self, tmp_path, monkeypatch):
        def explode(src, dst):
            raise OSError("disk detached")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            generate_dataset(str(tmp_path), n_pairs=2, seed=7, min_residues=30, max_residues=40)
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(str(a), n_pairs=2, seed=1, min_residues=30, max_residues=40)
        generate_dataset(str(b), n_pairs=2, seed=2, min_residues=30, max_residues=40)
        pa = load_pair(str(a / "pairs" / "pair0000"))
        pb = load_pair(str(b / "pairs" / "pair0000"))
        assert pa.receptor.ca.shape != pb.receptor.ca.shape or \
            np.max(np.abs(pa.receptor.ca - pb.receptor.ca)) > 1.0
