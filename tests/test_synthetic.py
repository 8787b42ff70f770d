"""Synthetic docking pair generator: geometry guarantees and persistence."""

import hashlib
import json
import os

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rigiddock import synthetic, tiles
from rigiddock.geometry import RigidTransform, random_rotation
from rigiddock.losses import intersection_loss, pocket_points
from rigiddock.synthetic import (
    DatasetError,
    GenerationError,
    generate_dataset,
    generate_pair,
    load_pair,
    load_split,
)


# SHA-256 (see ``tree_sha256``) of what ``generate_dataset(root, n_pairs=4, seed=0)``
# wrote with the one-candidate-at-a-time blob and landing pad samplers.
GENERATED_TREE_SHA256 = "a4bd837571b3900ccc5da0f9f16e127dea9885310b2f70e042c9a4187c3b0c05"

# SHA-256 (see ``pairs_sha256``) of what ``generate_pair`` builds from the
# protein streams [PROTEIN_STREAM, j] that perfbench's workloads use, keyed by
# (stream indices j, min_residues, max_residues); computed with the
# one-candidate-at-a-time blob and landing pad samplers.
PROTEIN_STREAM = 211107786
PAIR_STREAM_SHA256 = {
    # train-toy's pairs, with their landing pad failures
    (tuple(range(16)), 30, 80): "a5b0fa450ae1bcb9994494db15c9468cbe096013754d0a0323d4e5e0b6098a25",
    # train-interface's first call on each stream
    (tuple(range(6)), 80, 80): "85ca0274c68a591ab6da8d31690ce94234c2e0c645f26868f3a027083ee3a11c",
    # dock-large's pair
    ((4,), 1000, 1000): "abb045b5027ae5f2bff3162353c9fc7af6f4ab6c0e7751f5799de203030292f6",
}


def tree_sha256(root):
    """Digest of every file under ``root``: relative path, NUL, bytes, NUL, in sorted order."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
    return digest.hexdigest()


def pairs_sha256(streams, min_residues, max_residues):
    """Digest of each stream's pair (coordinates, types, truth) and the generator state it leaves."""
    digest = hashlib.sha256()
    for j in streams:
        rng = np.random.default_rng([PROTEIN_STREAM, j])
        pair = generate_pair(rng, f"pair{j}", min_residues, max_residues)
        for rs in (pair.ligand, pair.receptor):
            for array in (rs.ca, rs.n_atom, rs.c_atom, rs.types):
                digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(pair.truth.R.tobytes() + pair.truth.t.tobytes())
        digest.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    return digest.hexdigest()


def reference_landing_pad(rng, receptor, anchor, direction, tries=None):
    """The landing pad sampler ``_landing_pad`` replaced: it draws one candidate
    at a time and concatenates the receptor and the pad so far for every
    candidate. Appends to ``tries`` the try on which each pad point was accepted."""
    e1, e2 = synthetic._tangent_basis(direction)
    pad = []
    phase = rng.uniform(0.0, 2.0 * np.pi)
    for j in range(synthetic.CONTACT_RING - 1):
        for attempt in range(1, 101):
            angle = (phase + 2.0 * np.pi * (j + 1) / synthetic.CONTACT_RING
                     + rng.uniform(-0.35, 0.35))
            radius = rng.uniform(3.8, 5.5)
            dip = rng.uniform(-0.4, 0.0)
            cand = anchor + radius * (np.cos(angle) * e1 + np.sin(angle) * e2) + dip * direction
            others = np.concatenate([receptor, np.array(pad).T], axis=1) if pad else receptor
            if np.min(np.linalg.norm(others - cand[:, None], axis=0)) < synthetic.MIN_SEPARATION:
                continue
            flat = np.array(pad + [anchor])
            tang = flat - cand
            tang -= np.outer(tang @ direction, direction)
            if np.min(np.linalg.norm(tang, axis=1)) < 3.6:
                continue
            pad.append(cand)
            if tries is not None:
                tries.append(attempt)
            break
        else:
            raise GenerationError("no room for a landing pad point")
    return np.array(pad).T


def landing_site(seed, n, ring=0, ring_radius=4.65):
    """Receptor, anchor and direction as ``_bound_complex`` builds them, with
    ``ring`` extra receptor points around the anchor to crowd the pad."""
    rng = np.random.default_rng(seed)
    receptor = synthetic._blob(rng, n, np.zeros(3))
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    anchor = receptor[:, int(np.argmax(direction @ receptor))]
    e1, e2 = synthetic._tangent_basis(direction)
    angles = np.linspace(0.0, 2.0 * np.pi, ring, endpoint=False)
    crowd = anchor[:, None] + ring_radius * (np.outer(e1, np.cos(angles))
                                             + np.outer(e2, np.sin(angles)))
    return np.concatenate([receptor, crowd], axis=1), anchor, direction


def assert_same_pad(site, seed, tries=None, bit_generator=np.random.PCG64):
    """Both samplers build the same pad, or fail alike, and leave rng alike; returns the outcome.

    ``tries`` is passed on to ``reference_landing_pad``.
    """
    rngs = [np.random.Generator(bit_generator([seed, 1])) for _ in range(2)]
    samplers = (synthetic._landing_pad,
                lambda *args: reference_landing_pad(*args, tries=tries))
    outcomes = []
    for sampler, rng in zip(samplers, rngs):
        try:
            outcomes.append(sampler(rng, *site))
        except GenerationError as exc:
            outcomes.append(str(exc))
    if isinstance(outcomes[1], str):
        assert outcomes[0] == outcomes[1]
    else:
        np.testing.assert_array_equal(outcomes[0], outcomes[1])
    np.testing.assert_equal(rngs[0].bit_generator.state, rngs[1].bit_generator.state)
    return outcomes[1]


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


class TestSamplersAgainstReference:
    @pytest.mark.parametrize("n", [16, 40, 75, 300])
    def test_landing_pad_matches_concatenating_sampler(self, n):
        # an exposed anchor often has no room, as in generate_pair's retries
        pads = [assert_same_pad(landing_site(seed, n), seed) for seed in range(10)]
        built = [pad for pad in pads if not isinstance(pad, str)]
        assert len(built) >= 2
        assert all(pad.shape == (3, synthetic.CONTACT_RING - 1) for pad in built)

    def test_landing_pad_failure_matches_concatenating_sampler(self):
        # 40 points on the pad's circle leave no room for any pad point
        for seed in range(4):
            assert assert_same_pad(landing_site(seed, 40, ring=40), seed) \
                == "no room for a landing pad point"

    def test_landing_pad_ties_decided_by_concatenated_norm(self, monkeypatch):
        # a wide tie band sends most of both tests to the one-candidate expressions
        monkeypatch.setattr(synthetic, "_TIE", 0.5)
        decided = {"_pad_clears": [], "_pad_spaced": []}
        for name, outcomes in decided.items():
            def recorded(*args, test=getattr(synthetic, name), outcomes=outcomes):
                outcomes.append(test(*args))
                return outcomes[-1]

            monkeypatch.setattr(synthetic, name, recorded)
        pads = [assert_same_pad(landing_site(seed, 40), seed) for seed in range(10)]
        assert not all(isinstance(pad, str) for pad in pads)
        # each band decided candidates both ways
        assert all(set(outcomes) == {False, True} for outcomes in decided.values())

    def test_landing_pad_point_accepted_on_its_last_try(self):
        tries = []
        assert assert_same_pad(landing_site(49, 16, ring=4, ring_radius=4.0), 49, tries) \
            == "no room for a landing pad point"
        assert tries == [synthetic._PAD_TRIES]

    @pytest.mark.parametrize("seed, n, ring, ring_radius, accepted", [
        (10, 16, 0, 4.65, 9),     # first of the second block
        (54, 40, 4, 5.3, 41),     # first of the third block
        (14, 16, 3, 4.65, 8),     # last of the first block
        (49, 40, 4, 4.0, 40),     # last of the second block
    ])
    @pytest.mark.parametrize("tile_rows", [None, 10])
    def test_landing_pad_accepts_the_first_or_last_candidate_of_a_block(
            self, monkeypatch, seed, n, ring, ring_radius, accepted, tile_rows):
        # blocks of tries 1-8, 9-40 and 41-100; or, capped at 10 rows a tile,
        # 1-8, 9-18, ..., 89-98 and 99-100
        monkeypatch.setattr(synthetic, "_PAD_MIN_BLOCK", 8)
        monkeypatch.setattr(synthetic, "_PAD_GROWTH", 4)
        if tile_rows is not None:
            monkeypatch.setattr(tiles, "TILE_ENTRIES", tile_rows * (n + ring))
        tries = []
        assert_same_pad(landing_site(seed, n, ring, ring_radius), seed, tries)
        assert tries[0] == accepted

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(16, 300), ring=st.integers(0, 40),
           ring_radius=st.floats(3.8, 5.5),
           bit_generator=st.sampled_from([np.random.PCG64, np.random.MT19937,
                                          np.random.Philox, np.random.SFC64]))
    def test_property_landing_pad_matches_concatenating_sampler(self, seed, n, ring,
                                                                 ring_radius, bit_generator):
        assert_same_pad(landing_site(seed, n, ring, ring_radius), seed, bit_generator=bit_generator)

    def test_generated_dataset_bytes_are_pinned(self, tmp_path):
        generate_dataset(str(tmp_path), n_pairs=4, seed=0)
        assert tree_sha256(str(tmp_path)) == GENERATED_TREE_SHA256

    @pytest.mark.parametrize("streams, min_residues, max_residues", list(PAIR_STREAM_SHA256),
                             ids=["train-toy", "train-interface", "dock-large"])
    def test_benchmark_stream_pairs_are_pinned(self, streams, min_residues, max_residues):
        assert pairs_sha256(streams, min_residues, max_residues) \
            == PAIR_STREAM_SHA256[streams, min_residues, max_residues]


def reference_tangent_basis(direction):
    """The ``np.cross`` form that ``_tangent_basis`` writes out on floats."""
    ref = np.array([1.0, 0.0, 0.0])
    if abs(direction @ ref) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(direction, ref)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(direction, e1)


_AXIS_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.6, -0.8])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.tuples(_AXIS_PARTS, _AXIS_PARTS, _AXIS_PARTS),
                 st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
def test_property_tangent_basis_has_the_bits_of_np_cross(parts):
    """Every product is kept, zero factors included, so even the signs of zero agree."""
    direction = np.array(parts)
    norm = np.linalg.norm(direction)
    if not norm > 1e-3:
        return
    direction /= norm
    expected = np.array(reference_tangent_basis(direction))
    assert np.array(synthetic._tangent_basis(direction)).tobytes() == expected.tobytes()


# --- every splits.json and complex.json a mutation can make loads or raises DatasetError ---

_ODD_JSON = [None, True, False, 0, -1, 1.5, -0.0, 2**63, 10**400, -10**400, float("inf"),
             float("nan"), "", "2", ".", "..", "../pairs/pair0", [], [1], {}, {"a": 1}]
_JSON_VALUES = st.one_of(st.sampled_from(_ODD_JSON), st.integers(), st.floats(),
                         st.text(max_size=4), st.lists(st.sampled_from(_ODD_JSON), max_size=4))
_JSON_MUTATION = st.one_of(
    # one slot of the document (a key's value or a list entry) replaced, dropped or added
    st.tuples(st.sampled_from(["set", "drop", "add"]), st.integers(0, 50), _JSON_VALUES),
    st.tuples(st.just("replace"), _JSON_VALUES),
    # bytes: deep nesting, a byte no UTF-8 text holds, a cut
    st.tuples(st.just("nest"), st.sampled_from([2, 1000, 100_000]), st.booleans()),
    st.tuples(st.just("byte"), st.integers(0, 400), st.sampled_from([b"\xff", b"\xc3", b"\x00"])),
    st.tuples(st.just("truncate"), st.integers(0, 400)))


def _slots(doc):
    """(container, key) for every value inside ``doc``, in document order."""
    found = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in items:
        found.append((doc, key))
        found.extend(_slots(value))
    return found


def _mutated_json(document, mutations) -> bytes:
    """``document``'s JSON bytes after each mutation that still applies, in order."""
    doc = json.loads(json.dumps(document))
    blob = None
    for kind, *args in mutations:
        if kind == "replace":
            doc = args[0]
        elif kind in ("set", "drop", "add"):
            slots = _slots(doc)
            if not slots:
                continue
            container, key = slots[args[0] % len(slots)]
            if kind == "set":
                container[key] = args[1]
            elif kind == "drop":
                del container[key]
            elif isinstance(container, dict):
                container[f"extra{args[0]}"] = args[1]
            else:
                container.append(args[1])
        else:
            blob = blob if blob is not None else json.dumps(doc).encode()
            if kind == "nest":
                depth, closed = args
                blob = b"[" * depth + blob + b"]" * depth * closed
            elif kind == "byte":
                blob = blob[:args[0]] + args[1] + blob[args[0]:]
            else:
                blob = blob[:args[0]]
    return blob if blob is not None else json.dumps(doc).encode()


@pytest.fixture(scope="module")
def one_pair_root(tmp_path_factory):
    """A dataset root holding pairs/pair0 and the splits.json that names it."""
    root = tmp_path_factory.mktemp("fuzzed")
    synthetic.write_pair(generate_pair(np.random.default_rng(12), "pair0", 30, 35), str(root))
    return root


_TRUTH = RigidTransform(random_rotation(np.random.default_rng(13)), np.array([1.0, -2.0, 3.0]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_JSON_MUTATION, min_size=1, max_size=3))
def test_property_mutated_complex_json_loads_or_is_a_dataset_error(one_pair_root, mutations):
    """Wrong types, missing and extra keys, huge, bool and float numbers, nesting and bytes."""
    path = one_pair_root / "pairs" / "pair0" / "complex.json"
    path.write_bytes(_mutated_json(json.loads(_TRUTH.to_json()), mutations))
    try:
        load_pair(str(path.parent))
    except DatasetError as exc:
        assert str(exc).startswith(f"{path}: ")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_JSON_MUTATION, min_size=1, max_size=3))
def test_property_mutated_splits_json_loads_or_is_a_dataset_error(one_pair_root, mutations):
    """As the complex.json fuzzer, and ids that name no pair; only a missing split is usage."""
    (one_pair_root / "pairs" / "pair0" / "complex.json").write_text(_TRUTH.to_json())
    path = one_pair_root / "splits.json"
    blob = _mutated_json({"train": ["pair0"], "val": [], "test": ["pair0", "pair0"]}, mutations)
    path.write_bytes(blob)
    try:
        load_split(str(one_pair_root), "test")
    except DatasetError as exc:
        assert str(exc).startswith(f"{path}: ")
    except ValueError as exc:  # the split the caller asked for is not in the file
        assert "test" not in json.loads(blob) and str(exc).startswith("unknown split 'test'")
