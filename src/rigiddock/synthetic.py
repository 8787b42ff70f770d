"""Synthetic docking pairs with known ground-truth rigid motions.

Each pair is a bound complex built from two random point blobs joined at a
constructed interface. The receptor grows an irregular five-point landing
pad at its most exposed spot; the ligand's five interface residues sit
directly above the pad points, just inside the contact cutoff, while every
other cross-protein distance stays above a clearance floor (so the steric
penalty is numerically zero). Interface residues carry a fixed sequence of
marker residue types on both sides, the way real binding sites carry a
recognizable composition: the docking site and pose are functions of the
structures alone, so docking these pairs is learnable rather than a
memorization exercise. The stored ligand file is the bound pose moved by a
random rigid motion whose inverse is saved as the answer.

Layout under the output directory::

    pairs/<pair_id>/ligand.pdb      backbone of the moved (input) ligand
    pairs/<pair_id>/receptor.pdb    backbone of the receptor (bound frame)
    pairs/<pair_id>/complex.json    rigid motion: bound = R @ input + t
    splits.json                     {"train": [...], "val": [...], "test": [...]}

Generation is deterministic: the same seed reproduces every byte. Each
file is written atomically.

The two point samplers, ``_blob`` and ``_landing_pad``, are rejection
samplers with a fixed contract: they draw the same random numbers, make
the same accept/reject decisions, fail on the same point and leave the
generator in the same state as the one-candidate-at-a-time loops they
stand for, so faster sampling never changes a pair. Each draws its
candidates a block at a time with one ``rng.uniform`` call, tests the
whole block at once and takes the first candidate that passes; any
distance within a relative ``_TIE`` of its threshold is decided by the
loop's own expression. The generator is then reset to where the block
began and advanced past the candidates the loop would have drawn. ``_blob``
answers its separation test from a background grid, and an ``accept``
predicate passed to it must be pure, since it is called only on candidates
that pass the other tests. ``_landing_pad`` tests each block against the
whole receptor, one tile of distances at most.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import tiles
from .atomic import atomic_open
from .geometry import RigidTransform, random_se3
from .graphs import contact_pairs
from .jsonio import read_json
from .losses import POCKET_TAU, intersection_loss
from .pdbio import RESIDUE_TYPES, TYPE_INDEX, ResidueSet, format_ca_pdb, parse_pdb_file

MIN_SEPARATION = 3.5      # closest allowed pair inside one protein
CLEARANCE = 7.25          # floor on every ligand-to-receptor distance
CLASH_FLOOR = 7.2         # least cross-protein distance a verified pair may have
CONTACT_RING = 5          # constructed contacts per pair
MARKER_TYPES = tuple(TYPE_INDEX[name] for name in ("TRP", "TYR", "PHE", "HIS", "MET"))
MAX_PAIR_ATTEMPTS = 1000
MAX_WRITTEN_RESIDUES = 9999  # widest protein a written pair holds
_BLOB_RADIUS_COEFF = 2.7
_TRIES = 400              # candidates per blob point before giving up
_TIE = 1e-12              # relative band around a threshold that the serial expression decides
_CELL = MIN_SEPARATION / np.sqrt(3.0) * (1.0 - 1e-9)  # blob grid cell: diagonal < MIN_SEPARATION
_REACH = 2                # cells between a candidate and a point closer than MIN_SEPARATION
_BLOCK_POINTS = 16        # points a candidate block is sized for
_MIN_BLOCK = 128          # candidates per block at least ...
_MAX_BLOCK = 512          # ... and at most
_PAD_SPACING = 3.6        # least distance between pad points in the exposure plane
_PAD_TRIES = 100          # candidates per pad point before giving up
_PAD_MIN_BLOCK = 8        # candidates in a pad point's first block ...
_PAD_GROWTH = 4           # ... and the factor each next block grows by


class GenerationError(RuntimeError):
    """Raised when a valid pair cannot be constructed."""


class DatasetError(ValueError):
    """A dataset file does not hold what the layout says it should."""


@dataclass
class DockingPair:
    pair_id: str
    ligand: ResidueSet     # input pose (moved away from the bound frame)
    receptor: ResidueSet   # bound frame
    truth: RigidTransform  # maps ligand input coordinates onto the bound pose

    def bound_ligand(self) -> np.ndarray:
        return self.truth.apply(self.ligand.ca)


class _Grid:
    """Placed blob points by background cell, for the separation test.

    A cell's side is ``_CELL``, so its diagonal is below MIN_SEPARATION and
    it holds one point at most; a point closer than MIN_SEPARATION to a
    candidate lies within ``_REACH`` cells of it along each axis. The grid
    covers the cube that candidates are drawn from.
    """

    def __init__(self, center: np.ndarray, radius: float):
        self.lo = center - radius
        self.side = int(2.0 * radius / _CELL) + 2 * _REACH + 4
        self.cells = np.full(self.side ** 3, -1, dtype=np.intp)  # point index or -1
        r = np.arange(-_REACH, _REACH + 1)
        self.offsets = ((r[:, None, None] * self.side + r[None, :, None]) * self.side
                        + r[None, None, :]).reshape(-1)

    def flat(self, xyz: np.ndarray) -> np.ndarray:
        """Flat cell index of each row of ``xyz``."""
        ijk = np.floor((xyz - self.lo) / _CELL).astype(np.intp) + (_REACH + 1)
        return (ijk[:, 0] * self.side + ijk[:, 1]) * self.side + ijk[:, 2]

    def least(self, cands: np.ndarray, flat: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Per candidate, its distance to the nearest point in reach (inf if none)."""
        nbrs = self.cells[flat[:, None] + self.offsets]
        row, col = np.nonzero(nbrs >= 0)
        diff = points[nbrs[row, col]] - cands[row]
        least = np.full(len(cands), np.inf)
        np.minimum.at(least, row, np.sqrt(np.einsum("ij,ij->i", diff, diff)))
        return least

    def add(self, cell: int, index: int) -> None:
        if self.cells[cell] >= 0:
            raise RuntimeError("blob grid: two points in one cell")
        self.cells[cell] = index


def _blob(rng: np.random.Generator, n: int, center: np.ndarray,
          accept=None) -> np.ndarray:
    """Random points with pairwise separation >= MIN_SEPARATION.

    Point i takes the first candidate ``center + rng.uniform(-radius,
    radius, size=3)`` that lies within ``radius`` of the center, is at least
    MIN_SEPARATION from points 0..i-1 and passes ``accept``, trying at most
    ``_TRIES`` candidates per point. ``accept`` must be a pure predicate: it
    is called only on candidates that pass the other two tests, in draw
    order. Candidates are drawn a block at a time and tested against a
    background grid of the points placed before the block; a distance
    within ``_TIE`` of its threshold is decided by the one-candidate
    expression. ``rng`` is left as if the candidates had been drawn one at
    a time, and a failure names the same point.
    """
    radius = _BLOB_RADIUS_COEFF * n ** (1.0 / 3.0) + 1.5
    close, far = MIN_SEPARATION * (1.0 - _TIE), MIN_SEPARATION * (1.0 + _TIE)
    points = np.empty((n, 3))  # rows 0:placed are the points placed so far
    grid = _Grid(center, radius)
    placed = 0
    start = 0   # draw index of the current point's first candidate
    drawn = 0   # candidates drawn so far
    while placed < n:
        # a power of two, so that few array sizes recur: enough candidates
        # for _BLOCK_POINTS points at the rate seen so far
        want = (start + 2) * min(n - placed, _BLOCK_POINTS) // (placed + 1)
        m = min(_MAX_BLOCK, max(_MIN_BLOCK, 1 << want.bit_length()))
        saved = rng.bit_generator.state
        cands = center + rng.uniform(-radius, radius, size=(m, 3))
        base, drawn = drawn, drawn + m
        diff = cands - center
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        tie = np.abs(dist - radius) <= _TIE * radius
        inside = (dist < radius) | tie
        for j in np.flatnonzero(tie):
            inside[j] = not np.linalg.norm(cands[j] - center) > radius
        flat = grid.flat(cands)
        least = np.full(m, np.inf)  # the separation test only matters inside the ball
        ball = np.flatnonzero(inside)
        least[ball] = grid.least(cands[ball], flat[ball], points)
        unsure = np.abs(least - MIN_SEPARATION) <= _TIE * MIN_SEPARATION
        free = inside & ((least >= MIN_SEPARATION) | unsure)
        unsure, flat, xyz = unsure.tolist(), flat.tolist(), cands.tolist()
        mine = []  # [x, y, z] of the points this block places
        for j in itertools.compress(range(m), free.tolist()):
            if base + j - start >= _TRIES:
                break
            near = min(map(math.dist, mine, itertools.repeat(xyz[j])), default=np.inf)
            if near < close:
                continue
            cand = cands[j]
            if (unsure[j] or near <= far) and \
                    np.min(np.linalg.norm(points[:placed] - cand, axis=1)) < MIN_SEPARATION:
                continue
            if accept is not None and not accept(cand):
                continue
            points[placed] = cand
            grid.add(flat[j], placed)
            mine.append(xyz[j])
            placed += 1
            start = base + j + 1
            if placed == n:
                break
        if placed < n and drawn - start < _TRIES:
            continue
        # Leave rng where the serial loop stops: after the last point's
        # candidate, or after the failing point's last try.
        end = start if placed == n else start + _TRIES
        rng.bit_generator.state = saved
        rng.uniform(-radius, radius, size=(end - base, 3))
        if placed < n:
            raise GenerationError(f"could not place point {placed + 1} of {n}")
    return points.T


def _tangent_basis(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors spanning the plane normal to ``direction``.

    The cross products are written out on Python floats with ``np.cross``'s
    products and differences, zero factors included, so the bits and the
    signs of zero are ``np.cross``'s, at a fraction of its call cost.
    """
    ref = np.array([1.0, 0.0, 0.0])
    if abs(direction @ ref) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    (d0, d1, d2), (r0, r1, r2) = direction.tolist(), ref.tolist()
    e1 = np.array([d1 * r2 - d2 * r1, d2 * r0 - d0 * r2, d0 * r1 - d1 * r0])
    e1 /= np.linalg.norm(e1)
    u0, u1, u2 = e1.tolist()
    return e1, np.array([d1 * u2 - d2 * u1, d2 * u0 - d0 * u2, d0 * u1 - d1 * u0])


def _pad_clears(receptor: np.ndarray, cand: np.ndarray) -> bool:
    """The landing pad's one-candidate test: ``cand`` keeps MIN_SEPARATION from the receptor."""
    return not np.min(np.linalg.norm(receptor - cand[:, None], axis=0)) < MIN_SEPARATION


def _pad_spaced(flat: np.ndarray, direction: np.ndarray, cand: np.ndarray) -> bool:
    """The landing pad's one-candidate test: ``cand`` keeps ``_PAD_SPACING`` from
    each row of ``flat`` in the plane normal to ``direction``."""
    tang = flat - cand
    tang -= np.outer(tang @ direction, direction)
    return not np.min(np.linalg.norm(tang, axis=1)) < _PAD_SPACING


def _landing_pad(rng: np.random.Generator, receptor: np.ndarray,
                 anchor: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Four extra receptor points ringing the anchor at its exposure plane.

    Radii and angles are jittered so the pad pentagon is irregular: the
    matching ligand ring then admits exactly one alignment, making the
    bound orientation recoverable from the geometry.

    Pad point j takes the first candidate ``anchor + radius * (cos(angle) *
    e1 + sin(angle) * e2) + dip * direction``, with the angle jitter, the
    radius and the dip drawn by three scalar ``rng.uniform`` calls, that
    lies at least MIN_SEPARATION from every receptor point and, in the
    exposure plane, at least ``_PAD_SPACING`` from the anchor and the pad
    points placed so far, trying at most ``_PAD_TRIES`` candidates. There is
    no separate test against the pad points in space: the distance in space
    is no shorter than the one in the plane.

    Candidates are drawn a block at a time: one ``rng.uniform(lows, highs,
    size=(m, 3))`` call gives the same numbers as m candidates' scalar
    draws. A point's first block holds ``_PAD_MIN_BLOCK`` candidates, each
    next one ``_PAD_GROWTH`` times as many, capped by the tries left and by
    one tile of m x n receptor distances. Both tests run over the whole
    block, and the point takes the block's first candidate that passes
    them; a distance within ``_TIE`` of its threshold is decided by the
    one-candidate expression (``_pad_clears``, ``_pad_spaced``). ``rng``
    is left as if the candidates had been drawn one at a time: after the
    accepted candidate, or after a failing point's last try.
    """
    e1, e2 = _tangent_basis(direction)
    per_tile = tiles.tile_rows(receptor.shape[1])
    clear_lo, clear_hi = MIN_SEPARATION * (1.0 - _TIE), MIN_SEPARATION * (1.0 + _TIE)
    space_lo, space_hi = _PAD_SPACING * (1.0 - _TIE), _PAD_SPACING * (1.0 + _TIE)
    pad = []
    phase = rng.uniform(0.0, 2.0 * np.pi)
    for j in range(CONTACT_RING - 1):
        flat = np.array(pad + [anchor])
        tried, size = 0, _PAD_MIN_BLOCK
        while True:
            if tried == _PAD_TRIES:
                raise GenerationError("no room for a landing pad point")
            m = min(size, _PAD_TRIES - tried, per_tile)
            saved = rng.bit_generator.state
            jitter, radius, dip = rng.uniform((-0.35, 3.8, -0.4), (0.35, 5.5, 0.0),
                                              size=(m, 3)).T[:, :, None]
            angle = phase + 2.0 * np.pi * (j + 1) / CONTACT_RING + jitter
            cands = anchor + radius * (np.cos(angle) * e1 + np.sin(angle) * e2) + dip * direction
            diff = cands[:, :, None] - receptor
            clearance = np.sqrt(np.einsum("ijk,ijk->ik", diff, diff).min(axis=1))
            tang = flat - cands[:, None]
            tang -= (tang @ direction)[:, :, None] * direction
            spacing = np.sqrt(np.einsum("ijk,ijk->ij", tang, tang).min(axis=1))
            passing = (k for k in np.flatnonzero((clearance >= clear_lo) & (spacing >= space_lo))
                       if (clearance[k] > clear_hi or _pad_clears(receptor, cands[k]))
                       and (spacing[k] > space_hi or _pad_spaced(flat, direction, cands[k])))
            k = next(passing, None)
            if k is not None:
                break
            tried += m
            size *= _PAD_GROWTH
        if k + 1 < m:
            # Leave rng after the accepted candidate: reset, then advance
            # past its block's first k + 1 candidates' doubles.
            rng.bit_generator.state = saved
            rng.random(3 * (k + 1))
        pad.append(cands[k])
    return np.array(pad).T


def _bound_complex(rng: np.random.Generator, n_lig: int, n_rec: int):
    """One attempt at a bound geometry; caller verifies and may retry.

    Returns bound ligand and receptor coordinates; the first CONTACT_RING
    columns on each side are the matched interface residues, in order.
    """
    receptor = _blob(rng, n_rec - (CONTACT_RING - 1), np.zeros(3))
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    heights = direction @ receptor
    anchor = receptor[:, int(np.argmax(heights))]
    pad = _landing_pad(rng, receptor, anchor, direction)
    pad = np.concatenate([anchor[:, None], pad], axis=1)
    top = (direction @ pad).max()
    keep = np.ones(receptor.shape[1], dtype=bool)
    keep[int(np.argmax(heights))] = False
    receptor = np.concatenate([pad, receptor[:, keep]], axis=1)

    # interface ring: each point floats just above its pad partner
    ring = pad + np.outer(direction, top - direction @ pad + CLEARANCE
                          + rng.uniform(0.0, 0.2, size=CONTACT_RING))

    plane = top + CLEARANCE
    lig_center = anchor + (CLEARANCE + _BLOB_RADIUS_COEFF * n_lig ** (1.0 / 3.0) + 2.0) * direction
    ring_points = ring.T.copy()

    def accept(cand: np.ndarray) -> bool:
        if cand @ direction < plane:
            return False
        return np.min(np.linalg.norm(ring_points - cand, axis=1)) >= MIN_SEPARATION

    rest = _blob(rng, n_lig - CONTACT_RING, lig_center, accept=accept)
    ligand = np.concatenate([ring, rest], axis=1)
    return ligand, receptor


def _verify(ligand: np.ndarray, receptor: np.ndarray) -> bool:
    """Enough contacts, no clash, and a numerically zero steric penalty."""
    _, _, d2 = contact_pairs(ligand, receptor, POCKET_TAU)
    return (d2.size >= CONTACT_RING
            and np.sqrt(d2).min() >= CLASH_FLOOR
            and intersection_loss(ligand, receptor).item() <= 0.1)


def _interface_types(rng: np.random.Generator, n: int) -> np.ndarray:
    """Marker types on the first ring positions, background types elsewhere."""
    background = np.array([t for t in range(20) if t not in MARKER_TYPES])
    types = rng.choice(background, size=n)
    types[:CONTACT_RING] = MARKER_TYPES
    return types.astype(np.int64)


def _residue_set(rng: np.random.Generator, ca: np.ndarray, types: np.ndarray,
                 chain: str) -> ResidueSet:
    """Wrap CA positions with randomly oriented backbone frames."""
    n = ca.shape[1]
    e1 = rng.standard_normal((3, n))
    e1 /= np.linalg.norm(e1, axis=0)
    raw = rng.standard_normal((3, n))
    raw -= e1 * np.sum(raw * e1, axis=0)
    raw /= np.linalg.norm(raw, axis=0)
    # place C at 110 degrees from N around each CA
    e2 = np.cos(np.deg2rad(110.0)) * e1 + np.sin(np.deg2rad(110.0)) * raw
    return ResidueSet(
        ca=ca,
        n_atom=ca + 1.46 * e1,
        c_atom=ca + 1.52 * e2,
        types=types,
        names=[RESIDUE_TYPES[t] for t in types],
        chains=[chain] * n,
        seq_ids=[str(i) for i in range(1, n + 1)],
        icodes=[" "] * n,
    )


def generate_pair(rng: np.random.Generator, pair_id: str,
                  min_residues: int = 30, max_residues: int = 80) -> DockingPair:
    """Build one verified pair; deterministic for a given generator state."""
    n_lig = int(rng.integers(min_residues, max_residues + 1))
    n_rec = int(rng.integers(min_residues, max_residues + 1))
    for _ in range(MAX_PAIR_ATTEMPTS):
        try:
            lig_ca, rec_ca = _bound_complex(rng, n_lig, n_rec)
        except GenerationError:
            continue
        if _verify(lig_ca, rec_ca):
            break
    else:
        raise GenerationError(
            f"{pair_id}: no valid geometry in {MAX_PAIR_ATTEMPTS} attempts")

    bound_ligand = _residue_set(rng, lig_ca, _interface_types(rng, n_lig), "A")
    receptor = _residue_set(rng, rec_ca, _interface_types(rng, n_rec), "B")
    move = random_se3(rng)
    return DockingPair(
        pair_id=pair_id,
        ligand=bound_ligand.transformed(move.R, move.t),
        receptor=receptor,
        truth=move.inverse(),
    )


def write_pair(pair: DockingPair, root: str) -> str:
    pair_dir = os.path.join(root, "pairs", pair.pair_id)
    os.makedirs(pair_dir, exist_ok=True)
    with atomic_open(os.path.join(pair_dir, "ligand.pdb"), "w") as fh:
        fh.write(format_ca_pdb(pair.ligand, full_backbone=True))
    with atomic_open(os.path.join(pair_dir, "receptor.pdb"), "w") as fh:
        fh.write(format_ca_pdb(pair.receptor, full_backbone=True))
    with atomic_open(os.path.join(pair_dir, "complex.json"), "w") as fh:
        fh.write(pair.truth.to_json())
        fh.write("\n")
    return pair_dir


def generate_dataset(root: str, n_pairs: int, seed: int = 0,
                     val_fraction: float = 0.15, test_fraction: float = 0.15,
                     min_residues: int = 30, max_residues: int = 80) -> list[str]:
    """Write ``n_pairs`` pairs plus a split file; returns the pair ids.

    Every argument is checked before the first pair, so a refused call writes nothing.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    for name, fraction in (("val_fraction", val_fraction), ("test_fraction", test_fraction)):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {fraction}")
    n_val = int(round(n_pairs * val_fraction))
    n_test = int(round(n_pairs * test_fraction))
    n_train = n_pairs - n_val - n_test
    if n_train < 1:
        raise ValueError(f"val_fraction and test_fraction leave no training pairs of {n_pairs}")
    if not CONTACT_RING <= min_residues <= max_residues:
        raise ValueError(f"min_residues must lie in [{CONTACT_RING}, max_residues], "
                         f"got {min_residues} with max_residues {max_residues}")
    if max_residues > MAX_WRITTEN_RESIDUES:
        raise ValueError(f"max_residues must be <= {MAX_WRITTEN_RESIDUES}: residues are "
                         "numbered from 1 in the 4-column residue number field of a PDB record")
    rng = np.random.default_rng(seed)
    ids = []
    for i in range(n_pairs):
        pair = generate_pair(rng, f"pair{i:04d}", min_residues, max_residues)
        write_pair(pair, root)
        ids.append(pair.pair_id)
    splits = {
        "train": ids[:n_train],
        "val": ids[n_train:n_train + n_val],
        "test": ids[n_train + n_val:],
    }
    with atomic_open(os.path.join(root, "splits.json"), "w") as fh:
        json.dump(splits, fh, indent=2)
        fh.write("\n")
    return ids


def load_pair(pair_dir: str) -> DockingPair:
    ligand = parse_pdb_file(os.path.join(pair_dir, "ligand.pdb"))
    receptor = parse_pdb_file(os.path.join(pair_dir, "receptor.pdb"))
    path = os.path.join(pair_dir, "complex.json")
    payload = read_json(path, DatasetError)
    try:
        truth = RigidTransform.from_payload(payload)
    except ValueError as exc:
        raise DatasetError(f"{path}: {exc}") from None
    return DockingPair(
        pair_id=os.path.basename(os.path.normpath(pair_dir)),
        ligand=ligand, receptor=receptor, truth=truth,
    )


def load_split(root: str, split: str) -> list[DockingPair]:
    path = os.path.join(root, "splits.json")
    splits = read_json(path, DatasetError)
    if not (isinstance(splits, dict) and all(
            isinstance(ids, list) and all(isinstance(pid, str) for pid in ids)
            for ids in splits.values())):
        raise DatasetError(f"{path}: expected an object mapping split names to lists of pair ids")
    if split not in splits:
        raise ValueError(f"unknown split {split!r}; have {sorted(splits)}")
    pair_dirs = [os.path.join(root, "pairs", pid) for pid in splits[split]]
    for pid, pair_dir in zip(splits[split], pair_dirs):
        if pid in ("", ".", "..") or os.path.basename(pid) != pid or not os.path.isdir(pair_dir):
            raise DatasetError(f"{path}: pair id {pid!r} names no directory under pairs/")
    return [load_pair(pair_dir) for pair_dir in pair_dirs]
