"""PDB ingestion and CA-trace output.

Only the fixed-column subset of the format is read: ATOM/HETATM records,
columns 13-16 atom name, 17 altloc, 18-20 residue name, 22 chain id,
23-26 residue sequence number, 27 insertion code, 31-54 coordinates.
A residue is kept when all three backbone atoms (N, CA, C) are present;
the first occurrence wins for duplicated atoms (altloc conformers).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

AMINO_ACIDS = (
    "ALA", "ARG", "ASN", "ASP", "CYS", "GLN", "GLU", "GLY", "HIS", "ILE",
    "LEU", "LYS", "MET", "PHE", "PRO", "SER", "THR", "TRP", "TYR", "VAL",
)
UNK = "UNK"
RESIDUE_TYPES = AMINO_ACIDS + (UNK,)
TYPE_INDEX = {name: i for i, name in enumerate(RESIDUE_TYPES)}


class PdbParseError(ValueError):
    pass


class PdbFormatError(ValueError):
    """A coordinate or residue label does not fit its columns of a PDB atom record."""


@dataclass
class ResidueSet:
    """Backbone coordinates and identity of every complete residue, in file order.

    Coordinate arrays are 3 x n (Angstroms). ``seq_ids`` keeps the residue
    number and insertion code exactly as written; they are opaque labels.
    """

    ca: np.ndarray
    n_atom: np.ndarray
    c_atom: np.ndarray
    types: np.ndarray
    names: list[str]
    chains: list[str]
    seq_ids: list[str]
    icodes: list[str]
    skipped: int = 0

    def __len__(self) -> int:
        return self.ca.shape[1]

    def transformed(self, rotation: np.ndarray, translation: np.ndarray) -> "ResidueSet":
        """Rigidly move every backbone atom: x -> R x + t."""
        rotation = np.asarray(rotation, dtype=np.float64)
        t = np.asarray(translation, dtype=np.float64).reshape(3, 1)
        return ResidueSet(
            ca=rotation @ self.ca + t,
            n_atom=rotation @ self.n_atom + t,
            c_atom=rotation @ self.c_atom + t,
            types=self.types.copy(),
            names=list(self.names),
            chains=list(self.chains),
            seq_ids=list(self.seq_ids),
            icodes=list(self.icodes),
            skipped=self.skipped,
        )


@dataclass
class _ResidueAtoms:
    name: str
    chain: str
    seq: str
    icode: str
    atoms: dict = field(default_factory=dict)


def _parse_coord(line: str, lo: int, hi: int, lineno: int) -> float:
    text = line[lo:hi].strip()
    try:
        value = float(text)
    except ValueError:
        raise PdbParseError(f"line {lineno}: malformed coordinate field {text!r}") from None
    if not math.isfinite(value):
        raise PdbParseError(f"line {lineno}: non-finite coordinate {text!r}")
    return value


def parse_pdb(text: str, chain_filter: set[str] | None = None) -> ResidueSet:
    """Parse PDB text into a ResidueSet.

    chain_filter, when given, keeps only records whose chain id is in the set.
    Residues missing any of N/CA/C are dropped and counted in ``skipped``.
    Raises PdbParseError when no complete residue remains.
    """
    residues: dict[tuple[str, str, str], _ResidueAtoms] = {}  # in file order
    # x, y, z of every stored atom; ``atoms`` maps an atom name to its row.
    # Plain floats rather than a tuple per atom: fewer objects the garbage
    # collector counts.
    coords: list[float] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        record = line[:6]
        if record not in ("ATOM  ", "HETATM"):
            continue
        if len(line) < 54:
            raise PdbParseError(f"line {lineno}: record too short for coordinates")
        chain = line[21]
        if chain_filter is not None and chain not in chain_filter:
            continue
        atom = line[12:16].strip()
        if atom not in ("N", "CA", "C"):
            continue
        key = (chain, line[22:26].strip(), line[26])
        entry = residues.get(key)
        if entry is None:
            entry = _ResidueAtoms(
                name=line[17:20].strip(), chain=key[0], seq=key[1], icode=key[2]
            )
            residues[key] = entry
        if atom in entry.atoms:
            continue  # first occurrence wins (altloc rule)
        try:
            x, y, z = float(line[30:38]), float(line[38:46]), float(line[46:54])
        except ValueError:
            x = y = z = math.nan
        if not math.isfinite(x + y + z):
            # the checked parse names the first bad field (or, if the sum
            # merely overflowed, returns the same three values)
            x, y, z = (_parse_coord(line, lo, lo + 8, lineno) for lo in (30, 38, 46))
        entry.atoms[atom] = len(coords) // 3
        coords.append(x)
        coords.append(y)
        coords.append(z)

    kept = []
    skipped = 0
    for entry in residues.values():
        if len(entry.atoms) == 3:  # only N, CA and C are ever stored
            kept.append(entry)
        else:
            skipped += 1
    if skipped:
        log.warning("skipped %d residue(s) missing backbone atoms", skipped)
    if not kept:
        raise PdbParseError(f"zero valid residues ({skipped} skipped as incomplete)")

    rows = np.array([(e.atoms["N"], e.atoms["CA"], e.atoms["C"]) for e in kept]).T
    # (atom, axis, residue), so each atom's 3 x n block is C-contiguous
    xyz = np.array(coords).reshape(-1, 3)[rows].transpose(0, 2, 1).copy()
    n_atom, ca, c_atom = xyz
    types = np.array([TYPE_INDEX.get(e.name, TYPE_INDEX[UNK]) for e in kept], dtype=np.int64)
    return ResidueSet(
        ca=ca,
        n_atom=n_atom,
        c_atom=c_atom,
        types=types,
        names=[e.name for e in kept],
        chains=[e.chain for e in kept],
        seq_ids=[e.seq for e in kept],
        icodes=[e.icode for e in kept],
        skipped=skipped,
    )


def parse_pdb_file(path: str, chain_filter: set[str] | None = None) -> ResidueSet:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return parse_pdb(fh.read(), chain_filter)


def _unfit(where: str, x: float, y: float, z: float) -> PdbFormatError:
    """The error for x, y, z whose ``%8.3f`` columns would not read back as written.

    A value that rounds below -999.999 or above 9999.999 widens its 8-column
    field, and ``parse_pdb`` refuses a non-finite one.
    """
    return PdbFormatError(f"{where}: coordinate ({x}, {y}, {z}) does not fit "
                          "the 8-column PDB field")


def format_ca_pdb(rs: ResidueSet, full_backbone: bool = False) -> str:
    """Render a ResidueSet as PDB text, CA records only by default.

    full_backbone additionally writes the N and C records; used by the
    synthetic dataset writer so the files round-trip through parse_pdb.
    Raises PdbFormatError naming the residue when a coordinate does not fit
    its field, a residue name is wider than 3 columns, a residue number
    wider than 4, or a chain id or insertion code is not 1 character. The
    atom serial, which ``parse_pdb`` does not read, is written modulo
    100,000, so that it keeps its 5 columns from atom 100,000 on.
    """
    atoms = [(" N", rs.n_atom), (" CA", rs.ca), (" C", rs.c_atom)] if full_backbone \
        else [(" CA", rs.ca)]
    columns = [(f"{atom:<4s}", f"{atom.strip()[0]:>2s}", xyz.T.tolist()) for atom, xyz in atoms]
    lines = []
    serial = 1
    for i, (name, chain, seq, icode) in enumerate(
            zip(rs.names, rs.chains, rs.seq_ids, rs.icodes)):
        if len(name) > 3 or len(seq) > 4 or len(chain) != 1 or len(icode) != 1:
            raise PdbFormatError(
                f"residue {chain}:{seq}{icode.strip()}: name {name!r}, chain {chain!r}, number "
                f"{seq!r} or insertion code {icode!r} does not fit its PDB columns")
        residue = f"{name:>3s} {chain}{seq:>4s}{icode}   "
        for atom, element, coords in columns:
            x, y, z = coords[i]
            xyz = f"{x:8.3f}{y:8.3f}{z:8.3f}"
            if len(xyz) != 24 or not math.isfinite(x + y + z):
                raise _unfit(f"residue {chain}:{seq}{icode.strip()}", x, y, z)
            lines.append(f"ATOM  {serial % 100_000:5d} {atom} {residue}{xyz}"
                         f"  1.00  0.00          {element}")
            serial += 1
    lines.append("END")
    return "\n".join(lines) + "\n"


def transform_atom_records(text: str, rotation: np.ndarray, translation: np.ndarray) -> str:
    """Rewrite coordinates of every ATOM/HETATM record by x -> R x + t.

    All other columns, and non-atom lines, pass through byte for byte.
    Raises PdbFormatError naming the line when a moved coordinate does not
    fit its field.
    """
    rotation = np.asarray(rotation, dtype=np.float64)
    t = np.asarray(translation, dtype=np.float64).reshape(3)
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line[:6] in ("ATOM  ", "HETATM") and len(line) >= 54:
            xyz = np.array([
                _parse_coord(line, 30, 38, lineno),
                _parse_coord(line, 38, 46, lineno),
                _parse_coord(line, 46, 54, lineno),
            ])
            x, y, z = (rotation @ xyz + t).tolist()
            coords = f"{x:8.3f}{y:8.3f}{z:8.3f}"
            if len(coords) != 24 or not math.isfinite(x + y + z):
                raise _unfit(f"line {lineno}", x, y, z)
            line = line[:30] + coords + line[54:]
        out.append(line)
    return "\n".join(out) + "\n"


def local_frames(rs: ResidueSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-residue orthonormal basis (n, u, v), each 3 x n.

    u is the unit CA->N vector, t the unit CA->C vector, n the unit normal
    u x t, and v = n x u. Raises PdbParseError naming the residue when the
    backbone is degenerate or collinear (||u x t|| <= 1e-6 after
    normalization).
    """
    u = rs.n_atom - rs.ca
    t = rs.c_atom - rs.ca
    u_norm = np.linalg.norm(u, axis=0)
    t_norm = np.linalg.norm(t, axis=0)
    bad = np.where((u_norm < 1e-12) | (t_norm < 1e-12))[0]
    if bad.size:
        i = int(bad[0])
        raise PdbParseError(f"degenerate backbone at residue {rs.chains[i]}:{rs.seq_ids[i]}")
    u = u / u_norm
    t = t / t_norm
    n = np.cross(u, t, axis=0)
    n_norm = np.linalg.norm(n, axis=0)
    bad = np.where(n_norm <= 1e-6)[0]
    if bad.size:
        i = int(bad[0])
        raise PdbParseError(f"collinear backbone at residue {rs.chains[i]}:{rs.seq_ids[i]}")
    n = n / n_norm
    v = np.cross(n, u, axis=0)
    return n, u, v
