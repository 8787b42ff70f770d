"""The per-line PDB reader and mover that ``rigiddock.pdbio`` replaced.

``parse_pdb`` below is the record-at-a-time loop, kept verbatim as the
reference the array-pass reader is compared against: the same residues,
coordinate bits, ``skipped`` count and warning, or the same
``PdbParseError`` message. ``transform_atom_records`` is the line-at-a-time
mover, kept verbatim with its ``_unfit``, that the one-pass mover is
compared against: the same text, or the same error message. Both split
their text with ``lines``, Python's own universal-newline reader.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from rigiddock.pdbio import (TYPE_INDEX, UNK, PdbFormatError, PdbParseError, ResidueSet,
                             _parse_coord, log)


def lines(text: str) -> list[str]:
    """The lines of ``text`` as a file opened in text mode reads them, without their ends."""
    return [line.removesuffix("\n") for line in io.StringIO(text, newline=None)]


@dataclass
class _ResidueAtoms:
    name: str
    chain: str
    seq: str
    icode: str
    atoms: dict = field(default_factory=dict)


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
    for lineno, line in enumerate(lines(text), start=1):
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


def _unfit(where: str, x: float, y: float, z: float) -> PdbFormatError:
    """The error for x, y, z whose ``%8.3f`` columns would not read back as written.

    A value that rounds below -999.999 or above 9999.999 widens its 8-column
    field, and ``parse_pdb`` refuses a non-finite one.
    """
    return PdbFormatError(f"{where}: coordinate ({x}, {y}, {z}) does not fit "
                          "the 8-column PDB field")


def transform_atom_records(text: str, rotation: np.ndarray, translation: np.ndarray) -> str:
    """Rewrite coordinates of every ATOM/HETATM record by x -> R x + t.

    All other columns, and non-atom lines, pass through byte for byte.
    Raises PdbFormatError naming the line when a moved coordinate does not
    fit its field.
    """
    rotation = np.asarray(rotation, dtype=np.float64)
    t = np.asarray(translation, dtype=np.float64).reshape(3)
    out = []
    for lineno, line in enumerate(lines(text), start=1):
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
