"""The per-line PDB reader that ``rigiddock.pdbio.parse_pdb`` replaced.

``parse_pdb`` below is the record-at-a-time loop, kept verbatim as the
reference the array-pass reader is compared against: the same residues,
coordinate bits, ``skipped`` count and warning, or the same
``PdbParseError`` message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from rigiddock.pdbio import TYPE_INDEX, UNK, PdbParseError, ResidueSet, _parse_coord, log


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
