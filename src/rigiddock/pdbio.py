"""PDB ingestion and CA-trace output.

Only the fixed-column subset of the format is read: ATOM/HETATM records,
columns 13-16 atom name, 17 altloc, 18-20 residue name, 22 chain id,
23-26 residue sequence number, 27 insertion code, 31-54 coordinates.
A residue is kept when all three backbone atoms (N, CA, C) are present;
the first occurrence wins for duplicated atoms (altloc conformers).

``parse_pdb`` reads in array passes, not line by line. One list pass keeps
the ATOM/HETATM lines, and their first 54 columns become one array of code
points. Atom names, residue keys (chain, number, insertion code) and
residue names are grouped on the raw columns with ``np.unique``; Python's
``str.strip`` runs only on each distinct field, so its whitespace rules
hold exactly. Residues are numbered in first-seen file order, keyed by
(chain, number.strip(), insertion code), and a residue's name comes from
its first kept record. Only the stored atoms' coordinates are converted,
each to the value Python's ``float`` gives its field: in one array pass
when every field has the ``%8.3f`` form, else field by field.

Errors are those of a reader going line by line, in file order:
  - a stored atom (an N, CA or C in a kept chain, first of its residue)
    with a malformed or non-finite field raises for the first bad one of
    x, y, z, with its line number. Three finite fields whose sum would
    overflow are accepted;
  - otherwise the first ATOM/HETATM record shorter than 54 columns raises
    "record too short", even in a chain the filter drops. A bad field in a
    stored atom before it is reported first;
  - otherwise a file with no complete residue raises "zero valid residues".
Line numbers are found by a second scan, on the error path only.

Every reader splits text into lines in one place, ``_lines``: at ``\\n``,
``\\r\\n`` and ``\\r`` only, the universal newlines of ``read_pdb_text``.

Coordinates are read in one place, ``_coordinates``, and written in one,
``_columns``. ``transform_atom_records``, which moves every atom of a file
for ``dock --copy-full-atoms``, reads all its ATOM/HETATM records through
the same ``_coordinates`` under the same rules, a short record included:
a record shorter than 54 columns is an error there too, not a line passed
through unmoved. All of a file's input errors are raised before any
coordinate that does not fit its written field.

Writing is an array pass too. ``format_ca_pdb`` and ``transform_atom_records``
each give all their atoms' coordinates to one ``_columns`` call. It writes
each value from its thousandths count N = rint(fl(1000 x)), using integer
digits, whenever |fl(1000 x) - N| < 0.5 - 1e-6 and N fits the field. For
any value that fits, fl(1000 x) is within 1.2e-9 of 1000 x, so N is what
``%8.3f`` rounds to, and the text is the same byte for byte. A row that
fails this test goes through Python's own ``%8.3f`` instead: a value near
a rounding tie, a non-finite value, or one outside -999.999 to 9999.999.
The errors and their order are the per-record writer's. A residue's label
and serial are built once per residue, not once per atom.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections.abc import Callable
from dataclasses import dataclass

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


def _parse_coord(line: str, lo: int, hi: int, lineno: int) -> float:
    text = line[lo:hi].strip()
    try:
        value = float(text)
    except ValueError:
        raise PdbParseError(f"line {lineno}: malformed coordinate field {text!r}") from None
    if not math.isfinite(value):
        raise PdbParseError(f"line {lineno}: non-finite coordinate {text!r}")
    return value


_RECORDS = ("ATOM  ", "HETATM")
_COLUMNS = 54  # a record's columns through z
_BACKBONE_SLOTS = {"N": 0, "CA": 1, "C": 2}
# the place value of each column's digit in a field written as ``%8.3f``
_PLACES = np.array([1e6, 1e5, 1e4, 1e3, 0.0, 1e2, 1e1, 1e0])


def _groups(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of an (m, w) code-point array.

    Returns the index of each group's first row and each row's group. The
    columns are packed into one int64 key in mixed radix; before a column
    that would overflow the key, the key is replaced by its rank among the
    distinct keys so far. Equal keys therefore mean equal rows.
    """
    key = np.zeros(len(columns), dtype=np.int64)
    span = 1  # every key is below span
    for column in columns.T.astype(np.int64, order="C"):
        base = int(column.max(initial=0)) + 1
        if span * base > 2**63:
            _, key = np.unique(key, return_inverse=True)
            span = len(columns)
        key = key * base + column
        span *= base
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    return first, group


def _lines(text: str) -> list[str]:
    """The lines of ``text``, each ended by ``\\n``, ``\\r\\n`` or ``\\r`` only.

    These are the universal newlines ``read_pdb_text`` folds to ``\\n``; a form
    feed, ``\\x85`` or U+2028 stays inside its line, unlike ``str.splitlines``.
    A final line ending adds no empty line.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")


def _record_lines(text: str) -> list[int]:
    """The line number of every ATOM/HETATM record; only error messages need it."""
    return [n for n, line in enumerate(_lines(text), start=1) if line.startswith(_RECORDS)]


def _fixed_point(fields: np.ndarray) -> np.ndarray | None:
    """The values of (k, 8) code-point fields that all read ``[spaces][-]digits.ddd``.

    That is every field ``%8.3f`` writes. Such a field is N / 1000 for the
    integer N of its digits, negated after a minus. N < 10**7 and 1000 are
    exact doubles, and IEEE division rounds to nearest, so N / 1000 is the
    double nearest the decimal: what Python's ``float`` returns for the same
    text (Clinger's exact case; ``-0.000`` stays -0.0). Returns None when any
    field has another form.
    """
    if fields.max(initial=0) > 127:
        return None
    c = fields.T.astype(np.uint8, order="C")  # one row per column
    digits = c - ord("0")
    digit = digits < 10
    minus = c[:3] == ord("-")
    # columns 1-3 hold spaces, then an optional minus, then digits up to column 4
    lead = (c[:3] == ord(" ")) | ((minus | digit[:3]) & digit[1:4])
    if not (lead.all() and digit[3].all() and (c[4] == ord(".")).all() and digit[5:].all()):
        return None
    # N in floating point is exact: each product and partial sum is an integer below 2**53
    value = _PLACES @ (digits * digit) / 1000.0
    return np.where(minus[0] | minus[1] | minus[2], -value, value)


def _records(lines: list[str]) -> tuple[list[str], int | None, np.ndarray]:
    """The ATOM/HETATM records that precede the first one shorter than 54 columns.

    Returns them, that short record's index or None, and their first 54
    columns as an (m, 54) array of code points.
    """
    records = [line for line in lines if line.startswith(_RECORDS)]
    short = None
    if records and min(map(len, records)) < _COLUMNS:
        short = next(i for i, line in enumerate(records) if len(line) < _COLUMNS)
        del records[short:]  # the records before it are still read for a bad coordinate
    cp = np.array(records, dtype=f"U{_COLUMNS}").view(np.uint32).reshape(-1, _COLUMNS)
    return records, short, cp


def _coordinates(text: str, records: list[str], rows: np.ndarray, block: np.ndarray,
                 short: int | None) -> np.ndarray:
    """x, y, z (one row each) of ``records[rows]``, whose columns 31-54 are ``block``.

    Each value is Python's ``float`` of its field. Fields in the ``%8.3f``
    form of wwPDB files and of ``format_ca_pdb`` are read in one array pass
    (``_fixed_point``). Other files are read record by record in ``rows``
    order with ``_parse_coord``, so the first bad field raises with its line
    number. Then the short record ``short`` of ``_records``, if any, raises.
    """
    xyz = _fixed_point(block.reshape(-1, 8))
    if xyz is None:
        lines = _record_lines(text)
        xyz = np.array([[_parse_coord(records[i], lo, lo + 8, lines[i]) for lo in (30, 38, 46)]
                        for i in rows.tolist()])
    if short is not None:
        raise PdbParseError(f"line {_record_lines(text)[short]}: record too short for coordinates")
    return xyz.reshape(-1, 3)


def parse_pdb(text: str, chain_filter: set[str] | None = None) -> ResidueSet:
    """Parse PDB text into a ResidueSet.

    chain_filter, when given, keeps only records whose chain id is in the set.
    Residues missing any of N/CA/C are dropped and counted in ``skipped``.
    Raises PdbParseError when no complete residue remains.

    The records are read in array passes over their first 54 columns held
    as code points; see the module docstring for the rules and error order.
    """
    records, short, cp = _records(_lines(text))

    # Labels are grouped on their raw columns; Python's str.strip then runs
    # once per distinct field, so its whitespace rules hold exactly.
    first, group = _groups(cp[:, 12:16])
    slot = np.array([_BACKBONE_SLOTS.get(records[i][12:16].strip(), -1) for i in first.tolist()],
                    dtype=np.int64)[group]
    keep = slot >= 0
    if chain_filter is not None:
        chains, group = np.unique(cp[:, 21], return_inverse=True)
        keep &= np.array([chr(c) in chain_filter for c in chains.tolist()], dtype=bool)[group]
    kept = np.flatnonzero(keep)

    # One residue per (chain, number.strip(), icode), numbered in file order;
    # numbers that differ only in their padding name one residue.
    first, group = _groups(cp[kept, 21:27])
    order = np.argsort(first)
    ids: dict[tuple[str, str, str], int] = {}
    residue_of = np.empty(len(first), dtype=np.int64)
    residue_of[order] = [ids.setdefault((line[21], line[22:26].strip(), line[26]), len(ids))
                         for line in map(records.__getitem__, kept[first[order]].tolist())]
    residues = list(ids)
    cell = slot[kept] * len(residues) + residue_of[group]
    _, stored = np.unique(cell, return_index=True)  # first record wins (altloc rule)
    stored.sort()
    rows = kept[stored]  # the stored atoms' records, in file order
    xyz = _coordinates(text, records, rows, cp[rows, 30:54], short)

    atom = np.full((3, len(residues)), -1, dtype=np.int64)  # row in xyz of N, CA and C
    atom.reshape(-1)[cell[stored]] = np.arange(len(stored))
    complete = (atom >= 0).all(axis=0)
    skipped = len(residues) - int(complete.sum())
    if skipped:
        log.warning("skipped %d residue(s) missing backbone atoms", skipped)
    if not complete.any():
        raise PdbParseError(f"zero valid residues ({skipped} skipped as incomplete)")

    atom = atom[:, complete]
    # (atom, axis, residue), so each atom's 3 x n block is C-contiguous
    n_atom, ca, c_atom = xyz[atom].transpose(0, 2, 1).copy()
    named = rows[atom].min(axis=0)  # each residue's first kept record names it
    first, group = _groups(cp[named, 17:20])
    names = [records[i][17:20].strip() for i in named[first].tolist()]
    types = np.array([TYPE_INDEX.get(name, TYPE_INDEX[UNK]) for name in names],
                     dtype=np.int64)[group]
    chains, seq_ids, icodes = map(list, zip(*itertools.compress(residues, complete.tolist())))
    return ResidueSet(
        ca=ca,
        n_atom=n_atom,
        c_atom=c_atom,
        types=types,
        names=list(map(names.__getitem__, group.tolist())),
        chains=chains,
        seq_ids=seq_ids,
        icodes=icodes,
        skipped=skipped,
    )


def read_pdb_text(path: str) -> str:
    """A PDB file's text: UTF-8, with each undecodable byte read as U+FFFD."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read()


def parse_pdb_file(path: str, chain_filter: set[str] | None = None) -> ResidueSet:
    return parse_pdb(read_pdb_text(path), chain_filter)


def _digit_rows(values: np.ndarray, width: int) -> np.ndarray:
    """Code points of non-negative integers below 10**width, as ``%{width}d`` writes them.

    Row j of the (width, k) result holds each value's digit of place
    10**(width - 1 - j), or a space where that digit is a leading zero; the
    last row is always a digit.
    """
    rows = np.empty((width, len(values)), dtype=np.uint32)
    rest = values.astype(np.uint32)
    for j in range(width - 1, -1, -1):
        # a uint32 division by a scalar is a multiply and a shift, unlike an int64 one
        digit, rest = rest, rest // 10
        rows[j] = digit - 10 * rest + ord("0")
    np.copyto(rows[:-1], ord(" "), where=values < 10 ** np.arange(width - 1, 0, -1)[:, None])
    return rows


def _columns(xyz: np.ndarray, where: Callable[[int], str]) -> list[str]:
    """Columns 31-54 of m atom records: each row x, y, z of an (m, 3) array as ``%8.3f``.

    A value x is written from N = rint(fl(1000 x)), its thousandths, when
    |fl(1000 x) - N| < 0.5 - 1e-6 and N fits the field: -999,999 <= N <=
    9,999,999. Then N is 1000 x correctly rounded, as ``%8.3f`` rounds it:
    fl(1000 x) is within 2**-53 |1000 x| < 1.2e-9 of 1000 x, too little to
    move it across a rounding boundary. The digits come from N in integer
    arithmetic and the sign from ``np.signbit(x)``, so -0.0 and -0.0004 give
    ``-0.000`` as Python does. A row with another value (near a tie, not
    finite, or outside -999.999 to 9999.999) is written with Python's own
    ``%8.3f``, in row order. The first of those that would not read back
    raises PdbFormatError naming ``where(row)``: one that rounds below
    -999.999 or above 9999.999 widens its 8-column field, and ``parse_pdb``
    refuses a non-finite one.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = 1000.0 * xyz
        thousandths = np.rint(scaled)
        fast = ((np.abs(scaled - thousandths) < 0.5 - 1e-6) & (thousandths >= -999_999)
                & (thousandths <= 9_999_999)).all(axis=1)
    n = np.abs(np.where(fast[:, None], thousandths, 0.0)).astype(np.uint32).reshape(-1)
    units = n // 1000
    rows = np.empty((8, len(n)), dtype=np.uint32)  # one column per value
    rows[:4] = _digit_rows(units, 4)
    rows[4] = ord(".")
    rows[5:] = _digit_rows(n - 1000 * units + 1000, 4)[1:]  # zero-padded
    # the minus goes in the last space before the digits; a fast negative value has one
    blank = rows[:4] == ord(" ")
    np.copyto(rows[:3], ord("-"),
              where=blank[:3] & ~blank[1:] & np.signbit(xyz).reshape(-1) & fast.repeat(3))
    columns = np.ascontiguousarray(rows.T).reshape(-1, 24).view("U24")[:, 0].tolist()
    for row in np.flatnonzero(~fast).tolist():
        x, y, z = xyz[row].tolist()
        columns[row] = f"{x:8.3f}{y:8.3f}{z:8.3f}"
        if len(columns[row]) != 24 or not math.isfinite(x + y + z):
            raise PdbFormatError(f"{where(row)}: coordinate ({x}, {y}, {z}) does not fit "
                                 "the 8-column PDB field")
    return columns


def _residue(rs: ResidueSet, i: int) -> str:
    return f"residue {rs.chains[i]}:{rs.seq_ids[i]}{rs.icodes[i].strip()}"


def format_ca_pdb(rs: ResidueSet, full_backbone: bool = False) -> str:
    """Render a ResidueSet as PDB text, CA records only by default.

    full_backbone additionally writes the N and C records; used by the
    synthetic dataset writer so the files round-trip through parse_pdb.
    Raises PdbFormatError naming the residue when a coordinate does not fit
    its field, a residue name is wider than 3 columns, a residue number
    wider than 4, or a chain id or insertion code is not 1 character; a
    residue's label is checked before its coordinates. The atom serial,
    which ``parse_pdb`` does not read, is written modulo 100,000, so that it
    keeps its 5 columns from atom 100,000 on.
    """
    atoms = [(" N", rs.n_atom), (" CA", rs.ca), (" C", rs.c_atom)] if full_backbone \
        else [(" CA", rs.ca)]
    labels = []
    for name, chain, seq, icode in zip(rs.names, rs.chains, rs.seq_ids, rs.icodes):
        if len(name) > 3 or len(seq) > 4 or len(chain) != 1 or len(icode) != 1:
            break
        labels.append(f"{name:>3s} {chain}{seq:>4s}{icode}   ")
    per = len(atoms)
    # (residue, atom, axis): one residue's records are adjacent rows, in atom order
    xyz = np.stack([np.asarray(a, dtype=np.float64)[:, :len(labels)] for _, a in atoms], axis=1).T
    columns = _columns(xyz.reshape(-1, 3), lambda row: _residue(rs, row // per))
    if len(labels) < len(rs.names):
        i = len(labels)
        raise PdbFormatError(
            f"{_residue(rs, i)}: name {rs.names[i]!r}, chain {rs.chains[i]!r}, number "
            f"{rs.seq_ids[i]!r} or insertion code {rs.icodes[i]!r} does not fit its PDB columns")
    serials = _digit_rows(np.arange(1, len(columns) + 1) % 100_000, 5)
    serials = np.ascontiguousarray(serials.T).view("U5")[:, 0].tolist()
    records = ["END"] * (len(columns) + 1)  # the atom records, then END
    for j, (atom, _) in enumerate(atoms):
        head, tail = f"{atom:<4s}", f"  1.00  0.00          {atom.strip()[0]:>2s}"
        records[j:-1:per] = [f"ATOM  {serial} {head} {label}{column}{tail}"
                             for serial, label, column in zip(serials[j::per], labels,
                                                              columns[j::per])]
    return "\n".join(records) + "\n"


def transform_atom_records(text: str, rotation: np.ndarray, translation: np.ndarray) -> str:
    """Rewrite coordinates of every ATOM/HETATM record by x -> R x + t.

    All other columns, and non-atom lines, pass through byte for byte. Input
    errors are ``parse_pdb``'s, a short record included; only then does a moved
    coordinate that does not fit its field raise PdbFormatError naming the line.
    """
    lines = _lines(text)
    records, short, cp = _records(lines)
    xyz = _coordinates(text, records, np.arange(len(records)), cp[:, 30:], short)
    # a 3 x 3 by 3 x 1 product per record rounds as R @ x + t on one record does;
    # one R @ X over all records would round some values differently
    moved = np.matmul(np.asarray(rotation, dtype=np.float64)[None], xyz[:, :, None])[:, :, 0]
    moved += np.asarray(translation, dtype=np.float64).reshape(3)
    columns = iter(_columns(moved, lambda row: f"line {_record_lines(text)[row]}"))
    for i, line in enumerate(lines):
        if line.startswith(_RECORDS):
            lines[i] = line[:30] + next(columns) + line[54:]
    return "\n".join(lines) + "\n"


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
