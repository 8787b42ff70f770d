"""PDB parsing, CA writing, and local frame construction."""

import itertools
import logging
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_pdb
from conftest import DATA_DIR, random_residue_set
from rigiddock import pdbio
from rigiddock.geometry import random_rotation

ALA_LINES = """\
ATOM      1  N   ALA A   1       1.460   0.000   0.000  1.00  0.00           N
ATOM      2  CA  ALA A   1       0.000   0.000   0.000  1.00  0.00           C
ATOM      3  C   ALA A   1       0.000   1.520   0.000  1.00  0.00           C
END
"""


def _independent_read(text):
    """Second opinion on the fixture: group raw atom tuples per residue."""
    atoms = []
    for line in text.splitlines():
        if not line.startswith(("ATOM", "HETATM")):
            continue
        atoms.append((
            line[21] + "|" + line[22:27].strip(),
            line[12:16].strip(),
            line[17:20].strip(),
            np.array([float(line[i:i + 8]) for i in (30, 38, 46)]),
        ))
    residues = []
    for key, group in itertools.groupby(atoms, key=lambda a: a[0]):
        entries = {a[1]: (a[2], a[3]) for a in group}
        if {"N", "CA", "C"} <= set(entries):
            residues.append((key, entries["CA"][0], {k: v[1] for k, v in entries.items()}))
    return residues


def test_single_residue():
    rs = pdbio.parse_pdb(ALA_LINES)
    assert len(rs) == 1
    assert rs.names == ["ALA"]
    assert rs.types[0] == pdbio.TYPE_INDEX["ALA"]
    np.testing.assert_allclose(rs.ca[:, 0], [0, 0, 0])
    np.testing.assert_allclose(rs.n_atom[:, 0], [1.46, 0, 0])


def test_missing_backbone_atom_is_an_error_when_nothing_remains():
    text = "\n".join(l for l in ALA_LINES.splitlines() if " N  " not in l)
    with pytest.raises(pdbio.PdbParseError, match="zero valid residues.*1 skipped"):
        pdbio.parse_pdb(text)


def test_incomplete_residues_are_counted():
    text = ALA_LINES.replace("END", "") + """\
ATOM      4  CA  GLY A   2       5.000   0.000   0.000  1.00  0.00           C
END
"""
    rs = pdbio.parse_pdb(text)
    assert len(rs) == 1
    assert rs.skipped == 1


def test_fixture_matches_independent_reader(fixture20_text):
    rs = pdbio.parse_pdb(fixture20_text)
    assert len(rs) == 20
    other = _independent_read(fixture20_text)
    assert len(other) == 20
    for i, (_, name, coords) in enumerate(other):
        assert rs.names[i] == name
        np.testing.assert_allclose(rs.ca[:, i], coords["CA"], atol=1e-12)
        np.testing.assert_allclose(rs.n_atom[:, i], coords["N"], atol=1e-12)
        np.testing.assert_allclose(rs.c_atom[:, i], coords["C"], atol=1e-12)
    # author order: the fixture walks the 20 standard residue types in order
    assert rs.names == list(pdbio.AMINO_ACIDS)


def test_altloc_first_occurrence_wins():
    text = ALA_LINES.replace("END", "") + (
        "ATOM      4  CA BALA A   1       9.000   9.000   9.000"
        "  1.00  0.00           C\nEND\n"
    )
    rs = pdbio.parse_pdb(text)
    np.testing.assert_allclose(rs.ca[:, 0], [0, 0, 0])


def test_chain_filter():
    text = ALA_LINES.replace("END", "") + """\
ATOM      4  N   GLY B   1       0.000   0.000   6.460  1.00  0.00           N
ATOM      5  CA  GLY B   1       0.000   0.000   5.000  1.00  0.00           C
ATOM      6  C   GLY B   1       0.000   1.520   5.000  1.00  0.00           C
END
"""
    assert pdbio.parse_pdb(text).names == ["ALA", "GLY"]
    assert pdbio.parse_pdb(text, chain_filter={"B"}).names == ["GLY"]
    assert pdbio.parse_pdb(text, chain_filter={"A"}).names == ["ALA"]


def test_malformed_coordinate_reports_line_number():
    bad = ALA_LINES.replace("   0.000   0.000   0.000", "   0.0x0   0.000   0.000")
    with pytest.raises(pdbio.PdbParseError, match="line 2"):
        pdbio.parse_pdb(bad)


@pytest.mark.parametrize("field", ["     nan", "     inf", "    -inf", "     NaN"])
def test_non_finite_coordinate_reports_line_number(field):
    bad = ALA_LINES.replace("   0.000   0.000   0.000", f"   0.000{field}   0.000")
    with pytest.raises(pdbio.PdbParseError, match="line 2: non-finite coordinate"):
        pdbio.parse_pdb(bad)


@pytest.mark.parametrize("fields, message", [
    ("   0.0x0     nan   0.000", "line 2: malformed coordinate field '0.0x0'"),
    ("     nan   0.0x0   0.000", "line 2: non-finite coordinate 'nan'"),
    ("   0.000   0.000        ", "line 2: malformed coordinate field ''"),
])
def test_first_bad_coordinate_field_is_reported(fields, message):
    bad = ALA_LINES.replace("   0.000   0.000   0.000", fields)
    with pytest.raises(pdbio.PdbParseError, match=message):
        pdbio.parse_pdb(bad)


def test_bad_coordinate_in_the_first_record_is_reported():
    bad = ALA_LINES.replace("   1.460   0.000   0.000", "   1.460   0.0y0   0.000")
    with pytest.raises(pdbio.PdbParseError, match="line 1: malformed coordinate field '0.0y0'"):
        pdbio.parse_pdb(bad)


def test_large_finite_coordinates_parse():
    """Fields whose sum overflows are still three finite values."""
    text = ALA_LINES.replace("   0.000   0.000   0.000", "   1e308-1.7e308   1e308")
    rs = pdbio.parse_pdb(text)
    np.testing.assert_array_equal(rs.ca[:, 0], [1e308, -1.7e308, 1e308])
    assert rs.ca.flags.c_contiguous and rs.n_atom.flags.c_contiguous


def test_nonstandard_residue_maps_to_unk():
    text = ALA_LINES.replace("ALA", "MSE")
    rs = pdbio.parse_pdb(text)
    assert rs.types[0] == pdbio.TYPE_INDEX[pdbio.UNK]
    assert rs.names == ["MSE"]


def test_hetatm_records_are_read():
    text = ALA_LINES.replace("ATOM  ", "HETATM")
    assert len(pdbio.parse_pdb(text)) == 1


def test_frames_axis_aligned_case():
    rs = pdbio.parse_pdb(ALA_LINES)
    n, u, v = pdbio.local_frames(rs)
    np.testing.assert_allclose(u[:, 0], [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(n[:, 0], [0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(v[:, 0], [0, 1, 0], atol=1e-12)


def test_frames_rotate_with_the_residues(fixture20_text):
    rs = pdbio.parse_pdb(fixture20_text)
    n, u, v = pdbio.local_frames(rs)
    rng = np.random.default_rng(3)
    for _ in range(5):
        q = random_rotation(rng)
        g = rng.uniform(-20, 20, size=3)
        n2, u2, v2 = pdbio.local_frames(rs.transformed(q, g))
        np.testing.assert_allclose(n2, q @ n, atol=1e-10)
        np.testing.assert_allclose(u2, q @ u, atol=1e-10)
        np.testing.assert_allclose(v2, q @ v, atol=1e-10)


def test_frames_orthonormal(fixture20_text):
    rs = pdbio.parse_pdb(fixture20_text)
    n, u, v = pdbio.local_frames(rs)
    for a, b in ((n, u), (n, v), (u, v)):
        assert np.max(np.abs(np.sum(a * b, axis=0))) <= 1e-10
    for a in (n, u, v):
        np.testing.assert_allclose(np.linalg.norm(a, axis=0), 1.0, atol=1e-10)


def test_collinear_backbone_names_residue():
    text = ALA_LINES.replace("   0.000   1.520   0.000", "   2.920   0.000   0.000")
    rs = pdbio.parse_pdb(text)
    with pytest.raises(ValueError, match="A:1"):
        pdbio.local_frames(rs)



def test_degenerate_backbone_names_the_residue_with_its_insertion_code():
    """Residues 12 and 12A are told apart, with the label the writer uses."""
    text = (ALA_LINES.replace("A   1 ", "A  12A")
            .replace("   1.460   0.000   0.000", "   0.000   0.000   0.000"))
    rs = pdbio.parse_pdb(text)
    assert (rs.chains, rs.seq_ids, rs.icodes) == (["A"], ["12"], ["A"])
    with pytest.raises(pdbio.PdbParseError, match="degenerate backbone at residue A:12A$"):
        pdbio.local_frames(rs)

def test_ca_pdb_round_trip(fixture20_text):
    rs = pdbio.parse_pdb(fixture20_text)
    out = pdbio.format_ca_pdb(rs, full_backbone=True)
    back = pdbio.parse_pdb(out)
    assert back.names == rs.names
    assert back.seq_ids == rs.seq_ids
    np.testing.assert_allclose(back.ca, rs.ca, atol=1e-3)
    np.testing.assert_allclose(back.n_atom, rs.n_atom, atol=1e-3)


def reference_format_ca_pdb(rs, full_backbone=False):
    """The record-at-a-time writer ``format_ca_pdb`` replaced."""
    def atom_line(serial, atom, name, chain, seq, icode, xyz):
        return (f"ATOM  {serial:5d} {atom:<4s} {name:>3s} {chain:1s}{seq:>4s}{icode:1s}   "
                f"{xyz[0]:8.3f}{xyz[1]:8.3f}{xyz[2]:8.3f}  1.00  0.00          "
                f"{atom.strip()[0]:>2s}")

    lines, serial = [], 1
    for i in range(len(rs)):
        args = (rs.names[i], rs.chains[i], rs.seq_ids[i], rs.icodes[i])
        atoms = ((" N", rs.n_atom), (" CA", rs.ca), (" C", rs.c_atom)) if full_backbone \
            else ((" CA", rs.ca),)
        for atom, xyz in atoms:
            lines.append(atom_line(serial, atom, *args, xyz[:, i]))
            serial += 1
    lines.append("END")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("full_backbone", [False, True])
def test_format_ca_pdb_matches_record_at_a_time_writer(fixture20_text, full_backbone):
    rs = pdbio.parse_pdb(fixture20_text)
    rs.seq_ids[3], rs.icodes[3] = "117", "A"
    # signed zeros, rounding ties and the widest values that fit the field
    rs.ca[:, :6] = [[-0.0, 0.0005, -0.0005, 9999.9995, -999.9994, 9999.999],
                    [0.0004999, 2.5e-4, -2.5e-4, -999.999, 1e-300, 1000.0],
                    [999.9995, -999.4995, 0.1235, 0.1245, 3.0, -7.0]]
    assert pdbio.format_ca_pdb(rs, full_backbone) == reference_format_ca_pdb(rs, full_backbone)


@pytest.mark.parametrize("value", [1e5, -12345.6789, 10000.0, -999.9995, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("full_backbone", [False, True])
def test_format_ca_pdb_refuses_a_coordinate_outside_the_field(fixture20_text, value,
                                                              full_backbone):
    rs = pdbio.parse_pdb(fixture20_text)
    rs.ca[1, 3] = value
    with pytest.raises(pdbio.PdbFormatError,
                       match=f"residue {rs.chains[3]}:{rs.seq_ids[3]}: coordinate"):
        pdbio.format_ca_pdb(rs, full_backbone)


def test_written_backbone_past_atom_99999_reads_back():
    # 33,400 residues, four chains numbered 1..8350: 100,200 atom records
    n = 33_400
    chains = [c for c in "ABCD" for _ in range(n // 4)]
    seq_ids = [str(i) for _ in range(4) for i in range(1, n // 4 + 1)]
    ca = np.random.default_rng(0).uniform(-900.0, 900.0, size=(3, n))
    rs = pdbio.ResidueSet(ca=ca, n_atom=ca + [[1.46], [0.0], [0.0]],
                          c_atom=ca + [[0.0], [1.52], [0.0]], types=np.zeros(n, dtype=np.int64),
                          names=["ALA"] * n, chains=chains, seq_ids=seq_ids, icodes=[" "] * n)
    text = pdbio.format_ca_pdb(rs, full_backbone=True)
    lines = text.splitlines()
    assert lines[99_999][6:11] == "    0" and lines[100_000][6:11] == "    1"
    assert {len(line) for line in lines[:-1]} == {78}
    back = pdbio.parse_pdb(text)
    assert back.chains == chains and back.seq_ids == seq_ids
    np.testing.assert_allclose(back.ca, ca, atol=5e-4)
    assert pdbio.format_ca_pdb(back, full_backbone=True) == text


@pytest.mark.parametrize("field, value", [
    ("seq_ids", "10000"), ("names", "ALAX"), ("chains", "AB"), ("chains", ""),
    ("icodes", ""), ("icodes", "AB"),
])
@pytest.mark.parametrize("full_backbone", [False, True])
def test_format_ca_pdb_refuses_a_label_wider_than_its_columns(fixture20_text, field, value,
                                                              full_backbone):
    rs = pdbio.parse_pdb(fixture20_text)
    getattr(rs, field)[3] = value
    where = f"residue {rs.chains[3]}:{rs.seq_ids[3]}{rs.icodes[3].strip()}: "
    with pytest.raises(pdbio.PdbFormatError, match=where + f".*{value!r}.* does not fit"):
        pdbio.format_ca_pdb(rs, full_backbone)


@pytest.mark.parametrize("translation, lineno", [((10000.0, 0.0, 0.0), 1),
                                                  ((-1000.0, 0.0, 0.0), 2)])
def test_transform_atom_records_refuses_a_coordinate_outside_the_field(translation, lineno):
    with pytest.raises(pdbio.PdbFormatError, match=f"line {lineno}: coordinate"):
        pdbio.transform_atom_records(ALA_LINES, np.eye(3), np.array(translation))


def test_ca_only_output_has_no_n_records(fixture20_text):
    rs = pdbio.parse_pdb(fixture20_text)
    out = pdbio.format_ca_pdb(rs)
    assert " CA " in out and " N  " not in out
    with pytest.raises(pdbio.PdbParseError):
        pdbio.parse_pdb(out)  # CA alone is not a complete residue


def test_transform_atom_records_moves_only_coordinates(fixture20_text):
    rng = np.random.default_rng(5)
    q = random_rotation(rng)
    g = rng.uniform(-10, 10, size=3)
    moved = pdbio.transform_atom_records(fixture20_text, q, g)
    orig_lines = fixture20_text.splitlines()
    new_lines = moved.splitlines()
    assert len(orig_lines) == len(new_lines)
    for old, new in zip(orig_lines, new_lines):
        if not old.startswith("ATOM"):
            assert old == new
            continue
        assert old[:30] == new[:30] and old[54:] == new[54:]
        xyz = np.array([float(old[i:i + 8]) for i in (30, 38, 46)])
        moved_xyz = np.array([float(new[i:i + 8]) for i in (30, 38, 46)])
        np.testing.assert_allclose(moved_xyz, q @ xyz + g, atol=1e-3)


def test_transformed_residue_set_moves_all_atoms(fixture20_text):
    rs = pdbio.parse_pdb(fixture20_text)
    rng = np.random.default_rng(6)
    q = random_rotation(rng)
    g = rng.uniform(-10, 10, size=3)
    moved = rs.transformed(q, g)
    np.testing.assert_allclose(moved.ca, q @ rs.ca + g[:, None], atol=1e-12)
    np.testing.assert_allclose(moved.c_atom, q @ rs.c_atom + g[:, None], atol=1e-12)


_LABEL = "ABCXYZ019"
_RESIDUES = st.lists(
    st.tuples(st.text(_LABEL, min_size=1, max_size=3),        # name
              st.sampled_from(" AB9"),                        # chain
              st.integers(-999, 9999).map(str),               # sequence number
              st.sampled_from(" AZ")),                        # insertion code
    min_size=1, max_size=8, unique_by=lambda r: (r[1], r[2], r[3]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_RESIDUES, st.data())
def test_property_written_backbone_reads_back_to_the_same_text(residues, data):
    """For coordinates inside the field, write -> parse -> write repeats the text byte for byte."""
    n = len(residues)
    xyz = data.draw(st.lists(st.floats(-999.999, 9999.999), min_size=9 * n, max_size=9 * n))
    n_atom, ca, c_atom = np.array(xyz).reshape(3, 3, n)
    names, chains, seq_ids, icodes = (list(column) for column in zip(*residues))
    rs = pdbio.ResidueSet(ca=ca, n_atom=n_atom, c_atom=c_atom,
                          types=np.zeros(n, dtype=np.int64),
                          names=names, chains=chains, seq_ids=seq_ids, icodes=icodes)
    text = pdbio.format_ca_pdb(rs, full_backbone=True)
    assert pdbio.format_ca_pdb(pdbio.parse_pdb(text), full_backbone=True) == text


# --- the array-pass coordinate writer against Python's %8.3f ------------------

_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
          0.0005, -0.0005, 0.0004999, -0.0004, 0.0625, -0.0625, 999.9995, -999.9995,
          -999.9994999, 9999.9995, 9999.9994999, -999.999, 9999.999, 1000.0]
_EDGES += [float(np.nextafter(x, d)) for x in _EDGES for d in (-np.inf, np.inf)]
# values whose thousandths are within 2e-6, or 1e-3, of a tie: the fast path's edge
_NEAR_TIES = st.builds(lambda k, d: (k + 0.5 + d) / 1000, st.integers(-999_999, 9_999_998),
                       st.floats(-2e-6, 2e-6) | st.floats(-1e-3, 1e-3))
_FITTING = st.one_of(st.floats(-999.999, 9999.999), _NEAR_TIES,
                     st.sampled_from([x for x in _EDGES if len(f"{x:8.3f}") == 8]),
                     st.builds(lambda m, e: m * 2.0 ** -e, st.integers(-2**9, 2**13),
                               st.integers(0, 12)))  # dyadic, some of them exact ties
_VALUES = _FITTING | st.sampled_from([np.nan, np.inf, -np.inf, 1e4, -1e3]) | st.floats()


def _reference_columns(xyz, where):
    """``_columns`` of the per-atom writer: Python's %8.3f one row at a time."""
    written = []
    for row, (x, y, z) in enumerate(xyz.tolist()):
        written.append(f"{x:8.3f}{y:8.3f}{z:8.3f}")
        if len(written[-1]) != 24 or not np.isfinite(x + y + z):
            raise reference_pdb._unfit(where(row), x, y, z)
    return written


def _written(columns, xyz):
    try:
        return "ok", columns(xyz, lambda row: f"row {row}")
    except pdbio.PdbFormatError as exc:
        return "PdbFormatError", str(exc)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_VALUES, _VALUES, _VALUES), min_size=1, max_size=10))
def test_property_columns_write_what_python_writes(rows):
    """The same 24 columns per row, byte for byte, or the same error for the same row."""
    xyz = np.array(rows, dtype=np.float64)
    assert _written(pdbio._columns, xyz) == _written(_reference_columns, xyz)


def test_columns_write_ties_signed_zeros_and_field_edges_as_python_does():
    for x in _EDGES + [np.nan, np.inf, -np.inf]:
        for row in ([x, 0.0, 0.0], [-0.0, x, 1.5], [2.0, -2.0, x]):
            values = np.array([row])
            assert _written(pdbio._columns, values) == _written(_reference_columns, values)
    ties = (np.arange(-999_999, 9_999_999, 997) + 0.5) / 1000
    ties = ties[:len(ties) // 3 * 3].reshape(-1, 3)
    assert _written(pdbio._columns, ties) == ("ok", _reference_columns(ties, str))


_LABELS = st.tuples(st.text(max_size=3), st.characters(), st.text(max_size=4),
                    st.characters())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_LABELS, min_size=1, max_size=20), st.booleans(), st.data())
def test_property_format_ca_pdb_matches_the_record_at_a_time_writer(labels, full_backbone,
                                                                    data):
    n = len(labels)
    xyz = data.draw(st.lists(_FITTING, min_size=9 * n, max_size=9 * n))
    n_atom, ca, c_atom = np.array(xyz).reshape(3, 3, n)
    names, chains, seq_ids, icodes = (list(column) for column in zip(*labels))
    rs = pdbio.ResidueSet(ca=ca, n_atom=n_atom, c_atom=c_atom,
                          types=np.zeros(n, dtype=np.int64),
                          names=names, chains=chains, seq_ids=seq_ids, icodes=icodes)
    assert pdbio.format_ca_pdb(rs, full_backbone) == reference_format_ca_pdb(rs, full_backbone)


@pytest.mark.parametrize("label, coordinate, raised", [
    (3, 3, "name"), (3, 2, "coordinate"), (2, 3, "name"), (0, 4, "name")])
@pytest.mark.parametrize("full_backbone", [False, True])
def test_format_ca_pdb_checks_a_residue_label_before_its_coordinates(
        fixture20_text, label, coordinate, raised, full_backbone):
    rs = pdbio.parse_pdb(fixture20_text)
    rs.names[label] = "ALAX"
    rs.ca[2, coordinate] = 1e4
    wrong = label if raised == "name" else coordinate
    with pytest.raises(pdbio.PdbFormatError,
                       match=f"residue {rs.chains[wrong]}:{rs.seq_ids[wrong]}: {raised}"):
        pdbio.format_ca_pdb(rs, full_backbone)


# --- the array-pass reader against the per-line reference --------------------

def _line(pdb_text, lineno):
    return pdb_text.splitlines()[lineno - 1]


def _with_line(pdb_text, lineno, line):
    lines = pdb_text.splitlines()
    lines[lineno - 1] = line
    return "\n".join(lines) + "\n"


def _with_field(pdb_text, lineno, lo, hi, field):
    line = _line(pdb_text, lineno)
    return _with_line(pdb_text, lineno, line[:lo] + field + line[hi:])


def test_short_record_after_a_bad_coordinate_reports_the_coordinate():
    text = _with_field(ALA_LINES, 2, 38, 46, "   0.0z0") + "ATOM      4  CA  ALA A   2\n"
    with pytest.raises(pdbio.PdbParseError, match="line 2: malformed coordinate field '0.0z0'"):
        pdbio.parse_pdb(text)


def test_short_record_before_a_bad_coordinate_is_reported_first():
    text = _with_line(ALA_LINES, 1, _line(ALA_LINES, 1)[:40])
    text = _with_field(text, 3, 30, 38, "     nan")
    with pytest.raises(pdbio.PdbParseError, match="line 1: record too short for coordinates"):
        pdbio.parse_pdb(text)


def test_short_record_in_a_filtered_out_chain_is_reported():
    text = ALA_LINES.replace("END\n", "ATOM      4  CA  GLY B   2       1.0\nEND\n")
    with pytest.raises(pdbio.PdbParseError, match="line 4: record too short for coordinates"):
        pdbio.parse_pdb(text, chain_filter={"A"})


def test_malformed_fields_of_unread_atoms_are_ignored():
    """An O record and a repeated (altloc) CA are never read for coordinates."""
    text = ALA_LINES.replace("END\n", (
        "ATOM      4  O   ALA A   1     garbage   0.000   0.000  1.00  0.00           O\n"
        "ATOM      5  CA BALA A   1         nan     inf   0.0q0  1.00  0.00           C\nEND\n"))
    rs = pdbio.parse_pdb(text)
    assert len(rs) == 1 and rs.skipped == 0
    np.testing.assert_array_equal(rs.ca[:, 0], [0.0, 0.0, 0.0])


def test_tab_nul_and_replacement_characters_in_fields():
    # a tab strips like a space: "\tCA " is CA, and "\t  1" is residue 1
    text = _with_field(ALA_LINES, 2, 12, 16, "\tCA ")
    text = _with_field(text, 3, 22, 26, "\t  1")
    rs = pdbio.parse_pdb(text)
    assert len(rs) == 1 and rs.seq_ids == ["1"]
    # a NUL does not strip: " CA\0" is no backbone atom, so the residue is incomplete
    with pytest.raises(pdbio.PdbParseError, match=r"zero valid residues \(1 skipped"):
        pdbio.parse_pdb(_with_field(ALA_LINES, 2, 12, 16, " CA\0"))
    # and "  1\0" is another residue number than "   1"
    text = _with_field(ALA_LINES, 1, 22, 26, "  1\0")
    with pytest.raises(pdbio.PdbParseError, match=r"zero valid residues \(2 skipped"):
        pdbio.parse_pdb(text)
    # U+FFFD (what a file read with errors="replace" holds) names an unknown residue
    rs = pdbio.parse_pdb(ALA_LINES.replace("ALA", "A\ufffdA"))
    assert rs.names == ["A\ufffdA"] and rs.types[0] == pdbio.TYPE_INDEX[pdbio.UNK]
    # a NUL or U+FFFD in a coordinate is a malformed field
    for field in ("   1.0\0\0", "\ufffd  1.000"):
        message = f"line 2: malformed coordinate field {field.strip()!r}"
        with pytest.raises(pdbio.PdbParseError, match=re.escape(message)):
            pdbio.parse_pdb(_with_field(ALA_LINES, 2, 30, 38, field))


def test_residue_name_comes_from_its_first_kept_record():
    text = ("ATOM      1  O   TRP A   1       0.000   0.000   1.000  1.00  0.00           O\n"
            + ALA_LINES.replace("  CA  ALA", "  CA  GLY").replace("  C   ALA", "  C   SER"))
    rs = pdbio.parse_pdb(text)
    assert rs.names == ["ALA"] and rs.types.tolist() == [pdbio.TYPE_INDEX["ALA"]]


def test_coordinate_text_reads_as_python_float_reads_it():
    text = _with_field(ALA_LINES, 2, 30, 54, "   1_000  -0.000    -0.0")
    rs = pdbio.parse_pdb(text)
    assert rs.ca[:, 0].tolist() == [1000.0, 0.0, 0.0]
    assert not np.signbit(rs.ca[0, 0]) and np.signbit(rs.ca[1, 0]) and np.signbit(rs.ca[2, 0])
    # "-0.000" in an otherwise fixed-point file keeps its sign too
    rs = pdbio.parse_pdb(_with_field(ALA_LINES, 2, 30, 38, "  -0.000"))
    assert np.signbit(rs.ca[0, 0])
    # a non-ASCII digit that float reads, and a character whose low byte is "0"
    rs = pdbio.parse_pdb(_with_field(ALA_LINES, 2, 30, 38, "   \u0661.500"))
    assert rs.ca[0, 0] == 1.5
    with pytest.raises(pdbio.PdbParseError, match="line 2: malformed coordinate field"):
        pdbio.parse_pdb(_with_field(ALA_LINES, 2, 30, 38, "   \u0130.500"))


def test_groups_match_python_grouping_for_any_code_point():
    rng = np.random.default_rng(11)
    alphabet = np.array([0, 9, 32, 49, 65, 0xFFFD, 0x1F600, 0x10FFFF], dtype=np.uint32)
    rows = alphabet[rng.integers(0, len(alphabet), size=(400, 6))]
    first, group = pdbio._groups(rows)
    seen = {}
    for i, row in enumerate(map(tuple, rows.tolist())):
        seen.setdefault(row, i)
        assert first[group[i]] == seen[row]
    assert len(first) == len(seen)


def _fields(*texts):
    return np.array(texts, dtype="U8").view(np.uint32).reshape(len(texts), 8)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(-999.999, 9999.999).map(lambda x: f"{x:8.3f}"), min_size=1,
                max_size=5))
def test_property_written_fields_read_in_one_pass_as_float_reads_them(texts):
    values = pdbio._fixed_point(_fields(*texts))
    assert values is not None
    assert values.tobytes() == np.array([float(t) for t in texts]).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(" -0123456789.+eE_\t\u0130\u0661", min_size=8, max_size=8))
def test_property_fixed_point_read_is_python_float_or_nothing(text):
    # U+0130 has the low byte of "0"; float reads U+0661 (ARABIC-INDIC DIGIT ONE) as 1
    values = pdbio._fixed_point(_fields(text, "  -0.000"))
    if values is not None:
        assert values.tobytes() == np.array([float(text), -0.0]).tobytes()


def _backbone_text():
    """A valid full-backbone file: two chains, an insertion code, a HETATM residue."""
    residues = [("ALA", "A", "1", " "), ("GLY", "A", "2", " "), ("SER", "A", "2", "A"),
                ("MSE", "A", "3", " "), ("LYS", "B", "1", " "), ("TRP", "B", "-12", " ")]
    names, chains, seq_ids, icodes = (list(column) for column in zip(*residues))
    n_atom, ca, c_atom = np.random.default_rng(4).uniform(-99.0, 99.0, (3, 3, len(residues)))
    rs = pdbio.ResidueSet(ca=ca, n_atom=n_atom, c_atom=c_atom,
                          types=np.zeros(len(residues), dtype=np.int64),
                          names=names, chains=chains, seq_ids=seq_ids, icodes=icodes)
    lines = [("HETATM" + line[6:]) if " MSE " in line else line
             for line in pdbio.format_ca_pdb(rs, full_backbone=True).splitlines()]
    lines.insert(4, "REMARK   a line the reader skips")
    return "\n".join(lines) + "\n"


_BACKBONE = _backbone_text()
_SPANS = [(0, 6), (12, 16), (16, 17), (17, 20), (21, 22), (22, 26), (26, 27), (22, 27),
          (30, 38), (38, 46), (46, 54), (30, 54), (54, 80)]
_CHARS = " \t\0\ufffd\U0001F600\u0130\u0661\x85\r0123456789.-+eE_nafiACNOBXZ"
_FIELDS = st.one_of(
    st.sampled_from([" N  ", " CA ", " C  ", "CA  ", "  CA", " O  ", "ATOM  ", "HETATM",
                     "   1_000", "  -0.000", "     nan", "    -inf", "   1e308", "  1e309",
                     "   2", "  1 ", "A", "B", " ", "\t"]),
    st.text(_CHARS, max_size=10))
_COORDINATES = st.one_of(
    st.sampled_from(["   1_000", "  -0.000", "     nan", "    -inf", "   1e308", "  1e309",
                     "   \u0661.500", "  1.5   ", "12345678", "-999.999"]),
    st.floats(-999.999, 9999.999).map(lambda x: f"{x:8.3f}"),
    st.text("0123456789.-+e _\t", min_size=8, max_size=8))
_MUTATION = st.one_of(
    st.tuples(st.just("field"), st.sampled_from(_SPANS), _FIELDS),
    st.tuples(st.just("field"), st.sampled_from([(30, 38), (38, 46), (46, 54)]), _COORDINATES),
    st.tuples(st.just("truncate"), st.integers(0, 80)),
    st.tuples(st.just("delete")),
    st.tuples(st.just("copy"), st.integers(0, 30)),
    st.tuples(st.just("insert"), _FIELDS))
_CHAIN_FILTERS = st.one_of(
    st.none(), st.sampled_from([{"A"}, {"B"}, {"A", "B"}]),
    st.sets(st.sampled_from(["A", "B", "\t", "AB", ""]), max_size=2))


def _mutated(text, line_index, mutation):
    lines = text.splitlines()
    i = line_index % len(lines)
    kind, *args = mutation
    if kind == "field":
        (lo, hi), field = args
        lines[i] = lines[i][:lo] + field + lines[i][hi:]
    elif kind == "truncate":
        lines[i] = lines[i][:args[0]]
    elif kind == "delete":
        del lines[i]
    elif kind == "copy":  # a second record for the same atom, or another order
        lines.insert(args[0] % (len(lines) + 1), lines[i])
    else:
        lines.insert(i, args[0])
    return "\n".join(lines) + "\n"


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _outcome(parse, text, chain_filter):
    """Everything a reader gives back: the ResidueSet's bytes and lists, or its error."""
    handler = _Warnings()
    pdbio.log.addHandler(handler)
    try:
        rs = parse(text, chain_filter)
    except pdbio.PdbParseError as exc:
        result = ("error", str(exc))
    else:
        arrays = [(a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes())
                  for a in (rs.ca, rs.n_atom, rs.c_atom, rs.types)]
        result = ("ok", arrays, rs.names, rs.chains, rs.seq_ids, rs.icodes, rs.skipped)
    finally:
        pdbio.log.removeHandler(handler)
    return result, handler.messages


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 100), _MUTATION, _CHAIN_FILTERS)
def test_property_reader_matches_the_per_line_reference(line_index, mutation, chain_filter):
    """One field or line changed per example: the same results, warnings or error message."""
    text = _mutated(_BACKBONE, line_index, mutation)
    assert _outcome(pdbio.parse_pdb, text, chain_filter) == \
        _outcome(reference_pdb.parse_pdb, text, chain_filter)


def test_reader_matches_the_reference_on_the_fixture(fixture20_text):
    for chain_filter in (None, {"A"}, {"B"}):
        assert _outcome(pdbio.parse_pdb, fixture20_text, chain_filter) == \
            _outcome(reference_pdb.parse_pdb, fixture20_text, chain_filter)


# --- the one-pass mover against the line-at-a-time reference ------------------

with open(os.path.join(DATA_DIR, "fixture20.pdb")) as _fh:
    _FIXTURE20 = _fh.read()
_MOVER_TEXTS = (_BACKBONE, _FIXTURE20, pdbio.format_ca_pdb(
    random_residue_set(np.random.default_rng(8), 50), full_backbone=True))
_MOVER_MUTATION = st.one_of(_MUTATION, st.tuples(
    st.just("field"), st.sampled_from([(30, 38), (38, 46), (46, 54), (30, 54)]),
    st.sampled_from(["     1e1", "  1.5e-1", "\t  1.000", "1.000\t  ", "\ufffd  1.000",
                     "  1.0\ufffd  ", "    +inf", "     NaN", "   1.0.0", "        ",
                     "  12.500  -3.250   0.125"])))
_POSES = st.tuples(st.sampled_from(["identity", "near", "far"]), st.integers(0, 2**32 - 1))


def _pose(kind, seed):
    """The identity, a motion that keeps a protein in its fields, or one that takes it out."""
    if kind == "identity":
        return np.eye(3), np.zeros(3)
    rng = np.random.default_rng(seed)
    return random_rotation(rng), rng.uniform(-50.0, 50.0, 3) * (200.0 if kind == "far" else 1.0)


def _moved(move, text, rotation, translation):
    """A mover's text, or the type and message of its error."""
    try:
        return "ok", move(text, rotation, translation)
    except (pdbio.PdbParseError, pdbio.PdbFormatError) as exc:
        return type(exc).__name__, str(exc)


def _reference_move(text, rotation, translation):
    """The reference's outcome under the two rules it lacks.

    A record shorter than 54 columns is an input error, and every input error
    comes before any moved coordinate that does not fit its field. The zero
    motion takes every finite coordinate to 0, which fits, so under it the
    reference raises the first input error before the short record, if any.
    """
    lines = reference_pdb.lines(text)
    short = next((n for n, line in enumerate(lines, start=1)
                  if line.startswith(("ATOM  ", "HETATM")) and len(line) < 54), None)
    head = "\n".join(lines if short is None else lines[:short - 1])
    outcome = _moved(reference_pdb.transform_atom_records, head, np.zeros((3, 3)), np.zeros(3))
    if outcome[0] != "ok":
        return outcome
    if short is not None:
        return "PdbParseError", f"line {short}: record too short for coordinates"
    return _moved(reference_pdb.transform_atom_records, text, rotation, translation)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(_MOVER_TEXTS), st.integers(0, 200), _MOVER_MUTATION, _POSES)
def test_property_mover_matches_the_line_at_a_time_reference(text, line_index, mutation, pose):
    """One field or line changed per example: the same text, or the same error message."""
    text = _mutated(text, line_index, mutation)
    rotation, translation = _pose(*pose)
    assert _moved(pdbio.transform_atom_records, text, rotation, translation) == \
        _reference_move(text, rotation, translation)


def test_transform_atom_records_refuses_a_short_record():
    text = _with_line(ALA_LINES, 2, _line(ALA_LINES, 2)[:40])
    with pytest.raises(pdbio.PdbParseError, match="line 2: record too short for coordinates"):
        pdbio.transform_atom_records(text, np.eye(3), np.zeros(3))
    # the line-at-a-time mover passed it through unmoved
    assert reference_pdb.transform_atom_records(text, np.eye(3), np.zeros(3)) == text


def test_transform_atom_records_raises_input_errors_before_fit_errors():
    far = np.array([10000.0, 0.0, 0.0])  # every record leaves its field, line 1 first
    text = _with_field(ALA_LINES, 3, 38, 46, "   1.y20")
    with pytest.raises(pdbio.PdbParseError, match="line 3: malformed coordinate field '1.y20'"):
        pdbio.transform_atom_records(text, np.eye(3), far)
    with pytest.raises(pdbio.PdbFormatError, match="line 1: coordinate"):
        reference_pdb.transform_atom_records(text, np.eye(3), far)
    text = ALA_LINES.replace("END\n", "HETATM    4  O   HOH A   2       1.0\nEND\n")
    with pytest.raises(pdbio.PdbParseError, match="line 4: record too short for coordinates"):
        pdbio.transform_atom_records(text, np.eye(3), far)


# --- lines end only at universal newlines --------------------------------------

_IN_LINE_BREAKS = "REMARK   a\x0cb\x1cc\x1dd\x1ee\x85f g h\n"


def test_characters_splitlines_breaks_at_stay_inside_their_line(fixture20_text):
    remark = "REMARK   a\x0cb\x1cc\n"
    assert pdbio.transform_atom_records(remark, np.eye(3), np.zeros(3)) == remark
    text = _IN_LINE_BREAKS + ALA_LINES
    assert pdbio.transform_atom_records(text, np.eye(3), np.zeros(3)) == text
    rotation, translation = random_rotation(np.random.default_rng(9)), np.array([1.0, -2.0, 3.0])
    moved = pdbio.transform_atom_records(_IN_LINE_BREAKS + fixture20_text, rotation, translation)
    assert moved == _IN_LINE_BREAKS + pdbio.transform_atom_records(fixture20_text, rotation,
                                                                   translation)


def test_error_line_numbers_count_only_universal_newlines():
    bad = _line(_with_field(ALA_LINES, 1, 30, 38, "   1.4z0"), 1)
    for text in ("REMARK   a\x0cb\n" + bad + "\n", "REMARK   a b\r\n" + bad + "\r\n"):
        for read in (pdbio.parse_pdb, reference_pdb.parse_pdb):
            with pytest.raises(pdbio.PdbParseError, match="line 2: malformed coordinate"):
                read(text)
        with pytest.raises(pdbio.PdbParseError, match="line 2: malformed coordinate"):
            pdbio.transform_atom_records(text, np.eye(3), np.zeros(3))


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_text_parse_and_move_as_newline_text(fixture20_text, newline):
    text = fixture20_text.replace("\n", newline)
    assert _outcome(pdbio.parse_pdb, text, None) == _outcome(pdbio.parse_pdb, fixture20_text, None)
    rotation, translation = random_rotation(np.random.default_rng(10)), np.array([4.0, 0.5, -1.0])
    assert pdbio.transform_atom_records(text, rotation, translation) == \
        pdbio.transform_atom_records(fixture20_text, rotation, translation)
