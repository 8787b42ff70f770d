import os

import numpy as np
import pytest

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def random_residue_set(rng: np.random.Generator, n: int, spread: float = 9.0):
    """Random well-separated residue cloud with valid backbone triads."""
    from rigiddock.pdbio import ResidueSet

    pts = [rng.uniform(-spread, spread, 3)]
    while len(pts) < n:
        cand = rng.uniform(-spread, spread, 3)
        if min(np.linalg.norm(cand - p) for p in pts) >= 3.2:
            pts.append(cand)
    ca = np.array(pts).T
    e1 = rng.standard_normal((3, n))
    e1 /= np.linalg.norm(e1, axis=0)
    raw = rng.standard_normal((3, n))
    raw -= np.sum(raw * e1, axis=0) * e1
    raw /= np.linalg.norm(raw, axis=0)
    ang = np.deg2rad(110.0)
    e2 = np.cos(ang) * e1 + np.sin(ang) * raw
    types = rng.integers(0, 21, size=n)
    return ResidueSet(
        ca=ca,
        n_atom=ca + 1.46 * e1,
        c_atom=ca + 1.52 * e2,
        types=types,
        names=["ALA"] * n,
        chains=["A"] * n,
        seq_ids=[str(i + 1) for i in range(n)],
        icodes=[" "] * n,
    )


@pytest.fixture
def fixture20_path() -> str:
    return os.path.join(DATA_DIR, "fixture20.pdb")


@pytest.fixture
def fixture20_text(fixture20_path) -> str:
    with open(fixture20_path) as fh:
        return fh.read()
