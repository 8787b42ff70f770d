"""Proper rigid motions of 3-D point sets, and random draws of them.

Coordinates are 3 x n arrays in angstroms. A motion maps x to R x + t
with R a rotation (orthonormal, det +1); the JSON form records that
convention next to R and t.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

TRANSFORM_CONVENTION = "y = R x + t, angstrom"
_ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion y = R x + t with R a rotation and t in angstroms."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=np.float64)
        t = np.asarray(self.t, dtype=np.float64).reshape(-1)
        if R.shape != (3, 3) or t.shape != (3,):
            raise ValueError(f"RigidTransform: R shape {R.shape}, t shape {t.shape}")
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(t))):
            raise ValueError("RigidTransform: non-finite entries")
        if np.max(np.abs(R.T @ R - np.eye(3))) > _ORTHO_TOL:
            raise ValueError("RigidTransform: R is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > _ORTHO_TOL:
            raise ValueError("RigidTransform: R is not a proper rotation (det != +1)")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Transform a 3 x n coordinate array."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != 3:
            raise ValueError(f"apply: shape {X.shape}, expected (3, n)")
        return self.R @ X + self.t[:, None]

    def compose(self, inner: "RigidTransform") -> "RigidTransform":
        """The motion applying ``inner`` first, then this one."""
        return RigidTransform(self.R @ inner.R, self.R @ inner.t + self.t)

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.R.T, -(self.R.T @ self.t))

    def to_json(self) -> str:
        payload = {
            "R": self.R.tolist(),
            "t": self.t.tolist(),
            "convention": TRANSFORM_CONVENTION,
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RigidTransform":
        payload = json.loads(text)
        if not isinstance(payload, dict) or not {"R", "t"} <= payload.keys():
            raise ValueError("transform JSON needs an object with keys 'R' and 't'")
        convention = payload.get("convention", TRANSFORM_CONVENTION)
        if not isinstance(convention, str) or not convention.startswith("y = R x + t"):
            raise ValueError(f"unsupported transform convention: {convention!r}")
        return cls(np.array(payload["R"], dtype=np.float64),
                   np.array(payload["t"], dtype=np.float64))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix via a normalized quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def random_se3(rng: np.random.Generator, translation_scale: float = 30.0) -> RigidTransform:
    """Uniform random rotation with a uniform boxed translation.

    The rotation is drawn first, then the three translation components.
    """
    return RigidTransform(random_rotation(rng),
                          rng.uniform(-translation_scale, translation_scale, size=3))
