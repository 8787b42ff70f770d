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
TRANSLATION_SCALE = 30.0   # random_se3 draws each translation component in +-this


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
        return cls.from_payload(json.loads(text))

    @classmethod
    def from_payload(cls, payload) -> "RigidTransform":
        """The motion of a decoded ``to_json`` object; anything else raises ValueError."""
        if not isinstance(payload, dict) or not {"R", "t"} <= payload.keys():
            raise ValueError("transform JSON needs an object with keys 'R' and 't'")
        convention = payload.get("convention", TRANSFORM_CONVENTION)
        if not isinstance(convention, str) or not convention.startswith("y = R x + t"):
            raise ValueError(f"unsupported transform convention: {convention!r}")
        return cls(_json_numbers(payload["R"], (3, 3), "R"),
                   _json_numbers(payload["t"], (3,), "t"))


def _json_numbers(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Nested JSON lists of numbers as a float64 array of ``shape``, each number checked.

    A JSON number is an int or a float (not a bool); an integer too large
    for a float raises ValueError, as does any other shape or type.
    """
    def entries(item, dims):
        if not dims:
            if type(item) not in (int, float):
                raise ValueError(f"transform JSON: {name} holds a non-number")
            try:
                return [float(item)]
            except OverflowError:
                raise ValueError(f"transform JSON: {name} holds a number too large "
                                 "for a float") from None
        if not isinstance(item, list) or len(item) != dims[0]:
            raise ValueError(f"transform JSON: {name} is not a {shape} array of numbers")
        return [x for part in item for x in entries(part, dims[1:])]

    return np.array(entries(value, shape), dtype=np.float64).reshape(shape)


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


def random_se3(rng: np.random.Generator) -> RigidTransform:
    """Uniform random rotation; each translation component uniform in +-``TRANSLATION_SCALE``.

    The rotation is drawn first, then the three translation components.
    """
    return RigidTransform(random_rotation(rng),
                          rng.uniform(-TRANSLATION_SCALE, TRANSLATION_SCALE, size=3))
