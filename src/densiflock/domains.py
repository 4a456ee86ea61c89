"""Spatial domains: the unbounded plane and a periodic square box.

Distances on the periodic box follow the minimum-image convention, which
is equivalent to mirrored-copy (ghost particle) bookkeeping whenever the
interaction range stays below half the box size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigError


def euclidean_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise Euclidean distances, shape (len(a), len(b))."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return cdist(a, b)


@dataclass(frozen=True)
class Domain:
    """Either kind="unbounded", or kind="periodic" with side length L."""

    kind: str
    L: float | None = None

    def __post_init__(self):
        if self.kind not in ("unbounded", "periodic"):
            raise ConfigError(f"unknown domain kind {self.kind!r}")
        if self.kind == "periodic":
            if self.L is None or not 0 < self.L < np.inf:
                raise ConfigError("periodic domain requires a finite side length L > 0")
        elif self.L is not None:
            raise ConfigError("unbounded domain takes no side length")

    @classmethod
    def unbounded(cls) -> "Domain":
        return cls("unbounded")

    @classmethod
    def periodic(cls, L: float) -> "Domain":
        return cls("periodic", float(L))

    @property
    def is_periodic(self) -> bool:
        return self.kind == "periodic"

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """Map coordinates into [0, L)^d; identity on the unbounded plane."""
        if not self.is_periodic:
            return np.asarray(positions, dtype=float)
        return np.mod(np.asarray(positions, dtype=float), self.L)

    def distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pairwise distances to the nearest periodic image (plain Euclidean when unbounded)."""
        if not self.is_periodic:
            return euclidean_distances(a, b)
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        diff = a[:, None, :] - b[None, :, :]
        diff -= self.L * np.round(diff / self.L)
        return np.sqrt((diff * diff).sum(axis=-1))

    def shortest_displacement(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise displacement a - b resolved to the nearest image."""
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        if self.is_periodic:
            diff -= self.L * np.round(diff / self.L)
        return diff
