"""Spatial domains: the unbounded plane and a periodic square box.

Distances on the periodic box follow the minimum-image convention, which
is equivalent to mirrored-copy (ghost particle) bookkeeping whenever the
interaction range stays below half the box size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Domain:
    """The unbounded plane when L is None, else the periodic box of side L."""

    L: float | None = None

    def __post_init__(self):
        if self.L is not None and not 0 < self.L < np.inf:
            raise ConfigError("periodic domain requires a finite side length L > 0")

    @property
    def is_periodic(self) -> bool:
        return self.L is not None

    def wrap(self, positions: np.ndarray, in_place: bool = False) -> np.ndarray:
        """Map coordinates into [0, L)^d; identity on the unbounded plane.

        in_place wraps the float array positions itself and returns it.
        """
        y = np.asarray(positions, dtype=float)
        if not self.is_periodic:
            return y
        if not in_place:
            y = y.copy()
        np.mod(y, self.L, out=y)
        # A tiny negative coordinate rounds up to L, the same torus point as 0.
        y[y == self.L] = 0.0
        return y

    def distances(self, x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """|x[i] - x[j]| for each index pair, to the nearest periodic image
        (plain Euclidean when unbounded)."""
        return self.lengths(np.take(x, i, axis=0) - np.take(x, j, axis=0))

    def lengths(self, d: np.ndarray) -> np.ndarray:
        """Row lengths of the differences d (consumed), each moved to its
        nearest image axis by axis."""
        d = self._squared(d)
        return np.sqrt(sum(d.T[1:], d[:, 0]))

    def _squared(self, d: np.ndarray) -> np.ndarray:
        if self.is_periodic:
            shift = d / self.L
            np.rint(shift, out=shift)
            shift *= self.L
            d -= shift
        d *= d
        return d
