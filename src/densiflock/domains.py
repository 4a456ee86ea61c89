"""Spatial domains: the unbounded plane and a periodic square box.

Distances on the periodic box follow the minimum-image convention, which
is equivalent to mirrored-copy (ghost particle) bookkeeping whenever the
interaction range stays below half the box size.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError


@lru_cache(maxsize=8)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n (n - 1) / 2 index pairs i < j, row by row, read-only."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


@dataclass(frozen=True)
class Domain:
    """The unbounded plane when L is None, else the periodic box of side L.

    Every pair length is computed by one kernel, squared_lengths: each
    difference moved to its nearest image axis by axis (on the box), squared
    in place, and the columns summed left to right.  distances and lengths
    are its square roots; the velocity diameter and the step certificate read
    the squared sums themselves.
    """

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
        return np.sqrt(self.squared_distances(np.asarray(x, dtype=float), i, j))

    def squared_distances(self, x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """|x[i] - x[j]|^2 for each index pair of the float array x, as
        distances squares them."""
        d = x.take(i, axis=0)  # take: x[i] takes a slower path on 2-D arrays
        d -= x.take(j, axis=0)
        return self.squared_lengths(d)

    def lengths(self, d: np.ndarray) -> np.ndarray:
        """Row lengths of the differences d (consumed), each moved to its
        nearest image axis by axis."""
        return np.sqrt(self.squared_lengths(d))

    def squared_lengths(self, d: np.ndarray) -> np.ndarray:
        """Squared row lengths of the float differences d (consumed), each
        moved to its nearest image axis by axis, the columns summed left to
        right."""
        if self.is_periodic:
            shift = d / self.L
            np.rint(shift, out=shift)
            shift *= self.L
            d -= shift
        d *= d
        total = d[:, 0]
        for k in range(1, d.shape[1]):
            total = total + d[:, k]
        return total
