"""Particle state, interaction rules, normalization prefactors, and diagnostics.

Two velocity-alignment rules share one state representation:

* ``di`` -- density-gated consensus: particle i is pulled toward the
  velocities of the particles inside the open ball B(x_i, delta), but only
  when that ball holds strictly more than m particles (itself included).
  Neighborhoods are evaluated on delayed positions, which the integrator
  supplies through its snapshot buffer.
* ``cs`` -- classic all-to-all alignment with weight psi(s) = (1+s)^(-alpha),
  the contrast the gated clusters are measured against.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .domains import Domain, pair_indices
from .errors import ConfigError, real, whole

MODELS = ("di", "cs")
POLICY_KINDS = ("flat", "per_neighbor", "constant")

# Prefactor conventions the models usually appear with: mean-field scaling
# for cs, per-neighbor averaging for the gated rule.
DEFAULT_POLICY = {"di": "per_neighbor", "cs": "flat"}

# Velocities differ in the unbounded plane, whatever the positions' domain.
_PLANE = Domain()


def alignment_weight(s, alpha: float = 0.5):
    """Communication weight (1 + s)^(-alpha) used by cs."""
    return (1.0 + np.asarray(s, dtype=float)) ** (-alpha)


@dataclass
class ModelParams:
    """Model selection plus every scalar knob the interaction rules read."""

    model: str
    N: int
    kappa: float = 1.0
    m: int | None = None
    delta: float | None = None
    alpha: float = 0.5
    m_policy: str | None = None
    h_steps: int = 1

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        self.N, self.h_steps = whole("n", self.N), whole("h_steps", self.h_steps)
        if self.m is not None:
            self.m = whole("m", self.m)
        self.kappa, self.alpha = real("kappa", self.kappa), real("alpha", self.alpha)
        if self.delta is not None:
            self.delta = real("delta", self.delta)
        if self.N < 1:
            raise ConfigError("n must be >= 1")
        # NeighborSearch.table keys each pair as row * N + col in int64.
        if self.N * self.N >= 2**63:
            raise ConfigError(f"n must keep N*N < 2**63, got N={self.N}")
        if not 0 < self.alpha < math.inf:
            raise ConfigError("alpha must be finite and > 0")
        if self.h_steps < 1:
            raise ConfigError("h_steps must be >= 1")
        # The delay ring's maxlen, h_steps + 1, must fit a Py_ssize_t.
        if self.h_steps >= sys.maxsize:
            raise ConfigError(f"h_steps must be < {sys.maxsize}")
        if self.m_policy is None:
            self.m_policy = DEFAULT_POLICY[self.model]
        if self.m_policy not in POLICY_KINDS:
            raise ConfigError(f"unknown m_policy {self.m_policy!r}")
        if not 0 < self.kappa < math.inf:
            raise ConfigError("kappa must be finite and > 0")

        # di weighs no distance (no alpha); cs couples everyone (no delta, no
        # gate) at the current positions (no delay).
        if self.model == "di":
            if self.delta is None or not 0 < self.delta < math.inf:
                raise ConfigError("model di requires a finite delta > 0")
            if self.m is None or self.m < 1:
                raise ConfigError("model di requires m >= 1")
            if self.alpha != 0.5:
                raise ConfigError("model di takes no alpha")
        else:
            if self.delta is not None:
                raise ConfigError("model cs takes no delta")
            if self.m is not None:
                raise ConfigError("model cs takes no m")
            if self.h_steps != 1:
                raise ConfigError("model cs takes no h_steps")

    def prefactors(self, sizes) -> np.ndarray:
        """M(N, i, #N_i) for each particle's set size #N_i; 0 where the set is empty.

        m_policy "flat" gives kappa/N, "per_neighbor" kappa/#N_i, and
        "constant" kappa.  Every value is strictly positive, so the infimum
        M_* over feasible set sizes 1..N is positive and finite.
        """
        sizes = np.asarray(sizes)
        if self.m_policy == "per_neighbor":
            return np.divide(self.kappa, sizes, out=np.zeros(len(sizes)), where=sizes > 0)
        scale = self.kappa / self.N if self.m_policy == "flat" else self.kappa
        return np.where(sizes > 0, scale, 0.0)

    @property
    def m_star(self) -> float:
        """Infimum of M over set sizes 1..N (attained at size N)."""
        return float(self.prefactors([self.N])[0])


@dataclass
class EnsembleState:
    """Positions and velocities of N particles in d dimensions at time t."""

    t: float
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        if self.positions.shape != self.velocities.shape:
            raise ValueError("positions and velocities must have identical shape")
        if self.positions.ndim != 2 or min(self.positions.shape) < 1:
            raise ValueError("state requires N >= 1 particles in d >= 1 dimensions")
        if not (np.isfinite(self.positions).all() and np.isfinite(self.velocities).all()):
            raise ValueError("non-finite coordinates in state")

    @classmethod
    def _checked(cls, t: float, positions: np.ndarray, velocities: np.ndarray) -> EnsembleState:
        """A state over arrays the caller has proved float, (N, d) alike and
        finite, without the constructor's conversions and tests."""
        state = cls.__new__(cls)
        state.t, state.positions, state.velocities = t, positions, velocities
        return state

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(eq=False)
class NeighborTable:
    """Per-particle neighbor index sets in compressed sparse row (CSR) form.

    Set i is indices[indptr[i]:indptr[i + 1]], sorted ascending.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    def sizes(self) -> np.ndarray:
        return np.diff(self.indptr)

    def contains(self, i: int, k: int) -> bool:
        """True when particle k belongs to the neighbor set of particle i."""
        s = self.indices[self.indptr[i] : self.indptr[i + 1]]
        j = np.searchsorted(s, k)
        return bool(j < len(s) and s[j] == k)


# All pairs or a cut: up to PAIR_DIAMETER_MAX_N points the velocity diameter
# and the di search's shell compare every pair through domains.pair_indices
# and Domain.squared_distances; above it they cut the set first, in numpy, the
# shell by a cell list (NeighborSearch._cell_pairs) and the diameter by a
# two-point bound (_diameter_candidates).  A shell build over wrapped uniform
# points on the torus at the paper's density (L = 25 sqrt(N / 64), delta + s =
# 2.8), best of seven on a 2-core x86_64 VM, took 12 / 30 / 76 us over all
# pairs at N = 11 / 64 / 128 and 570 us at N = 256.  The cell list, median of
# 15 interleaved rounds on the same VM, took 92 / 109 / 470 / 11711 us at
# N = 129 / 256 / 2048 / 32768 on the torus, where scipy's cKDTree.query_pairs
# took 74 / 154 / 1410 / 24005, and 81 / 91 / 352 / 11090 on the plane, where
# it took 47 / 82 / 825 / 16377: slower below a few hundred points, a band no
# scenario default or benchmark workload reaches, and it spares every run the
# 0.1 s import of scipy.spatial.
#
# The velocity diameter's pair kernel skips pdist's array-API wrapper, most of
# pdist's time on a few dozen points.  Median us per call, planar velocities,
# 2-core x86_64 VM: the pair kernel 17 at N = 64 (26 for pdist) and 38 at
# N = 128 (37), past which its gathers fall off a cache cliff (409 at N = 200).
# On random_clusters velocities the cut leaves 2 to 12 points and, with the
# kernel over them, takes 29 / 34 / 129 / 1036 us at N = 129 / 256 / 2048 /
# 32768, where Qhull's hull and the kernel over its points took 65 / 79 / 464 /
# 3859.  Velocities do not depend on the domain.
PAIR_DIAMETER_MAX_N = 128


# Verlet skin s of the candidate shell, as a fraction of delta.
SHELL_SKIN = 0.4

# Rounding allowances, with u = 2^-53 and r(n) = 1 + 2 n u, which exceeds
# (1 + u)^n and (1 - u)^-n while n u <= 1/2.
_U = 2.0**-53


def _r(n: int) -> float:
    return 1 + 2 * n * _U


class NeighborSearch:
    """One run's neighbor rule: table(delayed) is the step's NeighborTable,
    the same object for as long as the sets hold.

    di takes the open delta-balls of the delayed positions, kept only where the
    ball holds more than m particles (self counted); cs everyone.  Every di
    call filters a Verlet shell, the pairs within delta + s, found among all
    pairs up to PAIR_DIAMETER_MAX_N particles and among a cell list's
    candidates above it (_shell), and rebuilt once twice the bound D on each
    particle's displacement since the build reaches s.  margin is the least
    |d - delta| over the shell and s - 2 D, both at the last call, whose
    delayed positions are ref: idle_calls reads off them how many coming
    calls must return the same table, the calls that simulate's certified
    stretches skip.
    """

    def __init__(self, params: ModelParams, domain: Domain):
        self.params, self.domain, self.current, self.ref = params, domain, None, None
        self.skin = SHELL_SKIN * (params.delta or 0.0)
        self.slack = 1e-9 * (params.delta or 0.0) * (1 + SHELL_SKIN)
        # scipy.sparse's own index dtype, so CSR matrices over the table's
        # arrays share them; int32 would wrap once the entry count can reach 2**31.
        self.itype = np.int32 if params.N**2 < 2**31 else np.intp

    def table(self, delayed: np.ndarray) -> NeighborTable:
        p, N = self.params, self.params.N
        if p.model == "cs":
            return self.current or self._keep(N * np.arange(N + 1), np.tile(np.arange(N), N))
        if self.ref is not None:
            self.drift += math.sqrt(self.domain.squared_lengths(delayed - self.ref).max())
        if self.ref is None or 2 * self.drift + self.slack >= self.skin:
            self.pairs = self._shell(delayed)
            self.flags, self.drift = None, 0.0
        i, j = self.pairs
        d = self.domain.distances(delayed, i, j)
        self.ref = delayed.copy()
        self.margin = min(np.abs(d - p.delta).min(initial=np.inf), self.skin - 2 * self.drift)
        flags = d < p.delta
        if np.array_equal(flags, self.flags):
            return self.current
        self.flags, i, j = flags, i[flags], j[flags]
        gated = 1 + np.bincount(i, minlength=N) + np.bincount(j, minlength=N) > p.m
        rows, cols = np.concatenate([i, j, np.arange(N)]), np.concatenate([j, i, np.arange(N)])
        key = np.sort((rows * N + cols)[gated[rows]])
        return self._keep(np.searchsorted(key, N * np.arange(N + 1)), key % N)

    def idle_calls(self, reach: float, limit: int) -> int:
        """How many of the next di calls, at most limit, would return the
        last call's table, given that no particle moves more than reach per
        call from that call's delayed positions, ref.  Positions that moved
        each particle from ref by at most l, where 2 l + slack < margin, flip
        no flag and rebuild no shell (the no-flip rule)."""
        # The no-flip rule's rounding.  The displacement lambda from ref, the
        # root of Domain.squared_lengths, lies within c = r(d + 2) of the true
        # length on the plane: the difference rounds by u per coordinate, the
        # squares, their sum and the root by r(d + 1).  On the box the
        # difference of two coordinates in [0, L) rounds by u L, the image
        # shift k L (|k| <= 1) is exact, the subtraction rounds by u L, and a
        # shift picked on the other side of a half box (the rounded e / L
        # within 3u of 1/2) adds 6 u L: each coordinate's magnitude is within
        # 8 u L, a length within a = 8 u L sqrt(d) before the factor c.  So
        # lambda <= c (l + a) and l <= c lambda + a for a true length l (a = 0
        # on the plane).  At the call lambda is 0, so l <= a, and k calls
        # later l <= a + k reach.  The test rounds 2 lambda + slack up by at
        # most r(1), and the float value of R (2 c (2 a + k reach) + slack)
        # takes at most 9 roundings; R = r(11) exceeds (1 + u) (1 - u)^-9, so
        # that value < margin proves k calls idle.
        d, L = self.ref.shape[1], self.domain.L
        R, c, a = _r(11), _r(d + 2), 0.0 if L is None else 8 * _U * math.sqrt(d) * L
        room = (self.margin / R - self.slack) / (2 * c) - 2 * a
        if not room > 0:
            return 0
        k = limit if room >= limit * reach else int(room / reach)
        while k and R * (2 * c * (2 * a + k * reach) + self.slack) >= self.margin:
            k -= 1
        return k

    def _shell(self, delayed: np.ndarray) -> np.ndarray:
        """The pairs i < j of the wrapped delayed positions within delta + s,
        as a (2, n) array: each candidate's Domain.squared_distances against
        (delta + s)^2, the candidates being every pair up to
        PAIR_DIAMETER_MAX_N particles and the cell list's above it
        (_cell_pairs).

        Raises OverflowError, at every N, where the sum of the squared sides
        of the points' bounding box overflows, each side at most half the box
        on a torus (the rule scipy's cKDTree refuses positions by).
        """
        y, L = self.domain.wrap(delayed), self.domain.L
        # Reductions along the rows of one contiguous copy: over the (N, d)
        # array's axis 0 they take some fifteen times as long.
        yt = y.T.copy()
        lo = yt.min(axis=1)
        span = yt.max(axis=1) - lo  # np.ptp's bits
        sides = span if L is None else np.minimum(span, 0.5 * L)
        square = 0.0
        for side in sides.tolist():  # Python floats overflow to inf
            square += side * side
        if square == math.inf:
            raise OverflowError(
                f"the delayed positions span {math.hypot(*sides):.6g}, beyond the "
                "neighbor search's squared distances"
            )
        reach = self.params.delta + self.skin
        if len(y) <= PAIR_DIAMETER_MAX_N:
            i, j = pair_indices(len(y))
        else:
            i, j = self._cell_pairs(yt, lo, span, reach)
        near = self.domain.squared_distances(y, i, j) <= reach * reach
        i, j = i[near], j[near]
        if len(y) > PAIR_DIAMETER_MAX_N:  # the cell list orders no pair
            i, j = np.minimum(i, j), np.maximum(i, j)
        return np.stack((i, j))

    def _cell_pairs(self, yt: np.ndarray, lo: np.ndarray, span: np.ndarray, reach: float):
        """Candidate pairs (i, j), i != j, each pair once, among them every
        pair whose Domain.squared_distances is at most reach^2.

        The points yt (one row per axis) fall into cells of side at least w,
        in order of cell, and a cell's points pair with the later ones in
        it and with those of its (3^d - 1) / 2 forward neighbours, across the
        box's edges on the torus.  The cells a side are capped in float, so
        a sprawling set or a huge box widens the cells and a grid holds
        fewer than 2^d 2N cells; a torus with fewer than 3 cells a side is
        one cell, every pair.

        Rounding, with G <= 2N + 1 cells a side.  A pair that passes the test
        differs along an axis by at most reach r(d + 3) on the plane (its
        difference, the squares, their sum and reach^2 round) and by
        reach r(d + 1) + 8 u L on the torus (the min-image bound in
        idle_calls), where 8 u L = 8 u G H for the exact cell side H = L / G.
        A cell coordinate, fl(fl(y - lo) / h) or fl(y / fl(L / G)), is within
        3 u G of its true value, so points whose cells are not neighbours lie
        more than (1 - 6 u G) cell sides apart along some axis.  Both bounds
        fall below that for a side of reach r(d + 3) / (1 - 14 u G) <=
        reach r(14 G + d + 4), which w = reach r(28 N + d + 21) keeps after
        its own rounding and L / G's shortfall from w on the torus, at most a
        factor 1 + u each.
        """
        d, n = yt.shape
        L = self.domain.L
        w = reach * _r(28 * n + d + 21)
        if L is None:
            # h >= (e_1 ... e_k / 2N)^(1/k) over the k widest sides e keeps the
            # grid below 2^d 2N cells; each root is taken first, so no product
            # overflows.
            e, h = sorted(span.tolist(), reverse=True), w
            for k in range(1, d + 1):
                h = max(h, math.prod(x ** (1 / k) for x in e[:k]) / (2 * n) ** (1 / k))
            g = np.minimum(span / h, 2 * n).astype(np.intp) + 1
            t = yt - lo[:, None]
            t /= h
        else:
            G = int(min(L / w, (2 * n) ** (1 / d)))
            G = G if G >= 3 else 1
            g = np.full(d, G)
            t = yt / (L / G)
        idx = t.astype(np.intp)  # t >= 0: truncation floors
        np.minimum(idx, (g - 1)[:, None], out=idx)
        # Keys over the grid padded by one cell a side, so a neighbour is a
        # fixed key offset; the padding is empty on the plane and a copy of
        # the far side's cells on the torus.
        shape = [int(k) + 2 for k in g]
        stride = [math.prod(shape[k + 1 :]) for k in range(d)]
        key = sum(stride) + idx[0] * stride[0]
        for k in range(1, d):
            key += idx[k] * stride[k]
        order = np.argsort(key)
        key = key[order]
        size = np.bincount(key, minlength=math.prod(shape))
        start = np.cumsum(size) - size
        if L is not None and g[0] > 1:
            wrapped = np.arange(-1, g[0] + 1) % g[0] + 1
            size, start = size.reshape(shape), start.reshape(shape)
            for axis in range(d):
                size, start = size.take(wrapped, axis), start.take(wrapped, axis)
            size, start = size.ravel(), start.ravel()
        later = np.arange(1, n + 1)  # each point's successor in cell order
        first, count = [later], [start[key] + size[key] - later]
        for o in itertools.product((-1, 0, 1), repeat=d):
            if o > (0,) * d:  # the forward half of the neighbours
                cell = key + sum(a * b for a, b in zip(o, stride))
                first.append(start[cell])
                count.append(size[cell])
        first, count = np.concatenate(first), np.concatenate(count)
        ends = np.cumsum(count)
        segment = np.repeat(np.arange(len(count)), count)
        cols = np.arange(ends[-1]) + (first - ends + count)[segment]
        return np.concatenate([order] * (len(count) // n))[segment], order[cols]

    def _keep(self, indptr: np.ndarray, indices: np.ndarray) -> NeighborTable:
        """The current table when it holds these sets, else a new one."""
        t = self.current
        same = t is not None and np.array_equal(t.indptr, indptr)
        if not (same and np.array_equal(t.indices, indices)):
            self.current = NeighborTable(indptr.astype(self.itype), indices.astype(self.itype))
        return self.current


# One coupling formula: a = (W - diag(W 1)) v, with W the membership scaled
# row-wise by M(N, i, #N_i), times psi(|x_i - x_k|) for cs.


def member_weights(table: NeighborTable, params: ModelParams) -> tuple[csr_matrix, float]:
    """W[i, k] = M(N, i, #N_i) for k in set i, as CSR over the table's own
    indptr/indices, and the radius rho = max_i sum_{k != i} W_ik of the
    Gershgorin disc |z + rho| <= rho that holds the spectrum of W - diag(W 1)."""
    sizes, N = table.sizes(), table.n
    m = params.prefactors(sizes)
    weights = csr_matrix((np.repeat(m, sizes), table.indices, table.indptr), shape=(N, N))
    return weights, float((m * (sizes - (weights.diagonal() != 0))).max())


def velocity_diameter(state: EnsembleState) -> float:
    """Largest pairwise velocity difference norm; zero at consensus.

    Up to PAIR_DIAMETER_MAX_N points Domain.squared_distances compares every
    pair over domains.pair_indices.  A larger set is first cut to the points
    that can belong to a diameter (_diameter_candidates), in any d, and the
    same kernel compares the survivors; pdist runs only where more than
    PAIR_DIAMETER_MAX_N points survive or the cut meets a non-finite value.
    Either way the result is pdist(v).max() bit for bit: both sum each
    pair's squared differences left to right from 0, and the root, monotone
    and correctly rounded, of the largest sum is the largest root.
    """
    if state.n < 2:
        return 0.0
    v = state.velocities
    if state.n > PAIR_DIAMETER_MAX_N:
        keep = _diameter_candidates(v)
        v = v if keep is None else v[keep]
        if len(v) > PAIR_DIAMETER_MAX_N:
            from scipy.spatial.distance import pdist

            return float(pdist(v).max())
    return math.sqrt(_PLANE.squared_distances(v, *pair_indices(len(v))).max())


def _diameter_candidates(v: np.ndarray) -> np.ndarray | None:
    """A mask of the velocities v that a largest pair can contain; None,
    every point, where the cut cannot decide.

    p is the point farthest from the mean and q the point farthest from p,
    so D0 = |v_p - v_q|, rounded as the pair kernel rounds it, is a real
    pair's length.  With c the midpoint of p and q, r_i = |v_i - c| and
    R = max r_i, a pair (i, k) is at most r_i + R long, so v_i is dropped
    where r_i + R falls short of D0.

    Rounding, with u and r(n) as for NeighborSearch.  A pair's kernel value
    s is at most r(d + 2) times its true square plus d 2^-1075 (squares that
    underflow); a root r_i understates the true |v_i - c| by at most a
    factor r(d + 4) and an absolute a = sqrt(d) 2^-537.  Kept where
    fl(fl(fl(r_i + R) K) + A) >= D0, with K = r(2 d + 16) and A = 2^-530 >=
    2 a, a dropped v_i is truly closer than D0 / r(d + 5) to every point,
    so each of its pairs rounds below s_pq once D0 >= 2^-500 makes the
    underflow term negligible; p and q therefore survive.  The cut cannot
    decide below that D0, or where an intermediate is not finite.
    """
    sq = _PLANE.squared_lengths
    with np.errstate(over="ignore", invalid="ignore"):
        p = sq(v - v.T.copy().mean(axis=1)).argmax()  # axis 0 of v: several times slower
        from_p = sq(v - v[p])
        q = from_p.argmax()
        d0 = math.sqrt(from_p[q])
        r = np.sqrt(sq(v - 0.5 * (v[p] + v[q])))
    R = r.max()
    if not (2.0**-500 <= d0 < math.inf and R < math.inf):
        return None
    r += R
    r *= _r(2 * v.shape[1] + 16)
    r += 2.0**-530
    return r >= d0


def total_momentum(state: EnsembleState) -> np.ndarray:
    """Componentwise sum of all velocities."""
    return state.velocities.sum(axis=0)

