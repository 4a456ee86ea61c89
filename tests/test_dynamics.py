"""Interaction rules, normalization, and diagnostics."""
import math
import tracemalloc
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist as euclidean_distances
from scipy.spatial.distance import pdist

from densiflock import (
    EnsembleState,
    ModelParams,
    alignment_weight,
    total_momentum,
    velocity_diameter,
)
from densiflock.domains import Domain
from densiflock.dynamics import (
    MODELS,
    PAIR_DIAMETER_MAX_N,
    POLICY_KINDS,
    _diameter_candidates,
    member_weights,
)
from densiflock.errors import ConfigError
from densiflock.graph import build_digraph
from oracles import (
    dense_distances,
    dense_membership,
    density_ratio,
    neighbor_sets_di,
    prefactor_params,
    table_from_mask,
)


def brute_force_di_table(positions, delta, m):
    """Per-definition gated neighbor sets, scalar arithmetic only."""
    n = len(positions)
    sets = []
    for i in range(n):
        ball = [
            k for k in range(n)
            if np.linalg.norm(np.asarray(positions[k]) - np.asarray(positions[i])) < delta
        ]
        sets.append(sorted(ball) if len(ball) > m else [])
    return sets


@st.composite
def rule_inputs(draw):
    """(positions, delta, L) on the plane (L None) or a periodic box of side 7.

    Half the draws put the points on the integer grid with a range that grid
    distances reach exactly, so pairs sit at distance delta and distances tie.
    """
    n = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    L = draw(st.sampled_from([None, 7.0]))
    if draw(st.booleans()):
        pos = rng.integers(0, 7, size=(n, 2)).astype(float)
        delta = draw(st.sampled_from([1.0, 2.0, math.sqrt(2.0), math.sqrt(5.0), 3.0]))
    else:
        pos = rng.uniform(0, 7, size=(n, 2))
        delta = draw(st.floats(0.2, 3.0))
    return pos, delta, L


def _domain(L):
    return Domain() if L is None else Domain(L)


def neighbor_sets_di_ghost(delayed_positions, delta, m, L):
    """Mirror-copy realization of the periodic gated neighbor rule.

    The box is extended by a band of width delta holding shifted copies of
    boundary particles; plain Euclidean search over base plus copies then
    matches the minimum-image tables whenever L > 2*delta.
    """
    assert L > 2 * delta
    x = np.mod(np.asarray(delayed_positions, dtype=float), L)
    n, dim = x.shape
    points = [x]
    owners = [np.arange(n)]
    for off in product((-L, 0.0, L), repeat=dim):
        if all(o == 0 for o in off):
            continue
        shifted = x + np.asarray(off)
        keep = ((shifted > -delta) & (shifted < L + delta)).all(axis=1)
        if keep.any():
            points.append(shifted[keep])
            owners.append(np.flatnonzero(keep))
    allx = np.vstack(points)
    owner = np.concatenate(owners)

    inside = euclidean_distances(x, allx) < delta
    rows, cols = np.nonzero(inside & (inside.sum(axis=1) > m)[:, None])
    mask = np.zeros((n, n), dtype=bool)
    mask[rows, owner[cols]] = True
    return table_from_mask(mask)


def table_as_lists(table):
    return [list(s) for s in np.split(table.indices, table.indptr[1:-1])]


def membership(table):
    """Boolean (n, n) matrix with row i marking the members of set i."""
    mask = np.zeros((table.n, table.n), dtype=bool)
    mask[np.repeat(np.arange(table.n), table.sizes()), table.indices] = True
    return mask


def same_table(a, b):
    return np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def dense_member_weights(mask, params):
    """W = mask scaled row-wise by M(N, i, #N_i) as a dense array, and the
    Gershgorin radius max_i M_i (#N_i - [i in N_i]); the dense construction
    member_weights must reproduce bit for bit."""
    sizes = mask.sum(axis=1)
    m = params.prefactors(sizes)
    return mask * m[:, None], float((m * (sizes - mask.diagonal())).max())


# --- gated neighbor sets -------------------------------------------------


def test_di_isolated_particle_has_empty_set():
    table = neighbor_sets_di([[0.0, 0.0]], delta=1.0, m=3)
    assert table_as_lists(table) == [[]]


def test_di_fully_mixed_cluster_of_four():
    pos = [[0, 0], [0.5, 0], [0, 0.5], [0.5, 0.5]]
    table = neighbor_sets_di(pos, delta=2.0, m=3)
    assert table_as_lists(table) == [[0, 1, 2, 3]] * 4


def test_di_three_collinear_asymmetry():
    # Spacing 0.9*delta: the middle ball holds 3 > m=2, the end balls only 2.
    delta = 1.0
    pos = [[0.0, 0.0], [0.9, 0.0], [1.8, 0.0]]
    table = neighbor_sets_di(pos, delta=delta, m=2)
    assert table_as_lists(table) == [[], [0, 1, 2], []]
    assert table.contains(1, 0) and not table.contains(0, 1)


def test_di_count_includes_self_and_is_strict():
    # Two particles within range: ball count 2, so m=2 gates them out, m=1 lets them in.
    pos = [[0.0, 0.0], [0.5, 0.0]]
    assert table_as_lists(neighbor_sets_di(pos, 1.0, m=2)) == [[], []]
    assert table_as_lists(neighbor_sets_di(pos, 1.0, m=1)) == [[0, 1], [0, 1]]


def test_di_open_ball_excludes_boundary():
    pos = [[0.0, 0.0], [1.0, 0.0], [0.25, 0.0]]
    table = neighbor_sets_di(pos, delta=1.0, m=1)
    # Particle 1 sits exactly at distance delta from 0: outside the open ball.
    assert 1 not in table_as_lists(table)[0]


def test_di_rejects_non_finite():
    with pytest.raises(ValueError):
        neighbor_sets_di([[np.nan, 0.0]], 1.0, 1)


@given(
    n=st.integers(2, 24),
    delta=st.floats(0.3, 3.0),
    m=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_di_matches_brute_force(n, delta, m, seed):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, 4, size=(n, 2))
    table = neighbor_sets_di(pos, delta, m)
    assert table_as_lists(table) == brute_force_di_table(pos, delta, m)


@given(n=st.integers(2, 30), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_di_grid_and_ghost_match_min_image(n, seed):
    rng = np.random.default_rng(seed)
    L, delta = 10.0, 1.3
    pos = rng.uniform(0, L, size=(n, 2))
    domain = Domain(L)
    scan = neighbor_sets_di(pos, delta, 2, domain)
    ghost = neighbor_sets_di_ghost(pos, delta, 2, L=L)
    assert same_table(scan, ghost)


@given(n=st.integers(1, 12), seed=st.integers(0, 10_000), p=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_table_from_mask_round_trips(n, seed, p):
    mask = np.random.default_rng(seed).random((n, n)) < p
    table = table_from_mask(mask)
    assert table.n == n
    assert table.indices.flags.c_contiguous
    assert table_as_lists(table) == [list(np.flatnonzero(row)) for row in mask]
    assert list(table.sizes()) == list(mask.sum(axis=1))
    assert np.array_equal(membership(table), mask)
    assert all(table.contains(i, k) == mask[i, k] for i in range(n) for k in range(n))
    assert same_table(table, table_from_mask(mask.copy()))
    if mask.any():
        assert not same_table(table, table_from_mask(np.zeros_like(mask)))


# --- normalization --------------------------------------------------------


# M(N, i, #N_i) per normalization, read off ModelParams.prefactors.


def test_m_value_flat():
    assert prefactor_params("flat", 64).prefactors([5])[0] == pytest.approx(1 / 64)


def test_m_value_per_neighbor():
    assert prefactor_params("per_neighbor", 64).prefactors([4])[0] == pytest.approx(0.25)


def test_m_value_constant():
    assert prefactor_params("constant", 64).prefactors([1])[0] == 1.0


def test_m_policy_values():
    assert not prefactor_params("per_neighbor", 64).prefactors([0, 0]).any()  # empty sets


def test_m_policy_bounds():
    pol = prefactor_params("per_neighbor", 10, kappa=2.0)
    assert pol.m_star == pytest.approx(0.2)
    assert pol.prefactors([1])[0] == pytest.approx(2.0)
    flat = prefactor_params("flat", 10, kappa=2.0)
    assert flat.m_star == flat.prefactors([1])[0] == pytest.approx(0.2)


# --- coupling weights -----------------------------------------------------


@given(rule_inputs(), st.data())
@settings(max_examples=150, deadline=None)
def test_member_weights_match_dense_oracle(case, data):
    # Every model's rule on the plane or a periodic box, grid ties at exactly
    # delta, di gates that may all stay shut.
    pos, delta, L = case
    n = len(pos)
    model = data.draw(st.sampled_from(MODELS))
    knobs = {"delta": delta, "m": data.draw(st.integers(1, n))} if model == "di" else {}
    params = ModelParams(
        model, n, kappa=data.draw(st.floats(0.1, 5.0)),
        m_policy=data.draw(st.sampled_from(POLICY_KINDS)), **knobs,
    )
    mask = dense_membership(params, pos, partial(dense_distances, _domain(L)))
    table = table_from_mask(mask)

    weights, rho = member_weights(table, params)
    dense, dense_rho = dense_member_weights(mask, params)
    assert same_bits(weights.toarray(), dense)
    assert rho == dense_rho
    phi = build_digraph(table, params)
    values = params.prefactors(table.sizes())
    assert same_bits(phi.data, np.repeat(values / params.m_star, table.sizes()))


# --- accelerations ---------------------------------------------------------


def _state(positions, velocities):
    return EnsembleState(0.0, positions, velocities)


def _force(state, table, m_policy, pair_weight=None):
    """a_i = sum_k W_ik (v_k - v_i) with W = M(N, i, #N_i) on the table's sets,
    times pair_weight(x) when given.

    Written out here as the oracle: the package steps di by its propagator and
    folds cs's force into its RK4 stages.
    """
    weights, _ = dense_member_weights(membership(table), prefactor_params(m_policy, state.n))
    if pair_weight is not None:
        weights = weights * pair_weight(state.positions)
    v = state.velocities
    return weights @ v - weights.sum(axis=1, keepdims=True) * v


def _cs_weight(x):
    return alignment_weight(euclidean_distances(x, x))


def test_acceleration_di_consensus_is_equilibrium():
    pos = np.random.default_rng(0).uniform(0, 1, (5, 2))
    state = _state(pos, np.tile([0.3, -0.4], (5, 1)))
    table = neighbor_sets_di(pos, 2.0, 1)
    a = _force(state, table, "per_neighbor")
    assert np.abs(a).max() < 1e-15


def test_acceleration_di_empty_sets_free_stream():
    state = _state([[0.0, 0.0], [5.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]])
    table = neighbor_sets_di(state.positions, 1.0, 3)
    a = _force(state, table, "per_neighbor")
    assert np.all(a == 0)


def test_acceleration_di_two_mutual_neighbors():
    # m=1, per-neighbor with kappa=1, set size 2: a = +-0.5 (v_other - v_self).
    state = _state([[0.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
    table = neighbor_sets_di(state.positions, 1.0, 1)
    a = _force(state, table, "per_neighbor")
    assert a == pytest.approx(np.array([[0.5, 0.0], [-0.5, 0.0]]))


def test_acceleration_cs_two_particles_hand_value():
    # distance 3, flat M=1/2: a_0 = 0.5 * (1+3)^(-1/2) * 1 = 0.25.
    state = _state([[0.0, 0.0], [3.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
    table = table_from_mask(np.ones((2, 2), dtype=bool))
    a = _force(state, table, "flat", _cs_weight)
    assert a[0, 0] == pytest.approx(0.25)
    assert a[1, 0] == pytest.approx(-0.25)


@st.composite
def small_ensembles(draw):
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    pos = rng.uniform(-3, 3, (n, 2))
    vel = rng.uniform(-2, 2, (n, 2))
    return pos, vel


@given(ens=small_ensembles(), angle=st.floats(0, 2 * np.pi), seed2=st.integers(0, 100))
@settings(max_examples=50, deadline=None)
def test_di_rotation_translation_equivariance(ens, angle, seed2):
    pos, vel = ens
    shift = np.random.default_rng(seed2).uniform(-5, 5, 2)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    policy = "per_neighbor"

    table = neighbor_sets_di(pos, 2.0, 2)
    a = _force(_state(pos, vel), table, policy)

    pos2 = pos @ rot.T + shift
    vel2 = vel @ rot.T
    table2 = neighbor_sets_di(pos2, 2.0, 2)
    a2 = _force(_state(pos2, vel2), table2, policy)
    assert np.allclose(a2, a @ rot.T, atol=1e-10)


@given(ens=small_ensembles(), shift=st.floats(-4, 4))
@settings(max_examples=50, deadline=None)
def test_velocity_shift_invariance(ens, shift):
    pos, vel = ens
    policy = "per_neighbor"
    table = neighbor_sets_di(pos, 2.0, 2)
    a = _force(_state(pos, vel), table, policy)
    a2 = _force(_state(pos, vel + shift), table, policy)
    assert np.allclose(a, a2, atol=1e-12)


@given(ens=small_ensembles())
@settings(max_examples=50, deadline=None)
def test_di_acceleration_bounded_by_weighted_diameter(ens):
    pos, vel = ens
    params = prefactor_params("per_neighbor", len(pos))
    table = neighbor_sets_di(pos, 2.0, 2)
    state = _state(pos, vel)
    a = _force(state, table, params.m_policy)
    v_diam = velocity_diameter(state)
    for i, members in enumerate(table_as_lists(table)):
        if len(members) == 0:
            continue
        total_weight = len(members) * params.prefactors([len(members)])[0]
        assert np.linalg.norm(a[i]) <= total_weight * v_diam + 1e-12


# --- diagnostics ------------------------------------------------------------


def test_velocity_diameter_simple_cases():
    assert velocity_diameter(_state([[0, 0]], [[1.0, 2.0]])) == 0.0
    state = _state([[0, 0], [1, 0]], [[0.0, 0.0], [3.0, 4.0]])
    assert velocity_diameter(state) == pytest.approx(5.0)


@given(ens=small_ensembles())
@settings(max_examples=50, deadline=None)
def test_velocity_diameter_matches_brute_force(ens):
    import math

    pos, vel = ens
    state = _state(pos, vel)
    brute = 0.0
    for i in range(len(vel)):
        for j in range(len(vel)):
            dx, dy = vel[i, 0] - vel[j, 0], vel[i, 1] - vel[j, 1]
            brute = max(brute, math.sqrt(dx * dx + dy * dy))
    assert velocity_diameter(state) == brute


def two_discs(rng, n):
    """random_clusters' velocity law: r (cos a, sin a), r and a uniform, and
    half the points moved by r (0.5, 1)."""
    r, angle = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 2 * np.pi, n)
    v = r[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    v[: n // 2] += r[: n // 2, None] * np.array([0.5, 1.0])
    return v


@st.composite
def velocity_sets(draw):
    """Velocity sets each diameter path must get exactly right: below 3
    points, up to the pair kernel's PAIR_DIAMETER_MAX_N, or above it up to
    2500 points (the cut's and pdist's), in d = 1..3, random, drawn from a
    few repeated points, all equal, on a line parallel to one axis,
    collinear, collinear up to a relative noise of 1e-15..1e-6, on a circle
    (every point as far from the centre), random_clusters' two discs, or
    heavy-tailed (Cauchy, whose far points can leave most of the set to
    pdist), at magnitudes 1e-3..1e3 or 1e-150..1e150 around an offset."""
    kind = draw(st.sampled_from([
        "random", "duplicates", "equal", "axis", "collinear", "near_collinear", "circle",
        "two_discs", "heavy_tailed",
    ]))
    d = draw(st.sampled_from([2, 2, 2, 1, 3]))
    n = draw(st.one_of(
        st.integers(1, 2),
        st.integers(3, PAIR_DIAMETER_MAX_N),
        st.integers(PAIR_DIAMETER_MAX_N + 1, 2500),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Cauchy tails reach 1e10 and more: their squares stay finite below 1e140.
    top = 140 if kind == "heavy_tailed" else 150
    exponents = st.one_of(st.integers(-3, 3), st.integers(-150, top))
    scale = 10.0 ** draw(exponents)
    offset = rng.normal(size=d) * 10.0 ** draw(exponents)
    if kind == "random":
        v = rng.normal(size=(n, d))
    elif kind == "duplicates":
        pool = rng.normal(size=(draw(st.integers(1, 6)), d))
        v = pool[rng.integers(0, len(pool), n)]
    elif kind == "equal":
        v = np.zeros((n, d))
    elif kind == "axis":
        v = np.zeros((n, d))
        v[:, draw(st.integers(0, d - 1))] = rng.normal(size=n)
    elif kind == "circle":
        angle = rng.uniform(0, 2 * np.pi, n)
        v = np.column_stack([np.cos(angle), np.sin(angle), np.zeros(n)])[:, :d]
    elif kind == "two_discs":
        v = np.column_stack([two_discs(rng, n), np.zeros(n)])[:, :d]
    elif kind == "heavy_tailed":
        v = rng.standard_cauchy(size=(n, d))
    else:
        v = rng.normal(size=(n, 1)) * rng.normal(size=d)
        if kind == "near_collinear":
            v += rng.normal(size=(n, d)) * 10.0 ** -draw(st.integers(6, 15))
    return offset + scale * v


@given(velocity_sets())
@settings(max_examples=300, deadline=None)
def test_velocity_diameter_is_the_full_pdist_maximum(v):
    # The pair kernel's and the cut's diameters are the full pdist's, bit for bit.
    state = EnsembleState(0.0, np.zeros_like(v), v)
    assert velocity_diameter(state) == (pdist(v).max() if len(v) > 1 else 0.0)


@pytest.mark.parametrize("case", ["two_discs", "heavy_tailed", "mean_overflows"])
def test_velocity_diameter_cut_and_its_fallback(case):
    # random_clusters' velocities at N = 2048 cut to a few points for the
    # pair kernel.  This Cauchy set's two farthest points lie on the two
    # axes, so the bulk near the origin sits on the circle over their pair
    # and survives: pdist runs over the survivors.  A set whose mean and
    # midpoint overflow goes whole to pdist.
    if case == "two_discs":
        v = two_discs(np.random.default_rng(0), 2048)
    elif case == "heavy_tailed":
        v = np.random.default_rng(4).standard_cauchy(size=(2048, 2))
    else:
        v = np.random.default_rng(0).uniform(0.5, 1.0, size=(300, 2)) * np.finfo(float).max
        with np.errstate(over="ignore"):
            assert not np.isfinite(v.mean(axis=0)).all()
    keep = _diameter_candidates(v)
    if case == "two_discs":
        assert 2 <= keep.sum() <= PAIR_DIAMETER_MAX_N
    elif case == "heavy_tailed":
        assert keep.sum() > PAIR_DIAMETER_MAX_N
    else:
        assert keep is None
    assert velocity_diameter(EnsembleState(0.0, np.zeros_like(v), v)) == pdist(v).max()


def test_one_axis_velocities_cut_to_their_extremes():
    # A three_body, chain or group_vs_individual run keeps its velocities on
    # the x axis; above PAIR_DIAMETER_MAX_N points the cut keeps the two
    # extremes, where pdist over all 3000 points traces some 34 MiB.
    rng = np.random.default_rng(3)
    v = np.zeros((3000, 2))
    v[:, 0] = rng.normal(size=3000)
    state = EnsembleState(0.0, np.zeros_like(v), v)
    assert _diameter_candidates(v).sum() == 2
    tracemalloc.start()
    try:
        diameter = velocity_diameter(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diameter == pdist(v).max()
    assert peak < 2**20


def test_total_momentum_group_vs_individual_numbers():
    vel = np.vstack([np.tile([0.1, 0.0], (28, 1)), [[-2.7, 0.0]]])
    pos = np.zeros_like(vel)
    mom = total_momentum(_state(pos, vel))
    assert mom[0] == pytest.approx(0.1)
    assert mom[1] == 0.0


def test_total_momentum_trivia():
    assert np.all(total_momentum(_state([[0, 0]], [[0.2, -0.3]])) == [0.2, -0.3])
    assert np.all(total_momentum(_state([[0, 0], [1, 1]], np.zeros((2, 2)))) == 0)


def test_density_ratio_reference_numbers():
    rho_a, rho_m = density_ratio(64, 3, 2.0, 25.0)
    assert rho_a == pytest.approx(0.1024)
    assert rho_m == pytest.approx(3 / (4 * np.pi))
    assert rho_m / rho_a == pytest.approx(2.33, abs=0.01)


def test_density_ratio_scaling():
    _, rho_m1 = density_ratio(64, 3, 2.0, 25.0)
    _, rho_m2 = density_ratio(64, 3, 4.0, 25.0)
    assert rho_m2 == pytest.approx(rho_m1 / 4)
    assert density_ratio(64, 0, 2.0, 25.0)[1] == 0.0


# --- params ----------------------------------------------------------------


def test_model_params_validation():
    with pytest.raises(ConfigError):
        ModelParams(model="di", N=8, m=0, delta=1.0)
    with pytest.raises(ConfigError):
        ModelParams(model="di", N=8, m=3, delta=-1.0)
    with pytest.raises(ConfigError, match="takes no delta"):
        ModelParams(model="cs", N=8, delta=2.0)
    with pytest.raises(ConfigError, match="takes no m"):
        ModelParams(model="cs", N=8, m=3)
    with pytest.raises(ConfigError, match="m_policy"):
        ModelParams(model="cs", N=8, m_policy="uniform")
    for kappa in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError, match="kappa"):
            ModelParams(model="cs", N=8, kappa=kappa)
    # alpha = inf made psi 0 at every positive distance: cs with no alignment.
    for alpha in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="alpha"):
            ModelParams(model="cs", N=8, alpha=alpha)
    with pytest.raises(ConfigError, match="h_steps"):
        ModelParams(model="di", N=8, m=3, delta=1.0, h_steps=0)
    params = ModelParams(model="di", N=8, m=3, delta=1.0)
    assert params.m_policy == "per_neighbor"
    assert ModelParams(model="cs", N=8).m_policy == "flat"
    # di weighs no distance, and cs reads current positions.
    with pytest.raises(ConfigError, match="alpha"):
        ModelParams(model="di", N=8, m=3, delta=1.0, alpha=1.0)
    with pytest.raises(ConfigError, match="h_steps"):
        ModelParams(model="cs", N=8, h_steps=5)
    ModelParams(model="di", N=8, m=3, delta=1.0, h_steps=5)
    ModelParams(model="cs", N=8, alpha=1.0)


@pytest.mark.parametrize("key, value", [("n", 5.0), ("m", 2.5), ("m", 2.0), ("h_steps", 1.5)])
def test_model_params_rejects_counts_that_are_not_whole_numbers(key, value):
    # N = 5.0 and m = 2.0 failed inside numpy, h_steps = 1.5 in the delay
    # deque, and m = 2.5 ran as m = 2, since count > 2.5 is count > 2.
    fields = {"model": "di", "N": 5, "m": 2, "delta": 1.5, **{key.replace("n", "N"): value}}
    with pytest.raises(ConfigError, match=f"{key} must be a whole number"):
        ModelParams(**fields)


def test_model_params_takes_every_count_operator_index_takes():
    params = ModelParams("di", np.int64(5), m=np.int32(2), delta=1.5, h_steps=np.uint8(3))
    assert (params.N, params.m, params.h_steps) == (5, 2, 3)
    assert all(type(c) is int for c in (params.N, params.m, params.h_steps))


def test_model_params_rejects_infinite_kappa_and_delta():
    # kappa = inf built Phi as inf / inf and faulted at step 0; delta = inf
    # made every pair a neighbor.
    for model, kw in (("di", {"m": 3, "delta": 2.0}), ("cs", {})):
        with pytest.raises(ConfigError, match="kappa"):
            ModelParams(model=model, N=8, kappa=float("inf"), **kw)
    with pytest.raises(ConfigError, match="delta"):
        ModelParams(model="di", N=8, m=3, delta=float("inf"))
    ModelParams(model="di", N=8, m=3, delta=1e300, kappa=1e300)


def test_state_validation():
    with pytest.raises(ValueError):
        EnsembleState(0.0, [[0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        EnsembleState(0.0, [[np.inf, 0.0]], [[0.0, 0.0]])


@pytest.mark.parametrize(
    "key, value",
    [("delta", "1.5"), ("kappa", "1"), ("alpha", "0.5"), ("delta", 10**400)],
    ids=["delta-str", "kappa-str", "alpha-str", "delta-huge-int"],
)
def test_model_params_rejects_reals_that_are_not_real_numbers(key, value):
    # A string failed with TypeError: '<' not supported between 'int' and
    # 'str'; an int beyond the float range passed and overflowed later.
    with pytest.raises(ConfigError, match=f"{key} must"):
        ModelParams("di", 5, m=2, **{"delta": 1.5, key: value})


def test_model_params_stores_its_reals_as_floats():
    params = ModelParams("di", 5, m=2, delta=np.float32(1.5), kappa=2, alpha=np.float64(0.5))
    assert (params.delta, params.kappa, params.alpha) == (1.5, 2.0, 0.5)
    assert all(type(c) is float for c in (params.delta, params.kappa, params.alpha))
    with pytest.raises(ConfigError, match="L must be a real number"):
        Domain("25")
    assert type(Domain(25).L) is float
