"""Interaction rules, normalization, and diagnostics."""
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densiflock import (
    EnsembleState,
    ModelParams,
    MPolicy,
    NeighborTable,
    alignment_weight,
    density_ratio,
    euclidean_distances,
    neighbor_sets_cs_delta,
    neighbor_sets_cs_q,
    neighbor_sets_di,
    total_momentum,
    velocity_diameter,
)
from densiflock.domains import Domain
from densiflock.dynamics import member_weights, stage_force
from densiflock.errors import ConfigError


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
    return NeighborTable.from_mask(mask)


def table_as_lists(table):
    return [list(s) for s in table.sets]


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
    assert 1 not in table.sets[0]


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
    domain = Domain.periodic(L)
    scan = neighbor_sets_di(pos, delta, 2, dist=domain.distances)
    ghost = neighbor_sets_di_ghost(pos, delta, 2, L=L)
    assert scan.same_as(ghost)


@given(n=st.integers(1, 12), seed=st.integers(0, 10_000), p=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_table_from_mask_round_trips(n, seed, p):
    mask = np.random.default_rng(seed).random((n, n)) < p
    table = NeighborTable.from_mask(mask)
    assert table.n == n
    assert table.indices.flags.c_contiguous
    assert table_as_lists(table) == [list(np.flatnonzero(row)) for row in mask]
    assert list(table.sizes()) == list(mask.sum(axis=1))
    assert np.array_equal(table.membership_matrix(), mask)
    assert all(table.contains(i, k) == mask[i, k] for i in range(n) for k in range(n))
    assert table.same_as(NeighborTable.from_mask(mask.copy()))
    if mask.any():
        assert not table.same_as(NeighborTable.from_mask(np.zeros_like(mask)))


# --- cs-family neighbor sets ----------------------------------------------


def test_cs_delta_closed_ball_at_exact_range():
    pos = [[0.0, 0.0], [1.0, 0.0]]
    table = neighbor_sets_cs_delta(pos, delta=1.0)
    assert table_as_lists(table) == [[0, 1], [0, 1]]


def test_cs_delta_beyond_range_leaves_self_only():
    pos = [[0.0, 0.0], [1.01, 0.0]]
    table = neighbor_sets_cs_delta(pos, delta=1.0)
    assert table_as_lists(table) == [[0], [1]]


@given(n=st.integers(2, 20), seed=st.integers(0, 10_000), delta=st.floats(0.2, 3.0))
@settings(max_examples=50, deadline=None)
def test_cs_delta_table_symmetric(n, seed, delta):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, 4, size=(n, 2))
    table = neighbor_sets_cs_delta(pos, delta)
    mat = table.membership_matrix()
    assert (mat == mat.T).all()


def test_cs_q_two_particles():
    table = neighbor_sets_cs_q([[0.0, 0.0], [3.0, 0.0]], q=1)
    assert table_as_lists(table) == [[1], [0]]


def test_cs_q_collinear_not_symmetric():
    table = neighbor_sets_cs_q([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]], q=1)
    assert table_as_lists(table) == [[1], [0], [1]]


def test_cs_q_tie_breaks_toward_lower_index():
    #

    # 1 is equidistant from 0 and 2.
    table = neighbor_sets_cs_q([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], q=1)
    assert table_as_lists(table)[1] == [0]


def test_cs_q_range_validation():
    with pytest.raises(ConfigError):
        neighbor_sets_cs_q([[0.0, 0.0], [1.0, 0.0]], q=2)


# --- normalization --------------------------------------------------------


# M(N, i, #N_i) per normalization, read off MPolicy.values.


def test_m_value_flat():
    assert MPolicy("flat", 1.0).values(64, [5])[0] == pytest.approx(1 / 64)


def test_m_value_per_neighbor():
    assert MPolicy("per_neighbor", 1.0).values(64, [4])[0] == pytest.approx(0.25)


def test_m_value_constant():
    assert MPolicy("constant", 1.0).values(64, [1])[0] == 1.0


def test_m_policy_values():
    assert not MPolicy("per_neighbor", 1.0).values(64, [0, 0]).any()  # empty sets


def test_m_policy_bounds():
    pol = MPolicy("per_neighbor", 2.0)
    assert pol.m_star(10) == pytest.approx(0.2)
    assert pol.m_sup(10) == pytest.approx(2.0)
    flat = MPolicy("flat", 2.0)
    assert flat.m_star(10) == flat.m_sup(10) == pytest.approx(0.2)


# --- accelerations ---------------------------------------------------------


def _state(positions, velocities):
    return EnsembleState(0.0, positions, velocities)


def _force(state, table, policy, pair_weight=None):
    """a_i = sum_k W_ik (v_k - v_i) with W = M(N, i, #N_i) on the table's sets."""
    weights, _ = member_weights(table.membership_matrix(), policy, state.n)
    return stage_force(weights, pair_weight)(state.positions, state.velocities)


def _cs_weight(x):
    return alignment_weight(euclidean_distances(x, x))


def test_acceleration_di_consensus_is_equilibrium():
    pos = np.random.default_rng(0).uniform(0, 1, (5, 2))
    state = _state(pos, np.tile([0.3, -0.4], (5, 1)))
    table = neighbor_sets_di(pos, 2.0, 1)
    a = _force(state, table, MPolicy("per_neighbor"))
    assert np.abs(a).max() < 1e-15


def test_acceleration_di_empty_sets_free_stream():
    state = _state([[0.0, 0.0], [5.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]])
    table = neighbor_sets_di(state.positions, 1.0, 3)
    a = _force(state, table, MPolicy("per_neighbor"))
    assert np.all(a == 0)


def test_acceleration_di_two_mutual_neighbors():
    # m=1, per-neighbor with kappa=1, set size 2: a = +-0.5 (v_other - v_self).
    state = _state([[0.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
    table = neighbor_sets_di(state.positions, 1.0, 1)
    a = _force(state, table, MPolicy("per_neighbor", 1.0))
    assert a == pytest.approx(np.array([[0.5, 0.0], [-0.5, 0.0]]))


def test_acceleration_cs_two_particles_hand_value():
    # distance 3, flat M=1/2: a_0 = 0.5 * (1+3)^(-1/2) * 1 = 0.25.
    state = _state([[0.0, 0.0], [3.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
    table = NeighborTable.from_mask(np.ones((2, 2), dtype=bool))
    a = _force(state, table, MPolicy("flat", 1.0), _cs_weight)
    assert a[0, 0] == pytest.approx(0.25)
    assert a[1, 0] == pytest.approx(-0.25)


def test_acceleration_cs_delta_compact_support():
    state = _state([[0.0, 0.0], [5.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
    table = neighbor_sets_cs_delta(state.positions, 2.0)
    a = _force(state, table, MPolicy("per_neighbor", 1.0), _cs_weight)
    assert np.all(a == 0)


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
    policy = MPolicy("per_neighbor", 1.0)

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
    policy = MPolicy("per_neighbor", 1.0)
    table = neighbor_sets_di(pos, 2.0, 2)
    a = _force(_state(pos, vel), table, policy)
    a2 = _force(_state(pos, vel + shift), table, policy)
    assert np.allclose(a, a2, atol=1e-12)


@given(ens=small_ensembles())
@settings(max_examples=50, deadline=None)
def test_di_acceleration_bounded_by_weighted_diameter(ens):
    pos, vel = ens
    policy = MPolicy("per_neighbor", 1.0)
    table = neighbor_sets_di(pos, 2.0, 2)
    state = _state(pos, vel)
    a = _force(state, table, policy)
    v_diam = velocity_diameter(state)
    for i, members in enumerate(table.sets):
        if len(members) == 0:
            continue
        total_weight = len(members) * policy.values(state.n, [len(members)])[0]
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
    with pytest.raises(ConfigError):
        ModelParams(model="cs_q", N=8, q=8)
    with pytest.raises(ConfigError):
        ModelParams(model="cs", N=8, delta=2.0)
    params = ModelParams(model="di", N=8, m=3, delta=1.0)
    assert params.m_policy == "per_neighbor"
    assert ModelParams(model="cs", N=8).m_policy == "flat"


def test_state_validation():
    with pytest.raises(ValueError):
        EnsembleState(0.0, [[0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        EnsembleState(0.0, [[np.inf, 0.0]], [[0.0, 0.0]])
