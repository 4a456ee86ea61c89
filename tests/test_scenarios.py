"""Initial states, regime classifiers, and the contact-loss predictions."""
import hashlib

import numpy as np
import pytest

from densiflock import (
    Domain,
    ModelParams,
    ScenarioSpec,
    classify_chain,
    classify_group,
    classify_three_body,
    initial_state,
    momentum_estimate,
    parse_config,
    predict_three_body,
    run_simulation,
    simulate,
    total_momentum,
)
from densiflock.errors import ConfigError
from oracles import neighbor_sets_di


def three_body_spec(beta, gamma, v_c, n=30, delta=2.0, dt=0.01, t_end=None, seed=2):
    return ScenarioSpec(
        scenario="three_body",
        params=ModelParams(
            model="di", N=n + 1, m=3, delta=delta, kappa=1.0, m_policy="constant"
        ),
        domain=Domain(),
        dt=dt,
        t_end=3.0 * (n + 1) if t_end is None else t_end,
        sample_every=5,
        seed=seed,
        beta=beta,
        gamma=gamma,
        v_c=v_c,
    )


def random_clusters_spec(n, L, seed, margin=None):
    return ScenarioSpec(
        scenario="random_clusters",
        params=ModelParams(model="di", N=n, m=3, delta=2.0),
        domain=Domain(L),
        seed=seed,
        margin=margin,
    )


def chain_spec(delta, t_end=30.0, spacing=None):
    return ScenarioSpec(
        scenario="chain",
        params=ModelParams(
            model="di", N=22, m=3, delta=float(delta), kappa=1.0, m_policy="constant"
        ),
        domain=Domain(),
        dt=0.01,
        t_end=t_end,
        sample_every=10,
        spacing=spacing,
    )


def group_spec(shape, spacing=1.0, model="di", t_end=30.0, n=28):
    if model == "di":
        params = ModelParams(model="di", N=n + 1, m=3, delta=2.0, kappa=1.0)
    else:
        params = ModelParams(model=model, N=n + 1, kappa=1.0)
    return ScenarioSpec(
        scenario="group_vs_individual",
        params=params,
        domain=Domain(),
        dt=0.01,
        t_end=t_end,
        sample_every=10,
        shape=shape,
        spacing=spacing,
    )


# --- generators -----------------------------------------------------------------


def test_random_clusters_shape_and_bias():
    state = initial_state(random_clusters_spec(64, 25.0, seed=0, margin=2.0))
    assert state.n == 64
    assert state.positions.min() >= 2.0 and state.positions.max() <= 23.0
    # First half carries the positive drift; speeds beyond the unbiased cap show it.
    assert np.all(state.velocities[:32, 1] > -1.0)


def test_random_clusters_deterministic_per_seed():
    a = initial_state(random_clusters_spec(16, 25.0, seed=3))
    b = initial_state(random_clusters_spec(16, 25.0, seed=3))
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)
    c = initial_state(random_clusters_spec(16, 25.0, seed=4))
    assert not np.array_equal(a.positions, c.positions)


def test_random_clusters_single_particle_gets_no_drift():
    state = initial_state(random_clusters_spec(1, 25.0, seed=0))
    assert np.linalg.norm(state.velocities[0]) <= 1.0


def test_random_clusters_margin_validation():
    with pytest.raises(ConfigError, match="margin"):
        random_clusters_spec(8, 10.0, seed=0, margin=5.0)


def test_random_clusters_spec_requires_a_periodic_domain():
    # The config path always gives random_clusters a box; a library spec on
    # the plane is a ConfigError.
    params = ModelParams(model="di", N=8, m=3, delta=2.0)
    with pytest.raises(ConfigError, match="periodic"):
        ScenarioSpec("random_clusters", params, Domain())


def test_three_body_layout_and_initial_tables():
    n, beta, gamma, delta = 30, 1.0, 2.0, 2.0
    state = initial_state(three_body_spec(beta, gamma, v_c=1.0, n=n, delta=delta, seed=0))
    assert state.n == n + 1
    b, c = n - 1, n
    assert state.positions[b, 0] == beta and state.positions[c, 0] == gamma
    assert np.array_equal(state.velocities[c], [1.0, 0.0])
    assert np.all(state.velocities[:c] == 0.0)

    table = neighbor_sets_di(state.positions, delta, 3)
    # Core and edge member hear the whole cluster; the edge member also hears
    # the intruder; the intruder hears nobody.
    sizes = table.sizes()
    assert sizes[0] == n
    assert table.contains(b, c) and sizes[b] == n + 1
    assert sizes[c] == 0


def test_three_body_zero_velocity_is_static():
    spec = three_body_spec(1.0, 2.0, 0.0, n=10, t_end=1.0)
    record = run_simulation(spec)
    final = record.samples[-1]
    assert np.all(final.state.velocities == 0.0)
    assert np.array_equal(final.state.positions, record.samples[0].state.positions)


def test_three_body_constraint_validation():
    geometry = "0 < beta < delta <= gamma"
    with pytest.raises(ConfigError, match=geometry):
        three_body_spec(beta=2.5, gamma=3.0, v_c=1.0, n=30, delta=2.0)
    with pytest.raises(ConfigError, match=geometry):
        three_body_spec(beta=1.0, gamma=1.5, v_c=1.0, n=30, delta=2.0)
    with pytest.raises(ConfigError, match=geometry):
        three_body_spec(beta=0.5, gamma=2.6, v_c=1.0, n=30, delta=2.0)  # gap too wide


def test_group_shapes_share_momentum_and_differ_in_positions():
    a = initial_state(group_spec("a", spacing=None))
    b = initial_state(group_spec("b", spacing=None))
    for state in (a, b):
        assert state.n == 29
        mom = total_momentum(state)
        assert mom[0] == pytest.approx(0.1)
        assert mom[1] == 0.0
    assert np.array_equal(a.velocities, b.velocities)
    assert not np.array_equal(a.positions, b.positions)


def test_group_shape_geometry():
    a = initial_state(group_spec("a", spacing=1.0))
    # Elongated shape: 14 columns by 2 rows.
    assert len(np.unique(a.positions[:28, 0])) == 14
    assert len(np.unique(a.positions[:28, 1])) == 2
    b = initial_state(group_spec("b", spacing=1.0))
    assert len(np.unique(b.positions[:28, 0])) == 4
    assert len(np.unique(b.positions[:28, 1])) == 7
    # The singleton starts to the right of each lattice, on its midline.
    for state in (a, b):
        assert state.positions[28, 0] > state.positions[:28, 0].max()
        assert state.positions[28, 1] == 0.0


def test_group_shape_divisibility():
    with pytest.raises(ConfigError, match="multiple of 7"):
        group_spec("b", spacing=None, n=30)


def test_chain_layout():
    state = initial_state(chain_spec(2))
    assert state.n == 22
    assert np.all(state.positions[:21, 0] == 0.0)
    spacing = np.diff(np.sort(state.positions[:21, 1]))
    assert np.allclose(spacing, 0.95)
    assert state.positions[21, 1] == 0.0
    assert np.array_equal(state.velocities[21], [-8.0, 0.0])


# --- predictions ------------------------------------------------------------------


def test_predict_reference_triples():
    assert predict_three_body(1.0, 2.0, 2.0, 30, 1.0).regime == "stability"
    assert predict_three_body(1.95, 2.0, 2.0, 30, 1.0).regime == "breaking"
    assert predict_three_body(1.0, 2.0, 2.0, 30, 0.03).regime == "sticking"


def test_predict_edge_geometry_cases():
    # beta = delta/2 with gamma = delta separates the intruder for large N.
    assert predict_three_body(1.0, 2.0, 2.0, 1000, 0.5).regime == "stability"
    # Near-range edge member with matched speed gets scooped out.
    assert predict_three_body(1.99, 2.0, 2.0, 30, 1.0).regime == "breaking"
    assert predict_three_body(1.0, 2.0, 2.0, 30, 0.0).regime == "sticking"


def test_predict_detach_time_ordering():
    result = predict_three_body(1.95, 2.0, 2.0, 30, 1.0)
    assert result.t_b_detach == pytest.approx(1.5)
    assert result.t_c_detach == pytest.approx(1.95)
    assert result.t_b_detach < result.t_c_detach


def test_predict_sticking_boundary_in_intruder_speed():
    # With beta=1, gamma=2, delta=2 the sticking condition caps |v_c| at
    # (delta - (gamma - beta)) / N = 1/30.
    edge = 1.0 / 30
    assert predict_three_body(1.0, 2.0, 2.0, 30, edge).regime == "sticking"
    assert predict_three_body(1.0, 2.0, 2.0, 30, edge * 1.01).regime != "sticking"


def test_momentum_estimate_values():
    # Sticking transfers N |v_c|; tuned to the interaction range it lands there.
    assert momentum_estimate("sticking", 2.0, 30, 2.0 / 30) == pytest.approx(2.0)
    # Escape regimes approach the range as the intruder slows down.
    assert momentum_estimate("stability", 2.0, 30, 1e-9) == pytest.approx(2.0, abs=1e-6)
    assert momentum_estimate("stability", 2.0, 30, 0.0) == 2.0
    with pytest.raises(ValueError):
        momentum_estimate("bogus", 2.0, 30, 1.0)


# --- classification over simulation ------------------------------------------------


@pytest.mark.parametrize(
    "beta,v_c,expected,t_end",
    [(1.0, 1.0, "stability", 30.0), (1.95, 1.0, "breaking", 30.0), (1.0, 0.03, "sticking", None)],
)
def test_classify_matches_prediction(beta, v_c, expected, t_end):
    predicted = predict_three_body(beta, 2.0, 2.0, 30, v_c)
    record = run_simulation(three_body_spec(beta, 2.0, v_c, t_end=t_end))
    result = classify_three_body(record)
    assert predicted.regime == expected
    assert result.regime == expected


def test_classified_motion_stays_on_the_intruder_axis():
    record = run_simulation(three_body_spec(1.0, 2.0, 1.0, t_end=10.0))
    for sample in record.samples:
        assert np.abs(sample.state.velocities[:, 1]).max() < 1e-12


def test_sticking_momentum_tracks_estimate():
    record = run_simulation(three_body_spec(1.0, 2.0, 0.03))
    result = classify_three_body(record)
    est = momentum_estimate("sticking", 2.0, 30, 0.03)
    assert result.regime == "sticking"
    assert 0.5 <= result.final_momentum / est <= 2.0


def test_sticking_cluster_average_approaches_target_monotonically():
    record = run_simulation(three_body_spec(1.0, 2.0, 0.03))
    target = np.array([0.03, 0.0])
    gaps = np.array(
        [
            np.linalg.norm(s.state.velocities[:30].mean(axis=0) - target)
            for s in record.samples
        ]
    )
    # After the initial transient the approach never reverses.
    tail = gaps[5:]
    assert np.all(np.diff(tail) <= 1e-12)


def test_stability_momentum_within_factor_two_when_budget_is_full():
    # The escape estimate assumes the contact budget is about the full range;
    # beta near delta realizes that.
    record = run_simulation(three_body_spec(1.9, 2.0, 1.0, t_end=30.0))
    result = classify_three_body(record)
    est = momentum_estimate(result.regime, 2.0, 30, 1.0)
    assert 0.5 <= result.final_momentum / est <= 2.0


def test_classify_requires_matching_scenario():
    record = run_simulation(
        ScenarioSpec(
            scenario="chain",
            params=ModelParams(model="di", N=22, m=3, delta=2.0, m_policy="constant"),
            domain=Domain(),
            dt=0.01,
            t_end=0.0,
        )
    )
    with pytest.raises(ValueError):
        classify_three_body(record)


def test_classify_rejects_a_record_without_spec():
    params = ModelParams(model="di", N=4, m=3, delta=2.0)
    state = initial_state(ScenarioSpec("chain", params, Domain()))
    record = simulate(state, params, Domain(), 0.01, 0.0)
    assert record.spec is None
    for classify, scenario in (
        (classify_chain, "chain"),
        (classify_group, "group_vs_individual"),
        (classify_three_body, "three_body"),
    ):
        with pytest.raises(ValueError, match=scenario):
            classify(record)


# Smallest valid generator fields of each scenario, with its model and domain.
SPEC_BASES = {
    "random_clusters": dict(
        params=ModelParams(model="di", N=64, m=3, delta=2.0), domain=Domain(25.0),
    ),
    "group_vs_individual": dict(
        params=ModelParams(model="di", N=29, m=3, delta=2.0), domain=Domain(),
    ),
    "chain": dict(
        params=ModelParams(model="di", N=22, m=3, delta=2.0), domain=Domain(),
    ),
    "three_body": dict(
        params=ModelParams(model="di", N=31, m=3, delta=2.0), domain=Domain(),
        beta=1.0, gamma=2.0, v_c=0.03,
    ),
}
CONFIG_BASES = {
    "random_clusters": "model = di\nn = 64\ndelta = 2.0\n",
    "group_vs_individual": "model = di\ndelta = 2.0\n",
    "chain": "model = di\ndelta = 2.0\n",
    "three_body": "model = di\nn = 30\ndelta = 2.0\nbeta = 1.0\ngamma = 2.0\nv_c = 0.03\n",
}


# Non-default generator fields of each scenario, with its model and domain.
SPEC_VARIANTS = {
    "random_clusters": dict(
        params=ModelParams(model="cs", N=17), domain=Domain(20.0), margin=3.5,
    ),
    "group_vs_individual": dict(
        params=ModelParams(model="di", N=15, m=3, delta=2.0), domain=Domain(),
        shape="b", spacing=0.8,
    ),
    "chain": dict(
        params=ModelParams(model="di", N=6, m=3, delta=2.0), domain=Domain(),
        spacing=1.3,
    ),
    "three_body": dict(
        params=ModelParams(model="di", N=12, m=3, delta=3.0), domain=Domain(),
        beta=0.5, gamma=3.2, v_c=-0.7,
    ),
}
# sha256 of each initial state's positions.tobytes() + velocities.tobytes(); "base"
# takes SPEC_BASES, which leave the defaulted fields unset, "variant" SPEC_VARIANTS.
STATE_DIGESTS = {
    "random_clusters": {
        ("base", 0): "b5e5485d72512ad8951df6ac23dcf063debd7787ce0838084d80270f810c9fea",
        ("base", 7): "af396f87bcbd798205c301b1d525e62caf776f7534a9cff7c616566f23690ef0",
        ("variant", 0): "b42821490d8547526803d6a37ea7588918aa06afe71130ccc0c4670e57a71dbe",
        ("variant", 7): "698c80d769999b3864f30c11751e15a355fa4ad5b001076ef740954404064ccb",
    },
    "group_vs_individual": {
        ("base", 0): "44b0da5d5db5abf82f04ea16cac85236e69e7b40ce882988877c748c304321c5",
        ("base", 7): "44b0da5d5db5abf82f04ea16cac85236e69e7b40ce882988877c748c304321c5",
        ("variant", 0): "d77650e36e4558ae31c4b19ab4b2827350694826e0faa89f4d82d74fa4d9e970",
        ("variant", 7): "d77650e36e4558ae31c4b19ab4b2827350694826e0faa89f4d82d74fa4d9e970",
    },
    "chain": {
        ("base", 0): "ad8fa408c2b38f4f3264f8b3fef8916d472f8f00989963ee1404438de4407236",
        ("base", 7): "ad8fa408c2b38f4f3264f8b3fef8916d472f8f00989963ee1404438de4407236",
        ("variant", 0): "390f2c083a885f538768b203bc80cf3d29ac6ad4ccd5a9d732d6d2b295d02c17",
        ("variant", 7): "390f2c083a885f538768b203bc80cf3d29ac6ad4ccd5a9d732d6d2b295d02c17",
    },
    "three_body": {
        ("base", 0): "f871729464523f5a95bc007c80f85796c565eb67273865f256c775c34e009081",
        ("base", 7): "5fadc2ace7cbf1ca61dc0d342e06c9796491100a1ae5c39fa1ae35f64767312a",
        ("variant", 0): "33ffdc67fa3c43a7a9fa4f02760d088058a269389c6c518619ada1a5d8e268ff",
        ("variant", 7): "21233d8f1735e153358425229f99a526f72f406e7a6039fa8bc7eea08926fff3",
    },
}


@pytest.mark.parametrize(
    "scenario, fields, seed",
    [(scenario, *case) for scenario, cases in STATE_DIGESTS.items() for case in cases],
)
def test_initial_state_bytes_are_pinned(scenario, fields, seed):
    table = SPEC_BASES if fields == "base" else SPEC_VARIANTS
    state = initial_state(ScenarioSpec(scenario, seed=seed, **table[scenario]))
    data = state.positions.tobytes() + state.velocities.tobytes()
    assert hashlib.sha256(data).hexdigest() == STATE_DIGESTS[scenario][fields, seed]


@pytest.mark.parametrize(
    "scenario, field, value",
    [
        ("chain", "beta", 1.0),
        ("chain", "margin", 3.0),
        ("chain", "shape", "b"),
        ("random_clusters", "spacing", 1.0),
        ("group_vs_individual", "v_c", 1.0),
        ("three_body", "spacing", 1.0),
        ("three_body", "margin", 2.0),
    ],
)
def test_spec_rejects_generator_fields_its_scenario_ignores(scenario, field, value):
    ScenarioSpec(scenario, **SPEC_BASES[scenario])
    with pytest.raises(ConfigError, match=field):
        ScenarioSpec(scenario, **SPEC_BASES[scenario], **{field: value})


@pytest.mark.parametrize(
    "scenario, field, value",
    [
        ("random_clusters", "dt", np.inf),
        ("random_clusters", "margin", np.nan),
        ("three_body", "v_c", np.nan),
        ("three_body", "v_c", np.inf),
        ("chain", "spacing", np.inf),
    ],
)
def test_spec_rejects_non_finite_values(scenario, field, value):
    # The config path rejects these as it reads them.  A library spec took
    # them and failed later: 0 steps with t = nan, an OverflowError, or a
    # ValueError from EnsembleState.
    with pytest.raises(ConfigError, match=field):
        ScenarioSpec(scenario, **{**SPEC_BASES[scenario], field: value})


@pytest.mark.parametrize("field, value", [("seed", 1.5), ("sample_every", 2.5), ("sample_every", 2.0)])
def test_spec_rejects_counts_that_are_not_whole_numbers(field, value):
    # A float seed failed in SeedSequence, a float sample_every inside numpy.
    with pytest.raises(ConfigError, match=f"{field} must be a whole number"):
        ScenarioSpec("random_clusters", **{**SPEC_BASES["random_clusters"], field: value})
    ScenarioSpec("random_clusters", **{**SPEC_BASES["random_clusters"], field: np.int64(2)})


@pytest.mark.parametrize("scenario", list(SPEC_BASES))
def test_library_and_config_default_to_one_horizon(scenario):
    spec = ScenarioSpec(scenario, **SPEC_BASES[scenario])
    parsed = parse_config(f"scenario = {scenario}\n" + CONFIG_BASES[scenario]).spec
    assert spec.t_end == parsed.t_end
    assert spec.t_end == {"three_body": 93.0, "random_clusters": 150.0}.get(scenario, 30.0)


def test_chain_narrow_range_splits():
    result = classify_chain(run_simulation(chain_spec(2)))
    assert result.split
    assert result.final_clusters > result.initial_clusters


def test_chain_wide_range_pushes_whole_cluster():
    result = classify_chain(run_simulation(chain_spec(4)))
    assert not result.split
    assert result.regime == "push"
    assert result.chain_vx_final < 0
    assert result.single_vx_final < 0


def test_group_momentum_flip_depends_on_shape():
    flipped = classify_group(run_simulation(group_spec("a")))
    held = classify_group(run_simulation(group_spec("b")))
    assert flipped.momentum_flipped
    assert not held.momentum_flipped


def test_group_cs_conserves_momentum_in_both_shapes():
    for shape in ("a", "b"):
        record = run_simulation(group_spec(shape, model="cs"))
        mom = record.momentum_series()
        assert np.abs(mom - mom[0]).max() < 1e-10


@pytest.mark.parametrize(
    "scenario, field",
    [("random_clusters", "dt"), ("random_clusters", "t_end"), ("random_clusters", "margin"),
     ("chain", "spacing"), ("three_body", "beta"), ("three_body", "gamma"),
     ("three_body", "v_c")],
)
def test_spec_rejects_reals_that_are_not_real_numbers(scenario, field):
    # A string failed with a TypeError from a comparison or an arithmetic.
    with pytest.raises(ConfigError, match=f"{field} must be a real number"):
        ScenarioSpec(scenario, **{**SPEC_BASES[scenario], field: "1"})
