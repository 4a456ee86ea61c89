"""Configuration format, file outputs, sweeps, and the verify battery."""
import os
import re
import sys
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import densiflock.cli
from densiflock import (
    ConfigError,
    Domain,
    EnsembleState,
    ModelParams,
    RunConfig,
    initial_state,
    parse_config,
    run_simulation,
    simulate,
)
from densiflock.cli import (
    SweepRow,
    cmd_run,
    main,
    splitmix64,
    sweep_runs,
    write_clusters_csv,
    write_diagnostics_csv,
    write_plot_data,
    write_sweep_csv,
    write_trajectory_csv,
)
from densiflock.dynamics import NeighborTable
from densiflock.graph import ClusterLabeling
from densiflock.integrate import TrajectoryRecord, TrajectorySample
from scipy.sparse import csr_matrix
from oracles import dense_distances, is_r_densely_packed

BASE_RUN = """\
# reference run
scenario = random_clusters
model = di
n = 16
m = 3
delta = 2.0
m_policy = per_neighbor
kappa = 1.0
L = 25.0
dt = 0.01
t_end = 1.0
sample_every = 10
seed = 0
margin = 2.0
"""

THREE_BODY = """\
scenario = three_body
model = di
n = 30
delta = 2.0
m_policy = constant
beta = 1.0
gamma = 2.0
v_c = 1.0
dt = 0.01
t_end = 6.0
sample_every = 5
"""

GROUP_RUN = "scenario = group_vs_individual\nmodel = di\ndelta = 2.0\nt_end = 1.0\n"
CHAIN_RUN = "scenario = chain\nmodel = di\ndelta = 2.0\nt_end = 1.0\n"


# --- parsing ---------------------------------------------------------------------


def test_parse_reference_config():
    config = parse_config(BASE_RUN)
    params = config.spec.params
    assert params.model == "di" and params.N == 16 and params.m == 3
    assert params.delta == 2.0 and params.m_policy == "per_neighbor"
    assert config.spec.domain.L == 25.0
    assert config.record_trajectory and config.record_clusters


def test_parse_table_defaults():
    config = parse_config("scenario = random_clusters\nmodel = cs\nn = 64\n")
    assert config.spec.params.m_policy == "flat"
    assert config.spec.t_end == 150.0
    assert config.spec.dt == 0.01
    assert config.spec.domain.is_periodic


def test_parse_rejects_bad_values():
    bad = [
        ("scenario = random_clusters\nmodel = di\nn = 64\ndelta = 0\n", "delta"),
        ("scenario = random_clusters\nmodel = cs_q\nn = 64\n", "removed model cs_q"),
        ("scenario = random_clusters\nmodel = di\nn = 64\ndelta = 2\nn = 3\n", "duplicate"),
        ("scenario = random_clusters\nmodel = di\nn = sixty\ndelta = 2\n", "int"),
        ("model = di\nn = 8\ndelta = 2\n", "scenario"),
        ("scenario = chain\nmodel = di\ndelta_variant = 5\n", "delta_variant"),
        ("scenario = chain\nmodel = di\ndelta = 3\ndelta_variant = 2\n", "conflict"),
        ("scenario = chain\nmodel = di\ndelta = 2\nbeta = 1\n", "scenario key"),
        ("scenario = random_clusters\nmodel = di\nn = 8\ndelta = 2\nwat = 1\n", "unknown"),
        ("scenario = random_clusters\nmodel = di\nn = 8\ndelta = 2\nno_equals_here\n", "format"),
        ("scenario = random_clusters\nmodel = di\nn = 8\ndelta = 2\nalpha = 1.0\n", "di alpha"),
        ("scenario = random_clusters\nmodel = cs\nn = 8\nh_steps = 5\n", "cs h_steps"),
    ]
    for text, label in bad:
        with pytest.raises(ConfigError):
            parse_config(text)


@pytest.mark.parametrize(
    "line", ["model = cs_q", "model = cs_delta", "q = 2"], ids=["cs_q", "cs_delta", "q"]
)
def test_removed_models_and_their_key_fail_cleanly(tmp_path, capsys, line):
    # The models are di and cs, and no key names a neighbor count q: such a
    # config is a ConfigError naming the model or the key, exit 1.
    key = line.partition(" ")[0]
    text = BASE_RUN.replace("model = di", line) if key == "model" else BASE_RUN + line + "\n"
    with pytest.raises(ConfigError, match="unknown key 'q'" if key == "q" else "key 'model'"):
        parse_config(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + f"output_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_parse_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("scenario = chain\nmodel = di\nbroken line\n")


def test_periodic_box_must_exceed_interaction_range():
    text = BASE_RUN.replace("L = 25.0", "L = 3.0")
    with pytest.raises(ConfigError):
        parse_config(text)


def test_margin_constraint_enforced_at_parse_time():
    with pytest.raises(ConfigError, match="margin"):
        parse_config(BASE_RUN.replace("margin = 2.0", "margin = 13.0"))


# One small valid config per scenario; the fuzz sets one key to one value class.
FUZZ_BASES = [BASE_RUN, GROUP_RUN, CHAIN_RUN, THREE_BODY]
FUZZ_KEYS = [
    "model", "n", "m", "delta", "q", "kappa", "alpha", "m_policy", "h_steps", "dt",
    "t_end", "sample_every", "domain", "L", "seed", "scenario", "beta", "gamma", "v_c",
    "shape", "delta_variant", "spacing", "margin", "output_dir", "record_trajectory",
    "record_diagnostics", "record_clusters", "no_such_key",
]
FUZZ_VALUES = [
    "nan", "inf", "-inf", "-1", "-0.5", "0", "0.0", str(10**12), "1e12", "abc", "1.5", "true",
]


@given(
    base=st.sampled_from(FUZZ_BASES),
    key=st.sampled_from(FUZZ_KEYS),
    value=st.sampled_from(FUZZ_VALUES),
)
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_fuzzed_config_parses_or_names_a_config_error(base, key, value):
    lines = [line for line in base.splitlines() if line.partition("=")[0].strip() != key]
    text = "\n".join(lines + [f"{key} = {value}"]) + "\n"
    try:
        config = parse_config(text)
    except ConfigError:
        return
    assert isinstance(config, RunConfig)
    # Every scenario rule is checked at parse time, so a parsed run builds.
    if config.spec.params.N <= 100:  # larger states are never built here
        assert isinstance(initial_state(config.spec), EnsembleState)


def test_three_body_defaults():
    config = parse_config(
        "scenario = three_body\nmodel = di\nn = 30\ndelta = 2\n"
        "beta = 1\ngamma = 2\nv_c = 1\nm_policy = constant\n"
    )
    assert config.spec.params.N == 31
    assert config.spec.t_end == pytest.approx(93.0)
    assert not config.spec.domain.is_periodic


def test_a_run_is_periodic_exactly_when_it_sets_L():
    assert parse_config(THREE_BODY + "L = 30.0\n").spec.domain == Domain(30.0)
    assert parse_config(THREE_BODY).spec.domain == Domain()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_domain_is_not_a_config_key(tmp_path, capsys, command):
    # L alone says whether a run is periodic, so a domain line or --set key
    # is an unknown key, named, exit 1.
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    if command == "run":
        cfg.write_text(BASE_RUN + f"domain = periodic\noutput_dir = {out}\n")
        argv = ["run", str(cfg)]
    else:
        cfg.write_text(BASE_RUN)
        argv = ["sweep", str(cfg), "--set", "domain=periodic", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "unknown key 'domain'" in err and "Traceback" not in err
    assert not out.exists()


# --- run outputs ------------------------------------------------------------------


def read(path):
    with open(path) as f:
        return f.read()


def test_cmd_run_writes_expected_files(tmp_path):
    config = parse_config(BASE_RUN + f"output_dir = {tmp_path}\n")
    written = cmd_run(config)
    names = {p.name for p in written}
    assert names == {
        "trajectory.csv", "diagnostics.csv", "clusters.csv", "vmax.dat", "momentum_x.dat"
    }
    assert read(tmp_path / "trajectory.csv").splitlines()[0] == "t,id,x0,x1,v0,v1,cluster"
    assert read(tmp_path / "diagnostics.csv").splitlines()[0] == "t,vmax,mom0,mom1,n_clusters"
    assert (
        read(tmp_path / "clusters.csv").splitlines()[0]
        == "t,cluster_id,size,is_delta_packed,lambda2"
    )


def test_cmd_run_byte_identical_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cmd_run(parse_config(BASE_RUN + f"output_dir = {a}\n"))
    cmd_run(parse_config(BASE_RUN + f"output_dir = {b}\n"))
    for name in ("trajectory.csv", "diagnostics.csv", "clusters.csv"):
        assert read(a / name) == read(b / name)


def test_cmd_run_zero_horizon_single_rows(tmp_path):
    text = BASE_RUN.replace("t_end = 1.0", "t_end = 0.0") + f"output_dir = {tmp_path}\n"
    cmd_run(parse_config(text))
    diag = read(tmp_path / "diagnostics.csv").splitlines()
    assert len(diag) == 2  # header + initial sample
    traj = read(tmp_path / "trajectory.csv").splitlines()
    assert len(traj) == 1 + 16


def test_cmd_run_row_counts(tmp_path):
    config = parse_config(BASE_RUN + f"output_dir = {tmp_path}\n")
    cmd_run(config)
    traj = read(tmp_path / "trajectory.csv").splitlines()
    # 11 samples (0..100 step 10) x 16 particles + header
    assert len(traj) == 1 + 11 * 16


def test_trajectory_floats_round_trip(tmp_path):
    config = parse_config(BASE_RUN + f"output_dir = {tmp_path}\n")
    cmd_run(config)
    record = run_simulation(config.spec)
    line = read(tmp_path / "trajectory.csv").splitlines()[1]
    cells = line.split(",")
    assert float(cells[2]) == record.samples[0].state.positions[0, 0]


def test_diagnostics_vmax_column_nonincreasing(tmp_path):
    text = BASE_RUN.replace("t_end = 1.0", "t_end = 10.0") + f"output_dir = {tmp_path}\n"
    cmd_run(parse_config(text))
    lines = read(tmp_path / "diagnostics.csv").splitlines()[1:]
    v = np.array([float(line.split(",")[1]) for line in lines])
    assert np.all(v[1:] <= v[:-1] + 1e-8 * v[0])


def test_clusters_csv_reports_packedness_and_spectrum(tmp_path):
    # A tight blob forms one packed symmetric cluster under flat weights.
    text = """\
scenario = random_clusters
model = di
n = 9
m = 3
delta = 2.0
m_policy = flat
L = 25.0
dt = 0.01
t_end = 0.0
seed = 1
margin = 11.0
"""
    config = parse_config(text + f"output_dir = {tmp_path}\n")
    cmd_run(config)
    rows = [line.split(",") for line in read(tmp_path / "clusters.csv").splitlines()[1:]]
    big = [r for r in rows if int(r[2]) > 3]
    assert big, "expected one dense cluster"
    assert big[0][3] == "true"
    assert float(big[0][4]) > 0  # symmetric flat cluster carries a spectrum


def test_clusters_csv_packedness_matches_geometric_test(tmp_path):
    # The writer reads packedness off the gate; recompute it geometrically.
    runs = [
        BASE_RUN.replace("n = 16", "n = 40").replace("L = 25.0", "L = 15.0") + "h_steps = 3\n",
        "scenario = chain\nmodel = di\ndelta = 2.0\nt_end = 5.0\n",
    ]
    kinds = set()
    for i, text in enumerate(runs):
        out = tmp_path / str(i)
        config = parse_config(text + f"output_dir = {out}\n")
        cmd_run(config)
        rows = [line.split(",") for line in read(out / "clusters.csv").splitlines()[1:]]
        params, dist = config.spec.params, partial(dense_distances, config.spec.domain)
        expected = []
        for s in run_simulation(config.spec).samples:
            for members in s.labels.clusters():
                packed = is_r_densely_packed(
                    s.delayed_positions, members, params.delta, params.m, dist=dist
                ).is_packed
                expected.append("true" if packed else "false")
                kinds.add("cluster" if len(members) > 1 else f"singleton {packed}")
        assert [r[3] for r in rows] == expected
    assert kinds == {"cluster", "singleton True", "singleton False"}


def test_clusters_csv_rejects_a_record_without_spec_before_opening(tmp_path):
    # simulate() from an explicit state records no spec, hence no model.
    spec = parse_config(BASE_RUN).spec
    record = simulate(initial_state(spec), spec.params, spec.domain, spec.dt, 0.0)
    with pytest.raises(ValueError, match="spec"):
        write_clusters_csv(record, tmp_path / "clusters.csv")
    assert not (tmp_path / "clusters.csv").exists()


def test_write_plot_data_empty_record(tmp_path):
    class Empty:
        samples = []

    paths = write_plot_data(Empty(), tmp_path)
    for p in paths:
        assert len(read(p).splitlines()) == 1  # header only


def _format_record(model):
    """Two hand-built samples of three particles: a symmetric pair plus a
    singleton, then one cluster whose weights are asymmetric."""
    def sample(t, velocities, labels, count, table_indptr, phi, vmax, momentum):
        positions = np.array([[0.1, 1e-17], [2.0, -3.5], [1e22, 0.0]])
        return TrajectorySample(
            step=0, t=t,
            state=EnsembleState(t, positions, np.array(velocities)),
            delayed_positions=positions,
            table=NeighborTable(np.array(table_indptr), np.array([1, 0])),
            phi=csr_matrix(np.array(phi)),
            labels=ClusterLabeling(np.array(labels), count),
            vmax=vmax, momentum=np.array(momentum),
        )

    return TrajectoryRecord(
        spec=SimpleNamespace(params=SimpleNamespace(model=model)),
        samples=[
            sample(0.0, [[0.5, 0.0], [-0.25, 1.5], [0.0, 0.0]], [0, 0, 1], 2, [0, 1, 2, 2],
                   [[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]], 1e-17, [0.1, -2.0]),
            sample(0.1, [[0.5, 0.0], [-0.25, 1.5], [0.0, 1e-05]], [0, 0, 0], 1, [0, 1, 1, 2],
                   [[0, 0.5, 0], [0.25, 0, 0.5], [0, 0.5, 0]], 0.30000000000000004, [0.0, 3.0]),
        ],
    )


def test_writers_pin_the_output_format(tmp_path):
    # Header, separator, "\n" line ends, shortest round-trip floats,
    # true/false, empty cells for None and for a missing lambda2.
    record = _format_record("di")
    write_trajectory_csv(record, tmp_path / "trajectory.csv")
    write_diagnostics_csv(record, tmp_path / "diagnostics.csv")
    write_clusters_csv(record, tmp_path / "clusters.csv")
    write_clusters_csv(_format_record("cs"), tmp_path / "clusters_cs.csv")
    write_plot_data(record, tmp_path)
    expected = {
        "trajectory.csv": (
            "t,id,x0,x1,v0,v1,cluster\n"
            "0.0,0,0.1,1e-17,0.5,0.0,0\n"
            "0.0,1,2.0,-3.5,-0.25,1.5,0\n"
            "0.0,2,1e+22,0.0,0.0,0.0,1\n"
            "0.1,0,0.1,1e-17,0.5,0.0,0\n"
            "0.1,1,2.0,-3.5,-0.25,1.5,0\n"
            "0.1,2,1e+22,0.0,0.0,1e-05,0\n"
        ),
        "diagnostics.csv": (
            "t,vmax,mom0,mom1,n_clusters\n"
            "0.0,1e-17,0.1,-2.0,2\n"
            "0.1,0.30000000000000004,0.0,3.0,1\n"
        ),
        "clusters.csv": (
            "t,cluster_id,size,is_delta_packed,lambda2\n"
            "0.0,0,2,true,1.0\n"
            "0.0,1,1,false,\n"
            "0.1,0,3,false,\n"
        ),
        "clusters_cs.csv": (
            "t,cluster_id,size,is_delta_packed,lambda2\n"
            "0.0,0,2,,1.0\n"
            "0.0,1,1,,\n"
            "0.1,0,3,,\n"
        ),
        "vmax.dat": "time\tV\n0.0\t1e-17\n0.1\t0.30000000000000004\n",
        "momentum_x.dat": "time\tmom0\n0.0\t0.1\n0.1\t0.0\n",
    }
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name


@pytest.mark.parametrize("d", [1, 3])
def test_writers_name_a_column_per_coordinate_in_any_dimension(tmp_path, d):
    # The columns follow the samples' d, and every row fills its header.
    rng = np.random.default_rng(d)
    state = EnsembleState(0.0, rng.uniform(0.0, 3.0, (6, d)), rng.normal(size=(6, d)))
    record = simulate(state, ModelParams("di", 6, m=2, delta=2.0), Domain(), 0.01, 0.1)
    coords = [f"{k}" for k in range(d)]
    headers = {
        write_trajectory_csv(record, tmp_path / "trajectory.csv"):
            ["t", "id", *("x" + k for k in coords), *("v" + k for k in coords), "cluster"],
        write_diagnostics_csv(record, tmp_path / "diagnostics.csv"):
            ["t", "vmax", *("mom" + k for k in coords), "n_clusters"],
    }
    for path, header in headers.items():
        lines = [line.split(",") for line in read(path).splitlines()]
        assert lines[0] == header
        assert {len(row) for row in lines[1:]} == {len(header)}
    final = [float(c) for c in read(tmp_path / "diagnostics.csv").splitlines()[-1].split(",")]
    assert final[2:-1] == record.samples[-1].momentum.tolist()


def test_sweep_csv_pins_the_output_format(tmp_path):
    rows = [
        SweepRow(index=0, overrides={"beta": "1.5", "v_c": "0.1"}, seed=7, regime="stability",
                 final_mom0=0.1, final_mom1=1e-17, final_clusters=2),
        SweepRow(index=1, overrides={"beta": "3.0"}, seed=2**64 - 1,
                 error="ConfigError: got beta=3.0, gamma=2.0"),
    ]
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, ["beta", "v_c"], out)
    assert out.read_bytes() == (
        b"run,beta,v_c,seed,regime,final_mom0,final_mom1,final_clusters,error\n"
        b"0,1.5,0.1,7,stability,0.1,1e-17,2,\n"
        b"1,3.0,,18446744073709551615,,,,,ConfigError: got beta=3.0; gamma=2.0\n"
    )


def test_main_exit_codes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_RUN + f"output_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario = random_clusters\nmodel = di\n")  # missing n
    assert main(["run", str(bad)]) == 1
    assert main(["run", str(tmp_path / "missing.cfg")]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "base.cfg", "--jobs", "abc"],
        ["verify", "--tol-scale", "abc"],
        ["sweep", "base.cfg", "--seed", "x"],
        ["run"],
        ["bogus"],
        [],
    ],
    ids=["jobs-not-int", "tol-scale-not-float", "seed-not-int", "run-without-config",
         "unknown-command", "no-command"],
)
def test_argument_errors_exit_with_config_code(capsys, argv):
    # argparse's own exit status, 2, is the integration-fault code.
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["sweep", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_unstable_run_exits_with_integration_fault(tmp_path, capsys):
    # h*rho = 20 here; without the stability check the velocity diameter
    # grows from 8.1 to about 2e12 and the run exits 0.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scenario = chain\nmodel = di\nm_policy = constant\nkappa = 500\n"
        f"delta = 2.0\nt_end = 1.0\noutput_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "h*rho = 20" in err and "1.39" in err


@pytest.mark.parametrize(
    "config,step",
    [
        ("scenario = chain\nmodel = di\ndelta = 2.0\nspacing = 1e160\n", 0),
        ("scenario = three_body\nmodel = di\nn = 10\nbeta = 1.5\ngamma = 2.0\n"
         "delta = 2.0\nv_c = 1e200\n", 2),
    ],
    ids=["chain", "three_body"],
)
def test_positions_the_search_cannot_span_exit_with_integration_fault(
    tmp_path, capsys, config, step
):
    # The kd-tree refused these delayed positions with a ValueError traceback
    # (exit 1): the chain's lattice at the first step, the intruder once its
    # 1e200 speed has carried it 1e198 away.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + f"t_end = 1.0\noutput_dir = {tmp_path / 'out'}\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"integration fault: step {step}: the delayed positions span")
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_run_prints_only_its_fault_line(tmp_path, capsys):
    # The intruder's 1e200 speed overflows the squared speeds and pair lengths
    # of the certificate, the search and the velocity diameter; the run
    # reports the fault alone, with no numpy warning and no errstate here.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scenario = three_body\nmodel = di\nn = 10\nbeta = 1.5\ngamma = 2.0\n"
        f"delta = 2.0\nv_c = 1e200\nt_end = 1.0\noutput_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "integration fault: step 2: the delayed positions span 1e+198, beyond the "
        "neighbor search's squared distances\n"
    )


@pytest.mark.parametrize(
    "old,new,key",
    [
        ("t_end = 1.0", "t_end = nan", "t_end"),
        ("t_end = 1.0", "t_end = inf", "t_end"),
        ("L = 25.0", "L = inf", "L"),
        ("t_end = 1.0", "t_end = 0.015", "t_end"),  # would overrun to 0.02
        ("t_end = 1.0", "t_end = 0.025", "t_end"),  # would stop short at 0.02
        # Replacing all of BASE_RUN runs another scenario.  "config error"
        # holds an "n", so the n cases look for the key with its value.
        (BASE_RUN, GROUP_RUN + "n = 0\n", "n=0"),
        (BASE_RUN, GROUP_RUN + "spacing = -1.0\n", "spacing"),
        (BASE_RUN, GROUP_RUN + "spacing = 0.0\n", "spacing"),
        (BASE_RUN, CHAIN_RUN + "n = 1\n", "n=1"),
        (BASE_RUN, THREE_BODY.replace("beta = 1.0", "beta = 0.001"), "beta"),
    ],
    ids=["t_end-nan", "t_end-inf", "L-inf", "t_end-overrun", "t_end-short",
         "group-n-zero", "group-spacing-negative", "group-spacing-zero",
         "chain-n-one", "three-body-beta-inside-jitter"],
)
def test_run_rejects_bad_values_naming_the_key(tmp_path, capsys, old, new, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_RUN.replace(old, new) + f"output_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("base", [BASE_RUN, THREE_BODY], ids=["random_clusters", "three_body"])
def test_run_rejects_negative_seed(tmp_path, capsys, base):
    text = "".join(line for line in base.splitlines(True) if not line.startswith("seed"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + f"seed = -1\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err


def test_run_rejects_h_steps_the_delay_ring_cannot_hold(tmp_path, capsys):
    # The ring's maxlen, h_steps + 1, must fit a Py_ssize_t.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_RUN + f"h_steps = {sys.maxsize}\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "h_steps" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    config = parse_config(BASE_RUN + f"h_steps = {sys.maxsize - 1}\n")
    assert config.spec.params.h_steps == sys.maxsize - 1


def test_parse_rejects_a_particle_count_whose_pair_keys_overflow_int64():
    # NeighborSearch.table keys each pair as row * N + col in int64; only
    # parsed here, never run.
    with pytest.raises(ConfigError, match="n must"):
        parse_config(BASE_RUN.replace("n = 16", "n = 3037000500"))
    config = parse_config(BASE_RUN.replace("n = 16", "n = 3037000499"))
    assert config.spec.params.N == 3037000499


def test_run_rejects_a_particle_count_beyond_int64(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    text = BASE_RUN.replace("n = 16", "n = 9223372036854775808")
    cfg.write_text(text + f"output_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "n must" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_rejects_output_dir_that_is_a_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_RUN + f"output_dir = {taken}\n")
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "output_dir" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "name,content", [(".", None), ("run.cfg", b"scenario = chain\xff\n")],
    ids=["directory", "not-utf8"],
)
def test_run_rejects_config_path_it_cannot_read(tmp_path, capsys, name, content):
    cfg = tmp_path / name
    if content is not None:
        cfg.write_bytes(content)
    assert main(["run", str(cfg)]) == 1
    assert str(cfg) in capsys.readouterr().err


@pytest.mark.parametrize(
    "base", [BASE_RUN, GROUP_RUN, CHAIN_RUN, THREE_BODY],
    ids=["random_clusters", "group_vs_individual", "chain", "three_body"],
)
def test_zero_horizon_run_of_each_scenario_writes_every_file(tmp_path, base):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(re.sub(r"t_end = \S+", "t_end = 0.0", base) + f"output_dir = {out}\n")
    assert main(["run", str(cfg)]) == 0
    assert {p.name for p in out.iterdir()} == {
        "trajectory.csv", "diagnostics.csv", "clusters.csv", "vmax.dat", "momentum_x.dat"
    }


# --- sweeps ------------------------------------------------------------------------


def test_splitmix_subseeds_are_order_independent():
    seeds = [splitmix64(7, i) for i in range(16)]
    assert len(set(seeds)) == 16
    assert splitmix64(7, 3) == seeds[3]
    assert all(0 <= s < 2**64 for s in seeds)


def test_sweep_grid_rows_and_determinism(tmp_path):
    grid = {"beta": ["1.0", "1.95"], "v_c": ["1.0"]}
    rows = sweep_runs(THREE_BODY, grid, master_seed=1)
    assert [r.overrides["beta"] for r in rows] == ["1.0", "1.95"]
    assert rows[0].regime == "stability"
    assert rows[1].regime == "breaking"
    again = sweep_runs(THREE_BODY, grid, master_seed=1)
    assert [r.seed for r in rows] == [r.seed for r in again]
    assert [r.final_mom0 for r in rows] == [r.final_mom0 for r in again]

    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, ["beta", "v_c"], out)
    lines = read(out).splitlines()
    assert lines[0] == "run,beta,v_c,seed,regime,final_mom0,final_mom1,final_clusters,error"
    assert len(lines) == 3


def test_sweep_rejects_seed_as_grid_key(tmp_path, capsys):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(THREE_BODY)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg), "--set", "seed=5,6", "--out", str(out)]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_records_failures_without_aborting():
    grid = {"beta": ["1.0", "99.0"]}  # the second violates the geometry
    rows = sweep_runs(THREE_BODY, grid, master_seed=0)
    assert rows[0].error == "" and rows[0].regime == "stability"
    assert rows[1].error != ""


def test_sweep_parallel_matches_serial():
    grid = {"beta": ["1.0", "1.95"]}
    serial = sweep_runs(THREE_BODY, grid, master_seed=5, jobs=1)
    parallel = sweep_runs(THREE_BODY, grid, master_seed=5, jobs=2)
    assert [(r.regime, r.final_mom0) for r in serial] == [
        (r.regime, r.final_mom0) for r in parallel
    ]


def test_sweep_pool_never_exceeds_the_run_count(monkeypatch):
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(densiflock.cli, "ProcessPoolExecutor", SerialPool)
    rows = sweep_runs(THREE_BODY, {"beta": ["1.0", "1.95"]}, master_seed=5, jobs=100_000)
    assert requested == [2]
    assert [r.regime for r in rows] == ["stability", "breaking"]


@pytest.mark.parametrize(
    "affinity,cpu_count,expected",
    [({0, 1, 2}, 5, [3]), (None, 5, [5]), (None, None, [])],
    ids=["affinity", "cpu-count", "unknown-serial"],
)
def test_sweep_pool_never_exceeds_the_usable_cpus(monkeypatch, affinity, cpu_count, expected):
    # 8 runs at --jobs 100000 ask for one worker per usable CPU: the affinity
    # mask's size, else os.cpu_count(), else none (serial).  The fake pool
    # runs in this process, so no worker process ever starts.
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    grid = {"beta": ["1.0", "1.95"], "v_c": ["0.5", "1.0", "1.5", "2.0"]}
    serial = sweep_runs(THREE_BODY, grid, master_seed=5, jobs=1)
    monkeypatch.setattr(densiflock.cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    rows = sweep_runs(THREE_BODY, grid, master_seed=5, jobs=100_000)
    assert requested == expected
    assert rows == serial


@pytest.mark.parametrize(
    "extra,named",
    [
        (["--jobs", "0"], "--jobs"),
        (["--set", "beta=1.95"], "beta"),
        (["--set", "bogus=1,2"], "bogus"),
    ],
    ids=["jobs-zero", "repeated-set-key", "unknown-set-key"],
)
def test_sweep_rejects_bad_arguments_naming_them(tmp_path, capsys, extra, named):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(THREE_BODY)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg), "--set", "beta=1.0", *extra, "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_a_value_holding_a_comment_sign(tmp_path, capsys):
    # The override becomes the line "shape = b#junk", which would read as shape b.
    cfg = tmp_path / "base.cfg"
    cfg.write_text("scenario = group_vs_individual\nmodel = di\ndelta = 2.0\nshape = a\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg), "--set", "shape=b#junk", "--out", str(out)]) == 1
    assert "--set shape" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_a_value_holding_a_line_break(tmp_path, capsys):
    # Spliced into the config text, this value would also set spacing = 0.5.
    cfg = tmp_path / "base.cfg"
    cfg.write_text("scenario = group_vs_individual\nmodel = di\ndelta = 2.0\nshape = a\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg), "--set", "shape=b\nspacing=0.5", "--out", str(out)]) == 1
    assert "--set shape" in capsys.readouterr().err
    assert not out.exists()


def test_override_replaces_the_base_entry_as_a_value():
    config = parse_config(GROUP_RUN + "spacing = 2.0\n", {"spacing": "0.5", "output_dir": "a#b"})
    assert config.spec.spacing == 0.5
    assert config.output_dir == "a#b"  # a value, not config text: '#' starts no comment
    with pytest.raises(ConfigError, match="--set spacing"):
        parse_config(GROUP_RUN, {"spacing": "0.5\nshape = b"})


def test_sweep_rejects_out_path_that_is_a_directory_before_any_run(tmp_path, capsys, monkeypatch):
    def no_runs(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(densiflock.cli, "sweep_runs", no_runs)
    cfg = tmp_path / "base.cfg"
    cfg.write_text(THREE_BODY)
    assert main(["sweep", str(cfg), "--set", "beta=1.0", "--out", str(tmp_path)]) == 1
    assert str(tmp_path) in capsys.readouterr().err


def test_empty_grid_gives_empty_summary(tmp_path):
    rows = sweep_runs(BASE_RUN, {}, master_seed=0)
    assert rows == []
    out = tmp_path / "empty.csv"
    write_sweep_csv(rows, [], out)
    assert len(read(out).splitlines()) == 1  # header only


def test_sweep_cli_entry(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(THREE_BODY)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", str(cfg), "--set", "beta=1.0,1.95", "--out", str(out)])
    assert code == 0
    assert len(read(out).splitlines()) == 3


# --- verify -----------------------------------------------------------------------


def test_verify_suite_passes_and_breaks_on_zero_tolerance():
    from densiflock.experiments import verify_suite

    checks = verify_suite()
    assert all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert {"oracle-equivalence", "vmax-monotone", "momentum-conservation",
            "flocking-certificate"} <= names

    broken = verify_suite(tol_scale=0.0)
    assert any(not c.passed for c in broken)


@pytest.mark.parametrize("scale", ["inf", "nan", "-1"])
def test_verify_rejects_tol_scale_that_disables_checks(monkeypatch, capsys, scale):
    def must_not_run(*_args):
        raise AssertionError("verify_suite ran with an invalid --tol-scale")

    monkeypatch.setattr(densiflock.cli, "verify_suite", must_not_run)
    assert main(["verify", "--tol-scale", scale]) == 1
    assert "--tol-scale" in capsys.readouterr().err
