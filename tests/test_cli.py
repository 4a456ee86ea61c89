"""Configuration format, file outputs, sweeps, and the verify battery."""
import numpy as np
import pytest

import densiflock.cli
from densiflock import (
    ConfigError,
    is_r_densely_packed,
    parse_config,
    run_simulation,
    serialize_config,
)
from densiflock.cli import (
    cmd_run,
    main,
    splitmix64,
    sweep_runs,
    write_plot_data,
    write_sweep_csv,
)

BASE_RUN = """\
# reference run
scenario = random_clusters
model = di
n = 16
m = 3
delta = 2.0
m_policy = per_neighbor
kappa = 1.0
domain = periodic
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
        ("scenario = random_clusters\nmodel = cs_q\nn = 64\n", "cs_q"),
        ("scenario = random_clusters\nmodel = di\nn = 64\ndelta = 2\nn = 3\n", "duplicate"),
        ("scenario = random_clusters\nmodel = di\nn = sixty\ndelta = 2\n", "int"),
        ("model = di\nn = 8\ndelta = 2\n", "scenario"),
        ("scenario = chain\nmodel = di\ndelta_variant = 5\n", "delta_variant"),
        ("scenario = chain\nmodel = di\ndelta = 3\ndelta_variant = 2\n", "conflict"),
        ("scenario = chain\nmodel = di\ndelta = 2\nbeta = 1\n", "scenario key"),
        ("scenario = random_clusters\nmodel = di\nn = 8\ndelta = 2\nwat = 1\n", "unknown"),
        ("scenario = random_clusters\nmodel = di\nn = 8\ndelta = 2\nno_equals_here\n", "format"),
    ]
    for text, label in bad:
        with pytest.raises(ConfigError):
            parse_config(text)


def test_parse_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("scenario = chain\nmodel = di\nbroken line\n")


def test_round_trip_identity():
    for text in (BASE_RUN, THREE_BODY):
        config = parse_config(text)
        assert parse_config(serialize_config(config)) == config


def test_periodic_box_must_exceed_interaction_range():
    text = BASE_RUN.replace("L = 25.0", "L = 3.0")
    with pytest.raises(ConfigError):
        parse_config(text)


def test_margin_constraint_enforced_at_parse_time():
    with pytest.raises(ConfigError, match="margin"):
        parse_config(BASE_RUN.replace("margin = 2.0", "margin = 13.0"))


def test_three_body_defaults():
    config = parse_config(
        "scenario = three_body\nmodel = di\nn = 30\ndelta = 2\n"
        "beta = 1\ngamma = 2\nv_c = 1\nm_policy = constant\n"
    )
    assert config.spec.params.N == 31
    assert config.spec.t_end == pytest.approx(93.0)
    assert not config.spec.domain.is_periodic


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
domain = periodic
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
        "scenario = chain\nmodel = di\ndelta_variant = 2\nt_end = 5.0\n",
    ]
    kinds = set()
    for i, text in enumerate(runs):
        out = tmp_path / str(i)
        config = parse_config(text + f"output_dir = {out}\n")
        cmd_run(config)
        rows = [line.split(",") for line in read(out / "clusters.csv").splitlines()[1:]]
        params, dist = config.spec.params, config.spec.domain.distances
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


def test_write_plot_data_empty_record(tmp_path):
    class Empty:
        samples = []

    paths = write_plot_data(Empty(), tmp_path)
    for p in paths:
        assert len(read(p).splitlines()) == 1  # header only


def test_main_exit_codes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_RUN + f"output_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario = random_clusters\nmodel = di\n")  # missing n
    assert main(["run", str(bad)]) == 1
    assert main(["run", str(tmp_path / "missing.cfg")]) == 1


def test_unstable_run_exits_with_integration_fault(tmp_path, capsys):
    # h*rho = 20 here; without the stability check the velocity diameter
    # grows from 8.1 to about 2e12 and the run exits 0.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scenario = chain\nmodel = di\nm_policy = constant\nkappa = 500\n"
        f"delta_variant = 2\nt_end = 1.0\noutput_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "h*rho = 20" in err and "1.39" in err


@pytest.mark.parametrize(
    "old,new,key",
    [
        ("t_end = 1.0", "t_end = nan", "t_end"),
        ("t_end = 1.0", "t_end = inf", "t_end"),
        ("L = 25.0", "L = inf", "L"),
        ("domain = periodic\nL = 25.0", "domain = unbounded", "domain"),
        ("t_end = 1.0", "t_end = 0.015", "t_end"),  # would overrun to 0.02
        ("t_end = 1.0", "t_end = 0.025", "t_end"),  # would stop short at 0.02
    ],
    ids=["t_end-nan", "t_end-inf", "L-inf", "unbounded-random-clusters", "t_end-overrun",
         "t_end-short"],
)
def test_run_rejects_bad_values_naming_the_key(tmp_path, capsys, old, new, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_RUN.replace(old, new) + f"output_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    "extra,named",
    [(["--jobs", "0"], "--jobs"), (["--set", "beta=1.95"], "beta")],
    ids=["jobs-zero", "repeated-set-key"],
)
def test_sweep_rejects_bad_arguments_naming_them(tmp_path, capsys, extra, named):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(THREE_BODY)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg), "--set", "beta=1.0", *extra, "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


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
    from densiflock.cli import verify_suite

    checks = verify_suite()
    assert all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert {"oracle-equivalence", "vmax-monotone", "momentum-conservation",
            "flocking-certificate"} <= names

    broken = verify_suite(tol_scale=0.0)
    assert any(not c.passed for c in broken)
