"""Command-line interface: single-shot commands, sweeps, CSV contracts."""

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from salpeter_bounds import cli


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def zero_table(tmp_path):
    path = tmp_path / "zero.dat"
    path.write_text("# flat zero potential\n0.0 0.0\n50.0 0.0\n")
    return str(path)


@pytest.fixture()
def yukawa_table(tmp_path):
    rr = np.geomspace(0.01, 30.0, 400)
    path = tmp_path / "yukawa.dat"
    path.write_text("\n".join(f"{r:.8e} {-1.0 / r:.8e}" for r in rr) + "\n")
    return str(path)


def test_solve_free_case_prints_box_mode(zero_table, capsys):
    code, out, _ = run_cli(
        ["solve", "--potential", f"table:{zero_table}", "--m", "1", "--alpha", "2",
         "--L", "20", "--N", "64"],
        capsys,
    )
    assert code == 0
    mass = float(out.split("M = ")[1].split()[0])
    assert mass == pytest.approx(2.0 * math.sqrt((math.pi / 20.0) ** 2 + 1.0), rel=1e-12)


def test_bound3d_output(capsys):
    code, out, _ = run_cli(
        ["bound3d", "--potential", "exp", "--g", "1", "--R", "1", "--m", "1",
         "--alpha", "2"],
        capsys,
    )
    assert code == 0
    assert "mass bound" in out
    bound = float(out.split("M >= ")[1].split()[0])
    assert bound == pytest.approx(1.658632, abs=1e-4)


def test_bound3d_fixed_q(capsys):
    code, out, _ = run_cli(
        ["bound3d", "--potential", "exp", "--g", "1", "--R", "1", "--m", "1",
         "--alpha", "2", "--q", "1.0"],
        capsys,
    )
    assert code == 0
    assert float(out.split("M >= ")[1].split()[0]) == pytest.approx(1.0)


def test_bound3d_yukawa_is_out_of_class(yukawa_table, capsys):
    code, _, err = run_cli(
        ["bound3d", "--potential", f"table:{yukawa_table}", "--m", "1", "--alpha", "2"],
        capsys,
    )
    assert code == 1
    assert "does not apply" in err or "not in L" in err


def test_confining_logarithmic(capsys):
    code, out, _ = run_cli(
        ["confining", "--potential", "log", "--g", "0.5", "--R", "2.5", "--m", "1",
         "--alpha", "2"],
        capsys,
    )
    assert code == 0
    residual = float(out.split("root residual:")[1].split()[0])
    assert residual <= 1e-8
    qstar = float(out.split("optimal q*:")[1].split()[0])
    assert 1.0 <= qstar < 1.5


def test_critical_bound_only(capsys):
    code, out, _ = run_cli(
        ["critical", "--potential", "exp", "--g", "1", "--R", "1", "--m", "1",
         "--alpha", "2", "--method", "bound"],
        capsys,
    )
    assert code == 0
    assert "lower bound" in out
    val = float(out.split("lower bound:")[1].split()[0])
    assert val == pytest.approx(5.858791, abs=1e-4)


def test_critical_exact_and_csv(tmp_path, capsys):
    out = tmp_path / "crit.csv"
    code, text, _ = run_cli(
        ["critical", "--potential", "exp", "--g", "1", "--R", "1", "--m", "1",
         "--alpha", "2", "--method", "both", "--N", "128", "--out", str(out)],
        capsys,
    )
    assert code == 0
    bound = float(text.split("lower bound:")[1].split()[0])
    exact = float(text.split("g_c exact:")[1].split()[0])
    assert bound <= exact
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "beta,gc_lower_bound,gc_exact"
    beta, b, e = map(float, rows[1].split(","))
    assert (beta, b, e) == (1.0, pytest.approx(bound), pytest.approx(exact))


def test_critical_from_a_coarse_grid_in_a_wide_box(capsys):
    # N = 32 in L = 160 puts the first level's coupling 40 times too high
    code, text, _ = run_cli(
        ["critical", "--potential", "exp", "--method", "exact", "--N", "32", "--L", "160"],
        capsys,
    )
    assert code == 0
    exact = float(text.split("g_c exact:")[1].split()[0])
    assert exact == pytest.approx(7.828024525846, rel=1e-11)


def test_critical_sing_uses_the_fig1_stability_rule(tmp_path, capsys):
    # sing converges only to ~1e-4 under grid doubling; critical and fig1
    # apply the same 1e-3 stability rule and agree to the last digit
    code, text, _ = run_cli(["critical", "--potential", "sing", "--method", "exact"], capsys)
    assert code == 0
    out = tmp_path / "fig1.csv"
    assert cli.main(["fig1", "--beta-grid", "1:1:1", "--potentials", "sing",
                     "--workers", "1", "--out", str(out)]) == 0
    row = [l for l in out.read_text().splitlines() if not l.startswith("#")][1]
    assert text.split("g_c exact:")[1].split()[0] == row.split(",")[2]


@pytest.mark.parametrize("content", [None, "0.5 -1\n1 abc\n"])
def test_unreadable_table_is_a_one_line_error(tmp_path, capsys, content):
    path = tmp_path / "table.dat"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound3d", "--potential", f"table:{path}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"salpeter-bounds: error: cannot read table {path}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["bound3d", "confining", "solve"])
def test_single_shot_command_reads_its_table_once(tmp_path, monkeypatch, command):
    rr = np.linspace(0.0, 20.0, 41)
    path = tmp_path / "well.dat"
    path.write_text("\n".join(f"{r:.8e} {-2.0 * math.exp(-r):.8e}" for r in rr) + "\n")
    reads = []
    loadtxt = np.loadtxt

    def counted(fname, *args, **kwargs):
        reads.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    grid = ["--N", "64", "--eigen-tol", "1e-4"] if command == "solve" else []
    assert cli.main([command, "--potential", f"table:{path}"] + grid) == 0
    assert reads == [str(path)]


def test_bound1d(capsys):
    code, out, _ = run_cli(
        ["bound1d", "--potential", "exp", "--g", "1", "--R", "1", "--m", "1",
         "--alpha", "1"],
        capsys,
    )
    assert code == 0
    assert float(out.split("M >= ")[1].split()[0]) == pytest.approx(0.430047, abs=1e-4)


def test_config_file_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep defaults\ng = 2.0\nR = 1.0\nm = 1.0\nalpha = 2\n")
    # file value used when the flag is absent
    code, out_file, _ = run_cli(
        ["bound3d", "--potential", "exp", "--config", str(cfg), "--q", "1.0"], capsys
    )
    assert code == 0
    assert float(out_file.split("M >= ")[1].split()[0]) == pytest.approx(0.0)
    # explicit flag wins over the file
    code, out_flag, _ = run_cli(
        ["bound3d", "--potential", "exp", "--config", str(cfg), "--g", "1.0",
         "--q", "1.0"],
        capsys,
    )
    assert float(out_flag.split("M >= ")[1].split()[0]) == pytest.approx(1.0)


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("g = 2.0\ngee = 3\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["bound3d", "--config", str(cfg), "--q", "1.0"], capsys)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"salpeter-bounds: error: {cfg}:2: unknown key 'gee'\n"


@pytest.mark.parametrize("line, message", [
    ("method = exactt", "invalid value 'exactt' for 'method' (expected bound | exact | both)"),
    ("N = 12.5", "invalid value '12.5' for 'N' (expected int)"),
    ("alpha = 3", "invalid value '3' for 'alpha' (expected 1 | 2)"),
])
def test_config_file_rejects_bad_value(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"g = 2.0\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["critical", "--method", "bound", "--config", str(cfg)], capsys)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"salpeter-bounds: error: {cfg}:2: {message}\n"


def test_config_file_keys_a_command_does_not_take_are_ignored(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 64\nbeta_grid = 1:2:2\nm = 1.0\n")
    out = tmp_path / "b.csv"
    code, _, _ = run_cli(["bound3d", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 0
    config = out.read_text().splitlines()[2]
    assert " m=1 " in config
    assert "N=" not in config and "beta_grid=" not in config


def test_fixed_q_with_out_is_an_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(["bound3d", "--potential", "exp", "--q", "1.0", "--out", str(out)], capsys)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--q" in err and "--out" in err
    assert not out.exists()


def test_critical_csv_echoes_every_option_it_uses(tmp_path, capsys):
    out = tmp_path / "crit.csv"
    code, _, _ = run_cli(
        ["critical", "--potential", "exp", "--method", "bound", "--out", str(out)], capsys
    )
    assert code == 0
    config = out.read_text().splitlines()[2]
    assert config.startswith("# config: ")
    assert " N=256 " in config and " quad_abs_tol=1e-10 " in config
    assert "eigen_tol=" not in config  # the root never reads it


@pytest.mark.parametrize("argv", [
    ["bound3d", "--eigen-tol", "1e-6"],
    ["confining", "--g-root-tol", "1e-6"],
    ["solve", "--quad-abs-tol", "1e-8"],
    ["fig1", "--m", "2"],
    ["fig2", "--g-root-tol", "1e-6"],
    ["critical", "--eigen-tol", "1e-6"],
    ["fig1", "--eigen-tol", "1e-6"],
])
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_fig1_sweep_validity_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["fig1", "--beta-grid", "1:2:2", "--potentials", "exp", "--N", "128",
            "--out"]
    assert cli.main(args + [str(out1)]) == 0
    assert cli.main(args + [str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()  # byte-identical rerun
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "beta,potential,gc_exact,gc_lower_bound,ratio"
    for line in lines[1:]:
        beta, kind, exact, bound, ratio = line.split(",")
        assert kind == "exp"
        assert float(bound) <= float(exact) * (1.0 + 2e-6)
        assert 0.0 < float(ratio) <= 1.0
    header = text.splitlines()
    assert header[0] == "# salpeter-bounds CSV schema: fig1/1"
    assert header[1].startswith("# units: GeV")
    assert header[2].startswith("# config: ")


def test_fig2_sweep_validity(tmp_path, capsys):
    out = tmp_path / "f2.csv"
    code = cli.main(
        ["fig2", "--g-list", "0.5", "--m-grid", "1:2:2", "--N", "128",
         "--out", str(out)]
    )
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "g,m,beta,M_exact,M_lower_bound_Cstar,q_star"
    for line in lines[1:]:
        g, m, beta, exact, cstar, qstar = map(float, line.split(","))
        assert beta == pytest.approx(m * 2.5)
        assert cstar <= exact * (1.0 + 2e-6)
        assert 1.0 <= qstar < 1.5


def test_fig1_worker_pool_matches_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    base = ["fig1", "--beta-grid", "1:2:2", "--potentials", "exp", "--N", "128"]
    assert cli.main(base + ["--workers", "1", "--out", str(serial)]) == 0
    assert cli.main(base + ["--workers", "2", "--out", str(pooled)]) == 0
    s = serial.read_text().replace("workers=1", "workers=x")
    p = pooled.read_text().replace("workers=2", "workers=x")
    assert s == p


def test_sweep_records_row_errors_and_continues(tmp_path):
    jobs = [1, 2, 3]

    def worker(job):
        if job == 2:
            raise ValueError("boom")
        return (job,)

    results = cli._run_sweep(jobs, worker, workers=1)
    assert [r[1] for r in results] == [(1,), None, (3,)]
    assert results[1][2] == "ValueError: boom"


@pytest.mark.parametrize("n_jobs, workers, pools", [
    (1, 6, []),   # one row: no pool at all
    (3, 6, [3]),  # no idle processes beyond the rows
    (6, 2, [2]),  # the benchmark's fig2_pool shape keeps its pool of 2
])
def test_sweep_pool_is_sized_to_the_jobs(monkeypatch, n_jobs, workers, pools):
    sizes = []

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", recording_pool)
    results = cli._run_sweep(list(range(n_jobs)), lambda job: (job,), workers)
    assert [r[1] for r in results] == [(job,) for job in range(n_jobs)]
    assert sizes == pools


def test_grid_parsing_errors():
    with pytest.raises(SystemExit):
        cli._parse_grid("1:2", "lin")
    with pytest.raises(SystemExit):
        cli._parse_grid("2:1:3", "lin")
    with pytest.raises(SystemExit):
        cli._parse_list("3,2,1")
    assert cli._parse_grid("1:4:3", "geom") == pytest.approx([1.0, 2.0, 4.0])
    assert cli._parse_grid("2:2:1", "lin") == [2.0]  # single-point sweep


def test_workers_env_var(monkeypatch, zero_table, capsys):
    monkeypatch.setenv("SALPETER_BOUNDS_WORKERS", "1")
    code, _, _ = run_cli(
        ["solve", "--potential", f"table:{zero_table}", "--m", "1", "--alpha", "2",
         "--L", "20", "--N", "64"],
        capsys,
    )
    assert code == 0


def test_list_parsing_error_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fig2", "--g-list", "0.5,x", "--m-grid", "1:2:2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "salpeter-bounds: error: bad list '0.5,x'; expected numbers separated by commas\n")


def test_workers_env_var_sets_sweep_workers(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("SALPETER_BOUNDS_WORKERS", "1")
    calls = []
    run_sweep = cli._run_sweep

    def spy(jobs, worker, workers):
        calls.append(workers)
        return run_sweep(jobs, worker, workers)

    monkeypatch.setattr(cli, "_run_sweep", spy)
    out = tmp_path / "fig2.csv"
    code, _, _ = run_cli(["fig2", "--g-list", "0.5", "--m-grid", "1:1:1", "--N", "128",
                          "--out", str(out)], capsys)
    assert code == 0
    assert calls == [1]
    assert len([line for line in out.read_text().splitlines() if not line.startswith("#")]) == 2


def test_workers_env_var_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("SALPETER_BOUNDS_WORKERS", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(["fig2", "--g-list", "0.5", "--m-grid", "1:2:2", "--N", "128"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "salpeter-bounds: error: SALPETER_BOUNDS_WORKERS='abc' is not an integer\n")


@pytest.mark.parametrize("value", ["abc", "0"])
def test_single_shot_commands_ignore_the_workers_env_var(monkeypatch, capsys, value):
    # only the sweeps take --workers, so only they read the variable
    monkeypatch.setenv("SALPETER_BOUNDS_WORKERS", value)
    code, out, _ = run_cli(["bound3d", "--potential", "exp"], capsys)
    assert code == 0
    assert "mass bound:" in out


@pytest.mark.parametrize("value", ["0", "-3"])
def test_workers_flag_must_be_at_least_one(capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fig2", "--g-list", "0.5", "--m-grid", "1:1:1", "--N", "128",
                  "--workers", value])
    assert exc.value.code == 2
    assert f"argument --workers: invalid positive_int value: '{value}'" in capsys.readouterr().err


def test_workers_env_var_must_be_at_least_one(monkeypatch, capsys):
    monkeypatch.setenv("SALPETER_BOUNDS_WORKERS", "0")
    with pytest.raises(SystemExit) as exc:
        cli.main(["fig2", "--g-list", "0.5", "--m-grid", "1:1:1", "--N", "128"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "salpeter-bounds: error: SALPETER_BOUNDS_WORKERS='0' is not an integer >= 1\n")


def test_workers_config_key_must_be_at_least_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = -3\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["fig2", "--g-list", "0.5", "--m-grid", "1:1:1", "--config", str(cfg)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"salpeter-bounds: error: {cfg}:1: invalid value '-3' for 'workers' "
        "(expected positive_int)\n")


def test_empty_workers_env_var_means_all_cores(monkeypatch):
    monkeypatch.setenv("SALPETER_BOUNDS_WORKERS", "")
    args = cli.build_parser().parse_args(["fig2"])
    opts = cli._effective_options(cli.COMMANDS["fig2"], args)
    assert opts["workers"] == (os.cpu_count() or 1)


def test_unknown_potential_exits():
    with pytest.raises(SystemExit):
        cli.main(["bound3d", "--potential", "coulomb"])


def test_config_file_rejects_the_former_root_tolerance_name(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("g_bisect_tol = 3e-7\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["critical", "--method", "bound", "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"{cfg}:1: unknown key 'g_bisect_tol'" in capsys.readouterr().err
    cfg.write_text("g_root_tol = 3e-7\n")
    args = cli.build_parser().parse_args(["critical", "--config", str(cfg)])
    assert cli._effective_options(cli.COMMANDS["critical"], args)["g_root_tol"] == 3e-7
    args = cli.build_parser().parse_args(
        ["critical", "--config", str(cfg), "--g-root-tol", "2e-6"])
    assert cli._effective_options(cli.COMMANDS["critical"], args)["g_root_tol"] == 2e-6
    with pytest.raises(SystemExit) as exc:
        cli.main(["critical", "--g-bisect-tol", "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --g-bisect-tol" in capsys.readouterr().err


def test_unreadable_config_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound3d", "--config", str(missing)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"salpeter-bounds: error: cannot read config file {missing}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_bad_workers_value_exits_2_from_every_source(source, tmp_path, monkeypatch, capsys):
    argv = ["fig2", "--g-list", "0.5", "--m-grid", "1:1:1", "--N", "128"]
    if source == "flag":
        argv += ["--workers", "0"]
    elif source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 0\n")
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("SALPETER_BOUNDS_WORKERS", "0")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


# nan compares false with everything, so it once passed the ordering checks
@pytest.mark.parametrize("argv, message", [
    (["fig2", "--g-list", "1,nan,2"], "list '1,nan,2' must be nonempty, finite, positive and "
     "strictly increasing"),
    (["fig2", "--g-list", "1,inf"], "list '1,inf' must be nonempty, finite, positive and "
     "strictly increasing"),
    (["fig2", "--g-list", "0.5", "--m-grid", "nan:2:2"], "grid 'nan:2:2' must be finite, "
     "positive, increasing, n >= 1"),
    (["fig1", "--beta-grid", "1:inf:3"], "grid '1:inf:3' must be finite, positive, "
     "increasing, n >= 1"),
    (["fig1", "--potentials", ","], "fig1 potentials must name at least one of exp,pexp,sing"),
])
def test_sweep_inputs_that_give_no_valid_rows_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", "-"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"salpeter-bounds: error: {message}\n")


def test_grid_count_with_no_room_to_refine_fails_at_once(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--N", "16384"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == ("salpeter-bounds: error: grid count must be at most "
                                       "8192, so that it can double within 16384\n")


# values argparse takes but the potential, SolverConfig, QuadratureSpec or the
# q window reject: usage errors before any point runs, so no CSV is written
@pytest.mark.parametrize("argv, message", [
    (["solve", "--N", "8"], "grid count must be at least 16"),
    (["solve", "--N", "16384"], "grid count must be at most 8192, so that it can double "
     "within 16384"),
    (["solve", "--L", "-1"], "box size must be positive and finite"),
    (["solve", "--L", "inf"], "box size must be positive and finite"),
    (["solve", "--eigen-tol", "0"], "eigen tolerance must be positive and finite"),
    (["bound3d", "--g", "-1"], "coupling g must be positive and finite, got -1.0"),
    (["bound3d", "--m", "0"], "mass must be positive and finite, got 0.0"),
    (["bound3d", "--m", "inf"], "mass must be positive and finite, got inf"),
    (["bound3d", "--R", "nan"], "range R must be positive and finite, got nan"),
    (["bound3d", "--quad-abs-tol", "0"], "quadrature tolerances must be positive and finite"),
    (["bound3d", "--quad-abs-tol", "inf"], "quadrature tolerances must be positive and finite"),
    (["bound3d", "--q", "2"], "exponent q = 2.0 outside the admissible [1, 3/2)"),
    (["critical", "--g-root-tol", "nan"], "root tolerance must be positive and finite"),
    (["fig1", "--g-root-tol", "0"], "root tolerance must be positive and finite"),
    (["fig2", "--N", "8"], "grid count must be at least 16"),
    (["fig2", "--g-list", "-1"], "list '-1' must be nonempty, finite, positive and strictly "
     "increasing"),
])
def test_out_of_range_option_values_exit_2(argv, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv if "--q" in argv else argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"salpeter-bounds: error: {message}\n")
    assert not out.exists()
