import csv
import dataclasses
import io
import json
import os
import warnings

import numpy as np
import pytest

from sspint import cli, methods
from sspint.cli import (
    config_hash,
    main,
    parse_config_file,
    parse_lambda_grid,
    split_method_names,
    write_csv,
)
from sspint.errors import ConfigError
from sspint.tableau import ButcherTableau


def test_split_method_names_ignores_commas_in_parens():
    assert split_method_names("eSSPRK+(5,4),eSSPRK(10,4)") == [
        "eSSPRK+(5,4)",
        "eSSPRK(10,4)",
    ]
    assert split_method_names(" eSSPRK(2,2) ") == ["eSSPRK(2,2)"]


def test_parse_lambda_grid():
    assert parse_lambda_grid("0.1,0.2") == [0.1, 0.2]
    grid = parse_lambda_grid("0.0:1.0:5")
    assert np.allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ConfigError):
        parse_lambda_grid("1:0:5")
    with pytest.raises(ConfigError):
        parse_lambda_grid("a:b:c")


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# comment\nn = 200\nsteps=5\n\n")
    assert parse_config_file(str(cfg)) == {"n": "200", "steps": "5"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad))


def test_config_hash_stable_under_key_order():
    assert config_hash({"a": "1", "b": "2"}) == config_hash({"b": "2", "a": "1"})
    assert config_hash({"a": "1"}) != config_hash({"a": "2"})


def test_write_csv_atomic_with_metadata(tmp_path):
    path = tmp_path / "sub" / "out.csv"
    write_csv(str(path), ("x", "y"), [(1, 2.5)], {"k": "v"})
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y"
    assert lines[1] == "1,2.5"
    assert "# k=v" in lines
    assert not any(f.endswith(".tmp") for f in os.listdir(path.parent))


def test_cli_methods_list_and_verify(capsys):
    assert main(["methods", "list"]) == 0
    assert "eSSPRK+(6,4)" in capsys.readouterr().out
    assert main(["methods", "verify", "eSSPRK+(9,3)"]) == 0
    out = capsys.readouterr().out
    assert "C (computed):  6.000000" in out
    assert "status:        ok" in out


def test_cli_unknown_method_exits_one(capsys):
    assert main(["methods", "verify", "nope"]) == 1
    assert "available" in capsys.readouterr().err


def test_cli_usage_error_exits_one(capsys):
    assert main(["methods", "bogus-action"]) == 1


def test_cli_methods_rejects_what_its_action_ignores(tmp_path, capsys):
    # list takes no name, and only export takes --out
    out = tmp_path / "m.txt"
    for argv, named in ((["methods", "list", "eSSPRK+(3,3)"], "method name"),
                        (["methods", "list", "--out", str(out)], "--out"),
                        (["methods", "verify", "eSSPRK+(3,3)", "--out", str(out)], "--out")):
        assert main(argv) == 1
        assert named in capsys.readouterr().err
    assert not out.exists()


def test_cli_export_round_trip(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["methods", "export", "eSSPRK+(4,3)", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    t = ButcherTableau.from_json_dict(data)
    assert t.stages == 4
    assert data["claimed_C"] == pytest.approx(20.0 / 11.0)


def test_cli_radius_csv(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["radius", "--methods", "eSSPRK+(3,3)", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "name,C,C_eff"
    name, C, Ceff = next(csv.reader(io.StringIO(lines[1])))
    assert name == "eSSPRK+(3,3)"
    assert float(C) == pytest.approx(0.75, abs=1e-3)


@pytest.mark.parametrize("names", [",", ""])
@pytest.mark.parametrize("to_file", [False, True])
def test_cli_radius_rejects_a_method_list_with_no_names(tmp_path, capsys, names, to_file):
    # a list with no names is a usage error, for the table and the CSV alike
    out = tmp_path / "r.csv"
    argv = ["radius", "--methods", names] + (["--out", str(out)] if to_file else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: methods must list"), err


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    assert main(["run", "ex3", "--config", str(cfg)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("config, argv", [
    ("n=abc\n", ["run", "table6"]),
    (None, ["run", "table7", "--n", "4"]),
    (None, ["run", "ex4", "--n", "4"]),
    ("threshold=tiny\n", ["run", "table7"]),
    (None, ["run", "table6", "--steps", "-1"]),
    (None, ["sweep", "--method", "eSSPRK+(3,3)", "--a", "-1"]),
    (None, ["run", "ex1", "--dts", "0"]),
    (None, ["run", "ex1", "--dts", "0.1,0.2"]),
    (None, ["run", "ex1", "--dts", "0.02,0.04,2"]),
    (None, ["run", "ex1", "--dts", "0.3,0.31,0.32"]),
    (None, ["run", "ex1", "--splittings", "c"]),
    ("splittings=a,\n", ["run", "ex1"]),
    (None, ["run", "ex3", "--a", "1e400"]),
    (None, ["run", "table6", "--threshold", "nan"]),
    (None, ["optimize", "--stages", "2", "--order", "3"]),
    (None, ["optimize", "--stages", "3", "--order", "2", "--restarts", "0"]),
    (None, ["optimize", "--stages", "4", "--order", "4"]),
    (None, ["sweep", "--method", "eSSPRK+(3,3)", "--stepper", "rk", "--lambdas=-0.5,0.5"]),
    (None, ["sweep", "--method", "eSSPRK+(3,3)", "--stepper", "ifrk", "--lambdas=-0.5,0.5"]),
    (None, ["sweep", "--method", "eSSPRK+(3,3)", "--lambdas", "nan,0.5"]),
    (None, ["sweep", "--method", "eSSPRK+(3,3)", "--lambdas", "0.1:inf:3"]),
    (None, ["sweep", "--method", "eSSPRK+(3,3)", "--lambdas=-0.5:0.5:3"]),
    (None, ["run", "ex4", "--lambdas=-0.5,nan"]),
    ("lambdas=0:inf:4\n", ["run", "fig1"]),
    (None, ["sweep", "--method", "eSSPRK+(3,3)", "--lambdas=-inf:1:3"]),
    (None, ["run", "fig1", "--lambdas", "0.1:inf:3"]),
    (None, ["run", "table8-partial", "--with-opt", "maybe"]),
    ("with_opt=on\n", ["run", "table8-partial"]),
    (None, ["run", "ex4", "--a", "5,10"]),
    ("a=1,2\n", ["run", "fig1"]),
    (None, ["run", "ex4", "--a", ""]),
    (None, ["run", "table7", "--a", ","]),
    (None, ["run", "table6", "--a", ","]),
    (None, ["run", "ex3", "--a", ","]),
    (None, ["run", "table6", "--methods", ""]),
    (None, ["run", "table6", "--steps", "0"]),
    (None, ["run", "table8-partial", "--steps", "0"]),
    (None, ["sweep", "--method", "eSSPRK+(3,3)", "--steps", "0"]),
    # FILE is a regular file, so no path below it can be written
    (None, ["run", "table8-partial", "--out", "FILE/sub"]),
    (None, ["run", "ex1", "--out", "FILE/sub"]),
    (None, ["methods", "export", "eSSPRK+(3,3)", "--out", "FILE/m.json"]),
    (None, ["radius", "--methods", "eSSPRK+(3,3)", "--out", "FILE/r.csv"]),
    (None, ["sweep", "--method", "eSSPRK+(3,3)", "--n", "64", "--steps", "2",
            "--lambdas", "0.1", "--out", "FILE/s.csv"]),
    (None, ["optimize", "--stages", "3", "--order", "2", "--seed", "-1"]),
    (None, ["run", "table6", "--methods", "eSSPRK+(3,3)", "--a", "1", "--n", "200",
            "--threshold", "-1"]),
    ("threshold=-1e-300\n", ["run", "table7"]),
    (None, ["run", "ex4", "--lambdas", ""]),
    (None, ["sweep", "--method", "eSSPRK+(3,3)", "--lambdas", ""]),
    (None, ["methods", "list", "eSSPRK+(3,3)"]),
    (None, ["methods", "list", "--out", "FILE/list.txt"]),
    (None, ["methods", "verify", "eSSPRK+(3,3)", "--out", "FILE/verify.txt"]),
    (None, ["sweep", "--method", "eSSPRK+(3,3)", "--problem", "bogus"]),
])
def test_cli_bad_values_exit_one_with_one_line(tmp_path, capsys, monkeypatch,
                                               config, argv):
    def solve_not_reached(*args):
        raise AssertionError("bad values must be rejected before ex1's first solve")

    monkeypatch.setattr(cli, "van_der_pol_errors", solve_not_reached)
    if config is not None:
        path = tmp_path / "bad.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    (tmp_path / "FILE").write_text("a file\n")
    argv = [arg.replace("FILE", str(tmp_path / "FILE")) for arg in argv]
    unwritable = [arg for arg in argv if str(tmp_path / "FILE") in arg]
    if "--out" not in argv:
        argv = argv + ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings():  # a warning would print a second line
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert (tmp_path / "FILE").read_text() == "a file\n"
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert all(path in err[0] for path in unwritable), err
    assert not (tmp_path / "out").exists()


def test_cli_run_unknown_method_leaves_no_output_dir(tmp_path, capsys):
    # the output directory is made before the run, after every check
    out = tmp_path / "out"
    assert main(["run", "ex4", "--methods", "eSSPRK+(5,4),bogus", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_sweep_deterministic_output(tmp_path):
    args = [
        "sweep",
        "--method",
        "eSSPRK+(3,3)",
        "--problem",
        "burgers-step",
        "--n",
        "100",
        "--steps",
        "3",
        "--lambdas",
        "0.1,0.5",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "lambda,max_rise,log10_rise"


@pytest.mark.parametrize("args, csv_name", [
    (["run", "fig1", "--lambdas", "0.05:2.0:40"], "fig1_decreasing-abscissa-IF.csv"),
    (["sweep", "--method", "eSSPRK(3,3)", "--stepper", "ifrk-general", "--problem",
      "advection-step", "--n", "64", "--a", "1000", "--lambdas", "1,5"], "sweep.csv"),
], ids=["fig1", "sweep-ifrk-general"])
def test_cli_blowups_read_inf_without_a_warning(tmp_path, capsys, args, csv_name):
    # a blow-up overflows on its way to inf; that reads as a rise and warns
    # nothing, so the run is the same with warnings as errors or ignored
    def run(action):
        out = tmp_path / action
        out.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert main(args + ["--out", str(out / csv_name if args[0] == "sweep" else out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    strict = run("error")
    assert capsys.readouterr().err == ""
    assert strict == run("ignore")
    assert b",inf," in strict[csv_name]


@pytest.mark.parametrize("experiment, table, method", [
    ("table7", "table7", "eSSPRK(4,3)"),
    ("ex3", "table6", "eSSPRK+(3,3)"),
], ids=["table7", "ex3"])
def test_cli_run_table7_small(tmp_path, experiment, table, method):
    argv = ["run", experiment, "--a", "10", "--n", "200", "--steps", "3",
            "--out", str(tmp_path)]
    if experiment == "ex3":
        argv += ["--methods", method]
    assert main(argv) == 0
    assert os.listdir(tmp_path) == [f"{table}.csv"]
    lines = (tmp_path / f"{table}.csv").read_text().splitlines()
    assert lines[0] == "method,a,lambda_obs"
    name, a, lam = next(csv.reader(io.StringIO(lines[1])))
    assert (name, float(a)) == (method, 10.0)
    assert f"# experiment={table}" in lines
    if experiment == "table7":
        # coarse grid, few steps: still in the right neighborhood of 2/11
        assert 0.1 <= float(lam) <= 0.3


def test_cli_optimize_writes_certificate(tmp_path, capsys):
    out = tmp_path / "opt.json"
    rc = main(
        [
            "optimize",
            "--stages",
            "2",
            "--order",
            "2",
            "--nondecreasing",
            "--restarts",
            "2",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["claimed_C"] >= 1.0 - 1e-3


def test_cli_optimize_reports_the_linear_bound_and_gap(tmp_path, capsys):
    out = tmp_path / "opt.json"
    argv = ["optimize", "--stages", "4", "--order", "3", "--nondecreasing",
            "--restarts", "2", "--out", str(out)]
    assert main(argv) == 0
    data = json.loads(out.read_text())
    assert data["R_lin"] == pytest.approx(2.0, abs=1e-9)
    assert data["gap"] == data["R_lin"] - data["claimed_C"] > 0.1
    printed = capsys.readouterr().out
    assert f"R_lin = 2.000000, gap = {data['gap']:.3g}" in printed
    assert "fell short" not in printed  # R_lin need not be attained at order 3


@pytest.mark.parametrize("claimed_C", [1.5, 2.0 - 1e-7])
def test_cli_optimize_says_when_a_second_order_search_falls_short(claimed_C, monkeypatch,
                                                                  capsys):
    # a gap above the optimizer's stop tolerance is a shortfall: the search
    # that ends there keeps restarting, so the printout says so too
    short = dataclasses.replace(methods.generate_second_order(3), claimed_C=claimed_C)
    monkeypatch.setattr(cli, "optimize", lambda spec: short)
    assert main(["optimize", "--stages", "3", "--order", "2", "--nondecreasing"]) == 0
    assert "fell short of the known optimum C = R_lin = 2.000000" in capsys.readouterr().out


def test_cli_optimize_with_no_certified_start_exits_1_without_traceback(monkeypatch,
                                                                        capsys):
    def singular(M):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    assert main(["optimize", "--stages", "3", "--order", "2", "--restarts", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: no 3-stage order-2 tableau certified "
                            "after 2 restarts\n")


def test_cli_optimize_seed_six_certifies(capsys):
    argv = ["optimize", "--stages", "3", "--order", "2", "--nondecreasing",
            "--restarts", "10", "--seed", "6"]
    assert main(argv) == 0
    assert "order: ok" in capsys.readouterr().out


#: the recorded outputs of the benchmark's van-der-pol workload, and its
#: tolerances (perfbench/checks.py) as (abs, rel): |got - want| <= abs + rel * |want|.
_BENCH_REFERENCE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "reference.json")
_EX1_TOLERANCES = {"ex1_errors.csv": (1e-12, 1e-6), "ex1_slopes.csv": (1e-6, 0.0)}


def _csv_rows(text):
    rows = [line for line in text.splitlines() if line and not line.startswith("# ")]
    return list(csv.reader(io.StringIO("\n".join(rows))))


def test_cli_nonfinite_state_exits_two_with_one_line(tmp_path, capsys):
    # a / dx overflows: NumPy's fft warned before the error line
    argv = ["run", "table6", "--methods", "eSSPRK+(3,3)", "--a", "1e308", "--n", "64",
            "--steps", "2", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite state: "), err


def test_cli_run_table8_with_the_optimized_method(tmp_path, capsys):
    argv = ["run", "table8-partial", "--with-opt", "true", "--n", "64", "--steps", "50",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    rows = _csv_rows((tmp_path / "table8_partial.csv").read_text())
    values = {(q, m): float(v) for q, m, v in rows[1:]}
    assert abs(values["opt_radius", "opt+(5,3)"] - 2.63506) <= 1e-4
    assert 0.0 < values["l2_cfl", "opt+(5,3)"] <= 0.4


def test_cli_run_ex1_stays_inside_the_benchmark_tolerances(tmp_path, capsys):
    # the eSSPRK(10,4) slope on splitting a sits about 1e-8 inside its
    # tolerance, so a change to ex1's bits fails here before the benchmark
    with open(_BENCH_REFERENCE) as fh:
        want = json.load(fh)["full"]["run.ex1"]
    assert main(["run", "ex1", "--out", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(want)
    for name, (abs_tol, rel_tol) in _EX1_TOLERANCES.items():
        got = _csv_rows((tmp_path / name).read_text())
        ref = _csv_rows(want[name])
        # same header, and the same (method, splitting, dt or order) rows in order
        assert got[0] == ref[0] and [r[:3] for r in got] == [r[:3] for r in ref]
        for g, w in zip(got[1:], ref[1:]):
            value, recorded = float(g[3]), float(w[3])
            assert abs(value - recorded) <= abs_tol + rel_tol * abs(recorded), (g, w)
