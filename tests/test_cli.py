import csv
import dataclasses
import io
import json
import os
import pickle
import re
import signal
import stat
import time
import warnings

import numpy as np
import pytest

import sspint
from sspint import analysis, cli, methods, spatial
from sspint.cli import (
    config_hash,
    main,
    parse_config_file,
    parse_lambda_grid,
    split_method_names,
    write_csv,
)
from sspint.errors import ConfigError, NonFinite, SspError, UnknownMethod
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


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_write_csv_gives_the_mode_open_gives(tmp_path, umask, mode):
    # the temp file of mkstemp is 0o600, and os.replace kept that mode
    old = os.umask(umask)
    try:
        path = write_csv(str(tmp_path / "out.csv"), ("x",), [(1,)], {})
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == mode


def test_atomic_write_over_a_directory_names_it_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "dir"
    target.mkdir()
    with pytest.raises(ConfigError, match=re.escape(str(target))):
        cli.atomic_write_text(str(target), "text\n")
    assert os.listdir(tmp_path) == ["dir"] and os.listdir(target) == []


def test_the_version_is_written_once_and_stamped_on_every_csv(tmp_path, capsys):
    # importlib.metadata finds no version in a checkout, which stamped 0.0.0
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"), "rb") as fh:
        pyproject = tomllib.load(fh)
    assert "version" not in pyproject["project"]
    assert pyproject["project"]["dynamic"] == ["version"]
    assert pyproject["tool"]["setuptools"]["dynamic"] == {
        "version": {"attr": "sspint.__version__"}}
    assert main(["run", "table7", "--n", "8", "--steps", "1", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "table7.csv").read_text().splitlines()
    assert f"# version={sspint.__version__}" in lines


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


def test_cli_radius_prints_its_table(capsys):
    assert main(["radius", "--methods", "eSSPRK(3,3),eSSPRK+(9,3)"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{'name':<16} {'C':>10} {'C_eff':>10}",
        f"{'eSSPRK(3,3)':<16} {'1.0000':>10} {'0.3333':>10}",
        f"{'eSSPRK+(9,3)':<16} {'6.0000':>10} {'0.6667':>10}",
    ]


def test_cli_methods_export_requires_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["methods", "export", "eSSPRK+(3,3)"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: methods export requires --out"]
    assert os.listdir(tmp_path) == []


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


def test_cli_config_hash_covers_only_the_keys_given(tmp_path, capsys):
    # neither the defaults nor the output directory are hashed
    given = {"n": "64", "steps": "2", "a": "0", "threshold": "1e-9"}
    cfg = tmp_path / "exp.cfg"
    argv = ["run", "table7", "--n", "64", "--steps", "2", "--a", "0", "--config", str(cfg)]
    cfg.write_text("threshold=1e-9\n")
    assert main(argv + ["--out", str(tmp_path / "flag")]) == 0
    cfg.write_text(f"threshold=1e-9\nout={tmp_path / 'file'}\n")
    assert main(argv) == 0
    for out in ("flag", "file"):
        lines = (tmp_path / out / "table7.csv").read_text().splitlines()
        assert f"# config_hash={config_hash(given)}" in lines


@pytest.mark.parametrize("key, text, code", [
    ("threshold", "1e-9", 0), ("n", "064", 0), ("steps", "+2", 0),
    ("n", "abc", 1), ("steps", "2.5", 1), ("threshold", "tiny", 1),
])
def test_cli_run_reads_a_value_alike_from_a_flag_and_from_a_file(tmp_path, capsys, key, text,
                                                                code):
    # a flag's value is the text given, as a file's is: the same config hash,
    # or the same one-line error for a malformed value
    given = {"n": "64", "steps": "2", "a": "0", key: text}
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in given.items()))
    seen = []
    for source, argv in (("flag", [f"--{k}={v}" for k, v in given.items()]),
                         ("file", ["--config", str(cfg)])):
        out = tmp_path / source
        assert main(["run", "table7", *argv, "--out", str(out)]) == code
        lines = [] if code else (out / "table7.csv").read_text().splitlines()
        seen.append((capsys.readouterr().err, [ln for ln in lines if "config_hash=" in ln]))
    assert seen[0] == seen[1]
    assert seen[0] == ((f"error: {key} must {cli._VALUES[key][2]}, got {text!r}\n", []) if code
                       else ("", [f"# config_hash={config_hash(given)}"]))


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
    (None, ["run", "table6", "--config", "FILE/x.cfg"]),
    (None, ["run", "fig1", "--lambdas", "0:1"]),
    (None, ["run", "ex4", "--a", "x"]),
    (None, ["run", "ex1", "--dts", "1e-320,0.1,0.2"]),
    (None, ["run", "table6", "--methods", "eSSPRK+(3,3),eSSPRK(3,3)", "--n", "64", "--steps",
            "2", "--a", "0"]),
    (None, ["sweep", "--method", "eSSPRK+(3,3)", "--n", "abc"]),
    (None, ["sweep", "--method", "eSSPRK+(3,3)", "--steps", "x"]),
    (None, ["sweep", "--method", "eSSPRK+(3,3)", "--a", "5,10"]),
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


@pytest.mark.parametrize("key, text", [
    ("a", "5,10"), ("a", "1e400"), ("a", "x"), ("n", "abc"), ("n", "4"), ("steps", "x"),
    ("steps", "0"), ("lambdas", "nan,0.5"), ("lambdas", ""),
])
def test_cli_sweep_and_run_ex4_reject_a_bad_value_with_the_same_line(tmp_path, capsys, key,
                                                                     text):
    # sweep parses its keys through run's value table, so a bad value is the
    # same one line but for the command's name; sweep once printed argparse's
    # usage for --n abc, and quoted --a 1e400 as 'inf'
    lines = []
    for argv in (["run", "ex4"], ["sweep", "--method", "eSSPRK+(5,4)"]):
        assert main([*argv, f"--{key}={text}", "--out", str(tmp_path / "out")]) == 1
        lines.append(capsys.readouterr().err)
    assert lines[0].startswith("error: ") and lines[0].count("\n") == 1
    assert lines[1] == lines[0].replace("ex4", "sweep")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("problem", list(spatial.PROBLEMS))
def test_cli_sweep_runs_every_problem_of_the_table(tmp_path, capsys, problem):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--method", "eSSPRK+(3,3)", "--problem", problem, "--n", "64",
                 "--steps", "2", "--lambdas", "0.5", "--out", str(out)]) == 0
    text = out.read_text()
    assert len(_csv_rows(text)) == 2 and f"# problem={problem}" in text.splitlines()


def test_cli_sweep_bad_problem_lists_every_name(tmp_path, capsys):
    # van der Pol is a problem, but not one on a grid, so sweep does not offer it
    argv = ["sweep", "--method", "eSSPRK+(3,3)", "--problem", spatial.VAN_DER_POL,
            "--out", str(tmp_path / "sweep.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and all(name in err[0] for name in spatial.PROBLEMS), err


def test_cli_sweep_defaults_are_those_of_ex4(tmp_path, capsys):
    # with no size flag, sweep writes the rows ex4 writes for the method
    method = "eSSPRK+(5,4)"
    assert main(["sweep", "--method", method, "--out", str(tmp_path / "sweep.csv")]) == 0
    assert main(["run", "ex4", "--methods", method, "--out", str(tmp_path)]) == 0
    sweep, ex4 = ((tmp_path / name).read_text() for name in ("sweep.csv", "ex4_eSSPRKp_5_4.csv"))
    assert _csv_rows(sweep) == _csv_rows(ex4) and len(_csv_rows(ex4)) == 41
    meta = {"# a=10.0", "# n=400", "# steps=25"}
    assert meta <= set(sweep.splitlines()) and meta <= set(ex4.splitlines())


def test_cli_config_that_is_not_utf8_exits_one_with_one_line(tmp_path, capsys):
    # a UTF-16 byte-order mark once escaped the line loop as a traceback
    cfg, out = tmp_path / "bad.cfg", tmp_path / "out"
    cfg.write_bytes(b"\xff\xfe\x00n=64\n")
    assert main(["run", "table6", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read config file "), err
    assert str(cfg) in err[0]
    assert not out.exists()


def test_cli_run_out_of_memory_exits_one_with_one_line(tmp_path, capsys, monkeypatch):
    # a grid too large to allocate once escaped as NumPy's traceback; the
    # stub raises as that allocation would, without asking for the memory
    def too_large(kind, a=0.0, n=1000, splitting="a"):
        raise MemoryError(f"Unable to allocate 37.3 GiB for an array with shape ({n},)")

    monkeypatch.setattr(spatial, "make_problem", too_large)
    out = tmp_path / "out"
    assert main(["run", "ex4", "--n", "5000000000", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: out of memory: Unable to allocate 37.3 GiB for an array "
                   "with shape (5000000000,)"], err


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


def test_cli_run_table8_writes_inf_for_a_nonfinite_long_step(tmp_path, capsys, monkeypatch):
    def blow_up(stepper, u0, n_steps):
        raise NonFinite("stage 1 contains NaN or Inf")

    monkeypatch.setattr(cli, "integrate", blow_up)
    argv = ["run", "table8-partial", "--n", "64", "--steps", "5", "--out", str(tmp_path)]
    assert main(argv) == 0
    rows = _csv_rows((tmp_path / "table8_partial.csv").read_text())
    assert [r for r in rows[1:] if r[0] == "ifrk_norm_at_lambda27"] == [
        ["ifrk_norm_at_lambda27", name, "inf"] for name in cli._TABLE6_METHODS]


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


def test_cli_run_ex4_writes_one_sweep_per_method(tmp_path, capsys):
    argv = ["run", "ex4", "--n", "64", "--steps", "2", "--lambdas", "0.1,0.5",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    files = {"ex4_eSSPRKp_5_4.csv": "eSSPRK+(5,4)", "ex4_eSSPRKp_6_4.csv": "eSSPRK+(6,4)",
             "ex4_eSSPRK_10_4.csv": "eSSPRK(10,4)"}
    assert sorted(os.listdir(tmp_path)) == sorted(files)
    for name, method in files.items():
        text = (tmp_path / name).read_text()
        rows = _csv_rows(text)
        assert rows[0] == ["lambda", "max_rise", "log10_rise"] and len(rows) == 3
        meta = {"experiment=ex4", f"method={method}", "a=10.0", "n=64", "steps=2"}
        assert meta <= {line[2:] for line in text.splitlines() if line.startswith("# ")}
    # eSSPRK(10,4)'s abscissas decrease, so ex4 steps it as plain Runge-Kutta
    sys_, u0 = spatial.make_problem(spatial.ADVECTION_BURGERS_STEP, a=10.0, n=64)
    want = analysis.lambda_sweep(analysis.rk_builder(methods.get("eSSPRK(10,4)")),
                                 sys_, u0, [0.1, 0.5], 2)
    rows = _csv_rows((tmp_path / "ex4_eSSPRK_10_4.csv").read_text())[1:]
    assert [float(r[1]).hex() for r in rows] == [w.max_rise.hex() for w in want]


@pytest.fixture
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):  # no child at all, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


_SMALL = ["--n", "64", "--steps", "4"]
_SMALL_SWEEP = ["--n", "64", "--steps", "5", "--lambdas", "0.1:1.0:4"]
_CHUNKED_SWEEP = ["--n", "400", "--steps", "2", "--lambdas", "0.05:1.2:24"]


@pytest.mark.parametrize("argv", [
    ["table6", "--methods", "eSSPRK+(3,3),eSSPRK+(5,4)", "--a", "0,10"] + _SMALL,
    ["table7", "--a", "0,10"] + _SMALL,
    ["table8-partial", "--n", "64", "--steps", "50"],
    ["ex4", "--methods", "eSSPRK+(5,4),eSSPRK(10,4)"] + _SMALL_SWEEP,
    # three 10-lambda chunks at n = 400; eSSPRK(10,4) blows up from 0.7 on,
    # so its second chunk is re-run one lambda at a time inside its job
    pytest.param(["ex4", "--methods", "eSSPRK(10,4),eSSPRK+(5,4)"] + _CHUNKED_SWEEP,
                 id="ex4-chunks"),
    ["sweep", "--method", "eSSPRK(10,4)", "--stepper", "rk"] + _CHUNKED_SWEEP,
    ["fig1"] + _SMALL_SWEEP,
    ["ex1", "--methods", "eSSPRK(3,3),eSSPRK+(3,3)", "--dts", "0.05,0.1,0.125"],
], ids=lambda argv: argv[0])
def test_cli_run_writes_the_same_bytes_on_one_cpu_and_on_two(tmp_path, capsys, monkeypatch,
                                                            no_child_left, argv):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    outputs = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        out = tmp_path / str(cpus)
        argv_out = [*argv, "--out", str(out / "sweep.csv")] if argv[0] == "sweep" else \
            ["run", *argv, "--out", str(out)]
        assert main(argv_out) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(forks) == cpus - 1
    assert outputs[0] == outputs[1] and outputs[0]


def _squares_failing_at(fails):
    def fn(job):
        if job in fails:
            raise fails[job]
        return job * job
    return fn


@pytest.mark.parametrize("fails, want", [
    ({}, None),
    ({3: NonFinite("job 3"), 4: ValueError("job 4")}, NonFinite("job 3")),  # a child's
    ({2: ConfigError("job 2"), 3: NonFinite("job 3")}, ConfigError("job 2")),  # this process's
    ({5: UnknownMethod("job 5", ["a"])}, UnknownMethod("job 5", ["a"])),
])
@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_pmap_is_the_list_and_the_first_failing_job_in_job_order_raises(
        monkeypatch, no_child_left, fails, want, cpus):
    _cpus(monkeypatch, cpus)
    fn = _squares_failing_at(fails)
    if want is None:
        assert cli._pmap(fn, list(range(6))) == [j * j for j in range(6)]
        return
    with pytest.raises(type(want)) as info:
        cli._pmap(fn, list(range(6)))
    assert type(info.value) is type(want) and str(info.value) == str(want)


def test_pmap_hands_each_job_to_the_first_process_free(tmp_path, monkeypatch, no_child_left):
    # job 0 ends in time only if another process claims jobs 2, 4, ..., which
    # a fixed stride would leave to this process, after job 0
    _cpus(monkeypatch, 2)

    def fn(job):
        if job:
            (tmp_path / str(job)).touch()
            return job
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if all((tmp_path / str(j)).exists() for j in range(1, 8)):
                return "all seen"
            time.sleep(0.01)
        return "timed out"

    assert cli._pmap(fn, list(range(8))) == ["all seen", *range(1, 8)]


def test_pmap_runs_more_jobs_than_a_pipe_holds_claims(monkeypatch, no_child_left):
    # 20 000 four-byte claims would fill a 64 KiB pipe before any worker reads
    def blocked(signum, frame):
        raise TimeoutError("_pmap blocked")

    _cpus(monkeypatch, 2)
    previous = signal.signal(signal.SIGALRM, blocked)
    signal.alarm(30)  # a forked worker inherits no alarm
    try:
        assert cli._pmap(abs, range(20_000)) == list(range(20_000))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("die, how", [
    (lambda: os._exit(3), "exit status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {int(signal.SIGKILL)}"),
], ids=["exit", "signal"])
def test_pmap_child_that_ends_without_a_result_is_an_ssp_error(monkeypatch, no_child_left,
                                                               die, how):
    _cpus(monkeypatch, 2)
    parent = os.getpid()

    def fn(job):
        if os.getpid() != parent:
            die()
        return job

    with pytest.raises(SspError, match=rf"^worker process \d+ ended without a result \({how}\)$"):
        cli._pmap(fn, [0, 1, 2])


def test_pmap_interrupted_kills_and_reaps_its_children(monkeypatch, no_child_left):
    _cpus(monkeypatch, 3)
    parent = os.getpid()

    def fn(job):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli._pmap(fn, [0, 1, 2])
    assert time.monotonic() - start < 10


@pytest.mark.parametrize("cpus", [1, 2])
def test_cli_run_writes_no_csv_when_a_job_fails(tmp_path, capsys, monkeypatch, no_child_left,
                                               cpus):
    # ex4 steps eSSPRK(10,4) as plain Runge-Kutta: its job, the second, fails
    # after the first has finished on one CPU, and in the worker on two
    def blow_up(rec):
        raise NonFinite(f"{rec.name} blew up")

    _cpus(monkeypatch, cpus)
    monkeypatch.setitem(cli._BUILDERS, "rk", blow_up)
    out = tmp_path / "out"
    argv = ["run", "ex4", "--methods", "eSSPRK+(5,4),eSSPRK(10,4),eSSPRK+(6,4)", *_SMALL_SWEEP]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: non-finite state: eSSPRK(10,4) blew up\n"
    assert list(out.iterdir()) == []


def test_cli_run_child_that_dies_exits_one_with_one_line(tmp_path, capsys, monkeypatch,
                                                         no_child_left):
    parent = os.getpid()

    def die(rec):
        if os.getpid() != parent:
            os._exit(3)
        return analysis.ifrk_builder(rec)

    _cpus(monkeypatch, 2)
    monkeypatch.setitem(cli._BUILDERS, "ifrk", die)
    out = tmp_path / "out"
    assert main(["run", "fig1", *_SMALL_SWEEP, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(
        r"error: worker process \d+ ended without a result \(exit status 3\)", err[0]), err
    assert list(out.iterdir()) == []


def _subclasses(cls):
    return [cls] + [c for sub in cls.__subclasses__() for c in _subclasses(sub)]


def test_every_package_error_and_memory_error_survive_pickling():
    # a job's exception comes back from its worker process pickled
    excs = [UnknownMethod("bogus", ["a", "b"]) if cls is UnknownMethod else cls("message")
            for cls in _subclasses(SspError)] + [MemoryError("Unable to allocate 37.3 GiB")]
    assert len(excs) >= 8
    for exc in excs:
        back = pickle.loads(pickle.dumps(exc))
        assert (type(back), str(back), back.args) == (type(exc), str(exc), exc.args)
