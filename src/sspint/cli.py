"""Command-line interface: method inspection, radius tables, coefficient
optimization, and the 1D experiment harness.

Experiments write CSV artifacts with a header row and a trailing comment
block of ``# key=value`` metadata; files are written atomically (temp file
plus rename) so partial runs never leave truncated output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import pickle
import signal
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__ as VERSION, analysis, methods, spatial
from .analysis import van_der_pol_errors
from .errors import ConfigError, NonFinite, SspError
from .integrators import integrate
from .optimizer import BOUND_GAP, OptimizationSpec, optimize
from .ssp_radius import linear_bound, observed_l2_cfl, ssp_radius
from .tableau import order_residuals

_TABLE6_METHODS = (
    "eSSPRK+(2,2)",
    "eSSPRK+(9,2)",
    "eSSPRK+(3,3)",
    "eSSPRK+(4,3)",
    "eSSPRK+(9,3)",
    "eSSPRK+(5,4)",
    "eSSPRK+(6,4)",
)

#: stepper name -> stepper builder of a method record.
_BUILDERS = {
    "ifrk": analysis.ifrk_builder,
    "rk": analysis.rk_builder,
    "ifrk-general": analysis.ifrk_general_builder,
}


# --- small utilities -------------------------------------------------------


@contextlib.contextmanager
def _writing(path: str):
    """An OSError in the block is a ConfigError naming path."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def atomic_write_text(path: str, text: str):
    """Write text to path through a temp file in its directory, renamed
    over path, with the mode open(path, "w") gives: 0o666 less the umask
    (mkstemp makes the temp file 0o600)."""
    directory = os.path.dirname(os.path.abspath(path))
    with _writing(path):
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            umask = os.umask(0)  # reading the umask means setting it
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _pmap(fn, jobs: Sequence) -> List:
    """[fn(job) for job in jobs] on W = min(len(jobs), CPUs in the affinity
    mask) CPUs: this process and W - 1 forked children, which return their
    results pickled through pipes.  Process w runs block w of the jobs, then
    claims the next unclaimed block from a pipe filled before the forks,
    until none is left or a job fails: the earliest failing job raises here."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    width = max(1, min(len(jobs), cpus))  # every system with sched_getaffinity forks
    block = len(jobs) // 1024 + 1  # at most 1024 blocks: their 4-byte claims fit any pipe

    def share(w):  # ([(job index, result)] up to its first failure, (index, exception) or None)
        done, claim = [], w * block
        while claim is not None:
            for i in range(claim, min(claim + block, len(jobs))):
                try:
                    done.append((i, fn(jobs[i])))
                except Exception as exc:
                    return done, (i, exc)
            data = os.read(claims, 4)
            claim = int.from_bytes(data, "little") if data else None
        return done, None

    claims, wfd = os.pipe()
    children = {}  # pid -> read end of its pipe, of every child not yet reaped
    try:
        with os.fdopen(wfd, "wb") as fh:
            fh.write(np.arange(width * block, len(jobs), block, dtype="<i4").tobytes())
        for w in range(1, width):
            fd, wfd = os.pipe()
            pid = os.fork()
            children[pid] = fd  # before anything else can raise
            if pid == 0:  # the child never returns into its caller
                try:
                    with os.fdopen(wfd, "wb") as fh:
                        pickle.dump(share(w), fh)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(wfd)
        shares = [share(0)]
        for pid, fd in list(children.items()):
            blob = b"".join(iter(functools.partial(os.read, fd, 1 << 16), b""))
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if code:
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise SspError(f"worker process {pid} ended without a result ({how})")
            shares.append(pickle.loads(blob))
    finally:
        os.close(claims)
        for pid, fd in children.items():  # left only by an exception: stop them
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = [failure for _, failure in shares if failure]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return [result for _, result in sorted(pair for done, _ in shares for pair in done)]


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    text = str(x)
    if "," in text:  # method names like eSSPRK+(5,4)
        return f'"{text}"'
    return text


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence], meta: Dict) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    lines += [f"# {k}={v}" for k, v in sorted(meta.items())]
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def config_hash(cfg: Dict[str, str]) -> str:
    blob = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def parse_config_file(path: str) -> Dict[str, str]:
    """Flat ``key=value`` file; blank lines and '#' comments ignored."""
    cfg: Dict[str, str] = {}
    try:
        with open(path) as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                cfg[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return cfg


def _merged_config(args):
    """The experiment's parsed config, the hash of the keys given (in
    args.config, then as flags) and the output directory."""
    runner, defaults = _EXPERIMENTS[args.experiment]
    given = parse_config_file(args.config) if args.config else {}
    given.update((key, val) for key, val in vars(args).items()
                 if key not in ("command", "func", "experiment", "config") and val is not None)
    outdir = given.pop("out", ".")
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ConfigError(
            f"unknown config keys for {args.experiment}: {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted([*defaults, 'out']))})"
        )
    cfg = _parse({**defaults, **given}, args.experiment)
    if getattr(runner, "keywords", {}).get("stepper") == "ifrk":
        for rec in cfg["methods"]:
            if not rec.nondecreasing:
                raise ConfigError(f"{args.experiment} steps by integrating factors, which needs "
                                  f"nondecreasing abscissas; those of {rec.name} decrease")
    return cfg, config_hash(given), outdir


def split_method_names(text: str) -> List[str]:
    """Split a comma-separated method list, ignoring commas inside the
    parentheses of names like ``eSSPRK+(5,4)``."""
    names, cur, depth = [], [], 0
    for ch in text:
        if ch == "," and depth == 0:
            names.append("".join(cur).strip())
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    names.append("".join(cur).strip())
    return [n for n in names if n]


def _records(names: Optional[str]) -> List[methods.MethodRecord]:
    """The registered methods named in a comma-separated list; None names
    every registered method."""
    return [methods.get(name) for name in
            (methods.method_names() if names is None else split_method_names(names))]


def _floats(csv: str) -> List[float]:
    try:
        return [float(x) for x in csv.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {csv!r}")


def parse_lambda_grid(text: str) -> List[float]:
    """Either ``lo:hi:count`` or an explicit comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"lambda grid must be lo:hi:count, got {text!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"bad lambda grid {text!r}")
        if count < 1 or hi < lo:
            raise ConfigError(f"bad lambda grid {text!r}")
        if not np.isfinite([lo, hi]).all():  # before linspace, which warns
            raise ConfigError(f"lambdas must be finite and nonnegative, got {text!r}")
        grid = list(np.linspace(lo, hi, count))
    else:
        grid = _floats(text)
    if not all(np.isfinite(lam) and lam >= 0 for lam in grid):
        raise ConfigError(f"lambdas must be finite and nonnegative, got {text!r}")
    return grid


def _safe_name(name: str) -> str:
    return name.translate(str.maketrans({"+": "p", "(": "_", ")": None, ",": "_"}))


def _parse(cfg: Dict[str, Optional[str]], command: str) -> Dict:
    """The values of cfg parsed, each malformed or out-of-range one
    rejected before any work.  A sweep (a config with lambdas) steps one
    wavespeed; more is a ConfigError naming the command."""
    parsed = {}
    for key, text in cfg.items():
        parse, ok, want = _VALUES[key]
        try:
            parsed[key] = parse(text)
        except ValueError:
            raise ConfigError(f"{key} must {want}, got {text!r}") from None
        if not ok(parsed[key]):
            raise ConfigError(f"{key} must {want}, got {text!r}")
    if "lambdas" in parsed and len(parsed["a"]) != 1:
        raise ConfigError(f"{command} takes one wavespeed, got {cfg['a']!r}")
    return parsed


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_T = analysis.VAN_DER_POL_T

#: config key -> (parser of its string value, test of the parsed value,
#: what the value must be).  An unknown method name is an UnknownMethod.
_VALUES = {
    "n": (int, lambda n: n >= spatial.MIN_POINTS, f"be an int of at least {spatial.MIN_POINTS}"),
    "steps": (int, lambda steps: steps >= 1, "be an int of at least 1"),
    "threshold": (float, lambda t: 0.0 <= t < np.inf, "be finite and at least 0"),
    "a": (_floats, lambda a: a and all(0.0 <= x < np.inf for x in a),
          "list finite nonnegative wavespeeds"),
    "methods": (_records, bool, "list at least one method name"),
    "lambdas": (parse_lambda_grid, bool, "be lo:hi:count or a list of finite lambdas >= 0"),
    "dts": (_floats, lambda dts: all(0 < dt <= _T and np.isfinite(_T / dt) for dt in dts)
            and len({round(_T / dt) for dt in dts}) >= 3,
            f"be step sizes in (0, {_T}] giving at least 3 distinct step counts"),
    "splittings": (lambda text: [x.strip() for x in text.split(",")],
                   lambda names: set(names) <= {"a", "b"}, "be a and/or b"),
    "with_opt": (lambda text: _BOOLS.get(text.lower()), lambda w: w is not None,
                 "be true/false/1/0/yes/no"),
    "problem": (str, lambda name: name in spatial.PROBLEMS,
                "be one of " + ", ".join(spatial.PROBLEMS)),
}


# --- experiments -----------------------------------------------------------


def run_observed_tvd(cfg: Dict, outdir: str, meta: Dict, table: str, stepper: str,
                     lambda_hi, fixed_methods: Optional[str] = None) -> List[str]:
    """Observed TVD limits on the linear advection step, searched up to
    lambda_hi(claimed C), of cfg's methods or of the table's fixed ones."""
    def cell(job):
        rec, a = job
        sys_, u0 = spatial.make_problem(spatial.LINEAR_ADVECTION_STEP, a=a, n=cfg["n"])
        return analysis.observed_tvd_lambda(_BUILDERS[stepper](rec), sys_, u0,
                                            lambda_hi(rec.claimed_C), cfg["steps"],
                                            threshold=cfg["threshold"]).lambda_obs

    recs = cfg["methods"] if fixed_methods is None else _records(fixed_methods)
    cells = [(rec, a) for rec in recs for a in cfg["a"]]
    rows = [(rec.name, a, lam) for (rec, a), lam in zip(cells, _pmap(cell, cells))]
    path = os.path.join(outdir, f"{table}.csv")
    return [write_csv(path, ("method", "a", "lambda_obs"), rows,
                      dict(meta, experiment=table, threshold=cfg["threshold"]))]


def run_table8(cfg: Dict, outdir: str, meta: Dict) -> List[str]:
    n, steps = cfg["n"], cfg["steps"]
    grid = spatial.Grid1D(n)
    # wavespeed 11 at unit grid spacing: the upwind operator times dx
    M = spatial.upwind_operator(grid, 11.0 * grid.dx)
    # long-step stability probe of the integrating-factor methods
    sys_, u0 = spatial.make_problem(spatial.LINEAR_ADVECTION_STEP, a=10.0, n=n)

    def l2_cfl(rec, lambda_max):
        return [("l2_cfl", rec.name, observed_l2_cfl(rec.tableau, M, lambda_max, steps))]

    def opt():  # the search, then the probe of the method it found
        rec = optimize(OptimizationSpec(stages=5, order=3))
        return [("opt_radius", rec.name, rec.claimed_C)] + l2_cfl(rec, 0.4)

    def long_step(name):
        build = analysis.ifrk_builder(methods.get(name))
        try:
            u = integrate(build(sys_, 27.0 * sys_.dx), u0, 10)
            return [("ifrk_norm_at_lambda27", name, float(np.linalg.norm(u)))]
        except NonFinite:
            return [("ifrk_norm_at_lambda27", name, float("inf"))]

    jobs = [functools.partial(l2_cfl, methods.get("eSSPRK(3,3)"), 0.2),
            *([opt] if cfg["with_opt"] else []),
            *(functools.partial(long_step, name) for name in _TABLE6_METHODS)]
    rows = [row for rows in _pmap(lambda job: job(), jobs) for row in rows]
    path = os.path.join(outdir, "table8_partial.csv")
    return [write_csv(path, ("quantity", "method", "value"), rows,
                      dict(meta, experiment="table8-partial"))]


def _write_sweeps(cfg: Dict, problem: str, sweeps) -> List[str]:
    """Write the lambda_sweep CSV of each (path, meta, stepper, method record)
    of sweeps on the problem at cfg's a, n, steps and lambdas, which meta
    gains; one job per (sweep, lambda chunk): the batch lambda_sweep steps."""
    (a,), n, steps = cfg["a"], cfg["n"], cfg["steps"]
    sys_, u0 = spatial.make_problem(problem, a=a, n=n)
    chunks = analysis.lambda_chunks(cfg["lambdas"], n)
    jobs = [(_BUILDERS[stepper], rec, lams) for *_, stepper, rec in sweeps for _, lams in chunks]
    done = iter(_pmap(lambda job: analysis.lambda_sweep(job[0](job[1]), sys_, u0, job[2], steps),
                      jobs))
    return [write_csv(path, ("lambda", "max_rise", "log10_rise"),
                      [(r.lam, r.max_rise, r.log10_rise) for _ in chunks for r in next(done)],
                      dict(meta, a=a, n=n, steps=steps)) for path, meta, *_ in sweeps]


def run_sweep_experiment(cfg: Dict, outdir: str, meta: Dict, experiment: str) -> List[str]:
    if experiment == "fig1":
        jobs = [("decreasing-abscissa-IF", "ifrk-general", methods.get("eSSPRK(3,3)")),
                ("eSSPRK+(3,3)", "ifrk", methods.get("eSSPRK+(3,3)"))]
    else:
        jobs = [(r.name, "ifrk" if r.nondecreasing else "rk", r) for r in cfg["methods"]]
    return _write_sweeps(cfg, spatial.ADVECTION_BURGERS_STEP, [
        (os.path.join(outdir, f"{experiment}_{_safe_name(label)}.csv"),
         dict(meta, experiment=experiment, method=label), stepper, rec)
        for label, stepper, rec in jobs])


def run_ex1(cfg: Dict, outdir: str, meta: Dict) -> List[str]:
    uref = np.array(analysis.VAN_DER_POL_REFERENCE)
    pairs = [(rec, split) for rec in cfg["methods"] for split in cfg["splittings"]]

    def job(pair):
        errs = van_der_pol_errors(*pair, cfg["dts"], uref)
        return errs, analysis.convergence_slope(errs)

    err_rows, slope_rows = [], []
    for (rec, split), (errs, slope) in zip(pairs, _pmap(job, pairs)):
        err_rows += [(rec.name, split, dt, err) for dt, err in errs]
        slope_rows.append((rec.name, split, rec.order, slope))

    meta = dict(meta, experiment="ex1")
    return [write_csv(os.path.join(outdir, "ex1_errors.csv"),
                      ("method", "splitting", "dt", "error"), err_rows, meta),
            write_csv(os.path.join(outdir, "ex1_slopes.csv"),
                      ("method", "splitting", "order", "slope"), slope_rows, meta)]


_OBSERVED_TVD = {"a": "0,1,10,20", "n": "1000", "steps": "10",
                 "threshold": str(analysis.DEFAULT_THRESHOLD)}
#: table6 leaves room above the claimed C, as some observed values
#: exceed it (stage step-size effects).
_TABLE6 = (functools.partial(run_observed_tvd, table="table6", stepper="ifrk",
                             lambda_hi=lambda C: 1.5 * C + 0.75),
           dict(_OBSERVED_TVD, methods=",".join(_TABLE6_METHODS)))
_SWEEP = {"a": "10", "n": "400", "steps": "25", "lambdas": "0.05:2.0:40"}

#: experiment -> (runner(cfg, outdir, meta), the default of every config
#: key it takes besides out).  Defaults are strings, as in a config file;
#: methods=None is every registered method.  ex3 is another name for table6.
_EXPERIMENTS = {
    "ex1": (run_ex1, {"methods": None, "splittings": "a,b",
                      "dts": "0.02,0.04,0.06,0.08,0.10"}),
    "ex3": _TABLE6,
    "ex4": (functools.partial(run_sweep_experiment, experiment="ex4"),
            dict(_SWEEP, methods="eSSPRK+(5,4),eSSPRK+(6,4),eSSPRK(10,4)")),
    "table6": _TABLE6,
    "table7": (functools.partial(run_observed_tvd, table="table7", stepper="rk",
                                 lambda_hi=lambda C: 2.5, fixed_methods="eSSPRK(4,3)"),
               dict(_OBSERVED_TVD, a="0,1,2,10,20")),
    "table8-partial": (run_table8, {"n": "1000", "steps": "500", "with_opt": "false"}),
    "fig1": (functools.partial(run_sweep_experiment, experiment="fig1"),
             dict(_SWEEP, lambdas="0.05:1.2:24")),
}
EXPERIMENTS = tuple(_EXPERIMENTS)
#: the default of every config key ``sspint sweep`` takes: ex4's problem and grid.
_SWEEP_COMMAND = dict(_SWEEP, problem=spatial.ADVECTION_BURGERS_STEP)


# --- subcommand handlers ---------------------------------------------------


def _write_method_json(path: str, rec, **extra):
    """Write a method record's tableau, claimed coefficient and family."""
    data = rec.tableau.to_json_dict()
    data["claimed_C"] = rec.claimed_C
    data["family"] = rec.family
    data.update(extra)
    atomic_write_text(path, json.dumps(data, indent=2) + "\n")
    print(f"wrote {path}")


def cmd_methods(args) -> int:
    if (args.name is None) != (args.action == "list"):
        raise ConfigError(f"methods {args.action} requires a method name" if args.name is None
                          else f"methods list takes no method name, got {args.name!r}")
    if args.out is not None and args.action != "export":
        raise ConfigError(f"methods {args.action} takes no --out, got {args.out!r}")
    if args.action == "list":
        print(f"{'name':<16} {'s':>2} {'p':>2} {'C':>8} {'C_eff':>7}  family")
        for rec in methods.list_methods():
            print(
                f"{rec.name:<16} {rec.stages:>2} {rec.order:>2} "
                f"{rec.claimed_C:>8.4f} {rec.claimed_C / rec.stages:>7.4f}  "
                f"{rec.family}"
            )
        return 0
    if args.action == "verify":
        rec = methods.get(args.name)
        rr = ssp_radius(rec.tableau)
        rep = order_residuals(rec.tableau)
        print(f"name:          {rec.name}")
        print(f"stages:        {rec.stages}")
        print(f"order:         {rec.order} (achieved {rep.achieved_order})")
        print(f"C (computed):  {rr.radius:.6f} (claimed {rec.claimed_C:.6f})")
        print(f"C_eff:         {rr.radius / rec.stages:.6f}")
        print(f"nondecreasing: {rec.nondecreasing}")
        print("order-condition residuals:")
        for tag, val in rep.residuals.items():
            print(f"  {tag:<6} {val: .3e}")
        ok = methods.verify_certificate(rec).ok
        print("status:        " + ("ok" if ok else "INVARIANT VIOLATED"))
        return 0 if ok else 1
    if not args.out:
        raise ConfigError("methods export requires --out")
    _write_method_json(args.out, methods.get(args.name))
    return 0


def cmd_radius(args) -> int:
    rows = []
    for rec in _parse({"methods": args.methods}, "radius")["methods"]:
        r = ssp_radius(rec.tableau).radius
        rows.append((rec.name, r, r / rec.stages))
    if args.out:
        write_csv(args.out, ("name", "C", "C_eff"), rows,
                  {"version": VERSION})
        print(f"wrote {args.out}")
    else:
        print(f"{'name':<16} {'C':>10} {'C_eff':>10}")
        for name, r, reff in rows:
            print(f"{name:<16} {r:>10.4f} {reff:>10.4f}")
    return 0


def cmd_optimize(args) -> int:
    spec = OptimizationSpec(
        stages=args.stages,
        order=args.order,
        require_nondecreasing=args.nondecreasing,
        restarts=args.restarts,
        seed=args.seed,
    )
    rec = optimize(spec)
    report = methods.verify_certificate(rec)
    bound = linear_bound(spec.stages, spec.order)
    gap = bound - rec.claimed_C
    print(f"{rec.name}: C = {rec.claimed_C:.6f}")
    print(f"  R_lin = {bound:.6f}, gap = {gap:.3g}")
    if gap > BOUND_GAP and spec.order <= 2:  # R_lin is attained: C = s - 1 at order 2
        print(f"  the search fell short of the known optimum C = R_lin = {bound:.6f}")
    for name, ok, detail in report.checks:
        print(f"  {name}: {'ok' if ok else 'FAILED'} ({detail})")
    if args.out:
        _write_method_json(args.out, rec, seed=spec.seed, restarts=spec.restarts,
                           R_lin=bound, gap=gap)
    return 0 if report.ok else 1


def cmd_sweep(args) -> int:
    rec = methods.get(args.method)
    cfg = _parse({key: getattr(args, key) for key in _SWEEP_COMMAND}, "sweep")
    meta = {"version": VERSION, "method": rec.name, "problem": cfg["problem"],
            "stepper": args.stepper}
    _write_sweeps(cfg, cfg["problem"], [(args.out, meta, args.stepper, rec)])
    print(f"wrote {args.out}")
    return 0


def cmd_run(args) -> int:
    cfg, digest, outdir = _merged_config(args)
    with _writing(outdir):  # before the run, not after it
        os.makedirs(outdir, exist_ok=True)
    meta = {"config_hash": digest, "version": VERSION}
    paths = _EXPERIMENTS[args.experiment][0](cfg, outdir, meta)
    for p in paths:
        print(f"wrote {p}")
    return 0


# --- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors surface as ConfigError so they exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _add_keys(parser, defaults: Dict[str, Optional[str]]):
    """A --key flag for each config key of defaults: dest key, the text
    given, else the key's default; its help says what the value must be."""
    for key, default in defaults.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, default=default,
                            help=f"{key} must {_VALUES[key][2]}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sspint",
        description="SSP Runge-Kutta and integrating-factor time-integration "
        "toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("methods", help="inspect the built-in method registry")
    p.add_argument("action", choices=("list", "verify", "export"))
    p.add_argument("name", nargs="?", help="method name for verify/export")
    p.add_argument("--out", help="output path for export")
    p.set_defaults(func=cmd_methods)

    p = sub.add_parser("radius", help="SSP coefficients (table or CSV) of the --methods "
                       "given, else of every registered method")
    _add_keys(p, {"methods": None})
    p.add_argument("--out", help="write CSV instead of printing")
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("optimize", help="search for optimal SSP coefficients")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--nondecreasing", action="store_true")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the certified tableau as JSON")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser(
        "sweep",
        help="TV-rise sweep; CSV columns: lambda,max_rise,log10_rise",
    )
    p.add_argument("--method", required=True)
    _add_keys(p, _SWEEP_COMMAND)
    p.add_argument("--stepper", choices=tuple(_BUILDERS), default="ifrk")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "run",
        help="run a named experiment: " + " | ".join(EXPERIMENTS) + ". "
        "ex1: van der Pol convergence (CSV: method,splitting,dt,error and "
        "fitted slopes). ex3/table6: observed TVD coefficients on the linear "
        "advection step (CSV: method,a,lambda_obs). table7: plain-RK "
        "wavespeed degradation (same columns). table8-partial: L2 CFL probes "
        "(CSV: quantity,method,value). ex4/fig1: TV-rise sweeps on "
        "advection-Burgers (CSV: lambda,max_rise,log10_rise).",
    )
    p.add_argument("experiment", choices=EXPERIMENTS)
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", help="output directory (default: .)")
    _add_keys(p, dict.fromkeys(key for key in _VALUES  # each key an experiment takes
                               if any(key in keys for _, keys in _EXPERIMENTS.values())))
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NonFinite as exc:
        print(f"error: non-finite state: {exc}", file=sys.stderr)
        return 2
    except SspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
