"""Layer timings of sspint's observed-TVD search, L2-CFL probe, Burgers
sweep, integrating-factor plans, SSP radius and optimizer.

Usage (from the repository root):

    python3 bench/layers.py [--quick] [--src DIR] [--label NAME] [--out FILE]
    python3 bench/layers.py --against DIR [--quick] [--out FILE]

Each layer is timed with ``time.perf_counter``; the reported figure is
the median of k repeats, and ``best_s`` their minimum (k = 5, or 3 with
``--quick``).  ``--src`` imports sspint from another checkout's ``src``
directory, so one script times two commits on the same machine; that
package must have the batched pre-scan, the spectral system, the
circulant L2 probe and the batched WENO5 right-hand side.  With ``--out`` the
run is merged into that JSON file under ``runs[label]``, beside the
machine facts, which include the BLAS thread setting
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and OpenBLAS's runtime
count); without it the run is printed.  A full run (not
``--quick``) also records the tier-1 suite of the checkout that holds
``--src`` (``python -m pytest -q --continue-on-collection-errors`` there,
with that ``src`` on ``PYTHONPATH``): its wall time and summary line.

``--against DIR`` times two checkouts in rotating rounds: each round runs
a ``--quick`` child process for ``DIR`` (recorded as ``parent``), one for
``--src`` (recorded under ``--label``) and a second one for ``--src``,
rotating which goes first every round, so machine drift falls on every
side alike.  A round's figure is a child's best of its 3 repeats; each
layer reports the median over ``ROUNDS`` = 6 rounds, with the per-round
figures kept as ``samples_s``.  The ``--label`` run also records, per
layer, ``vs_parent``: its median over the parent's (``ratio``) beside the
second ``--src`` child's median over its own (``identical_code_ratio``),
the spread of the harness on code that did not change.  Without
``--quick`` the tier-1 suite of each checkout is recorded once after the
rounds.

Layers (n = 1000 linear-advection step, 10 steps, eSSPRK+(5,4), a = 10,
unless stated):

- ``prescan``: the 50-point pre-scan of ``observed_tvd_lambda`` up to
  the chunk holding the first 1e-10 crossing.
- ``observed_tvd_lambda``: the full search (pre-scan plus bisection).
- ``rises_spectral_k4``: one 4-lambda batch of that pre-scan (its first
  four grid points) on real-FFT coefficients, as ``prescan_bracket`` runs
  it: ``max_tv_rises`` of those lambdas on the ``spectral`` system.
- ``run_ex1``, ``run_ex4``, ``run_fig1``, ``run_table6``, ``run_table7``
  and ``run_table8``: ``sspint run`` of ex1, ex4, fig1, table6, table7 and
  table8-partial at their default config, in-process through ``cli.main``
  with stdout suppressed.
- ``pmap_trivial``: ``cli._pmap`` of ``abs`` over two jobs, which on two
  or more CPUs forks one worker: the cost of one fork-and-claim round.
- ``tv_trace``: ``tv_trace`` at lambda = 1.5, the stage TVs of one run.
- ``total_variation_k4``: ``total_variation`` of one (9, 4, 1000) batch
  of standard normal values (seed 0): the stages of one step of a
  nine-stage method in a 4-lambda spectral chunk.
- ``ifrk_step``: one integrating-factor step on physical values.
- ``ifrk_step_spectral_k50``: one ``ifrk_step`` of the 50-lambda pre-scan
  batch on real-FFT coefficients (the stage loop a spectral build runs
  once, for its stage gains).
- ``rises_dense_k6``: ``max_tv_rises`` of eSSPRK+(5,4) at 6 lambdas
  over [0.5, 3], 5 steps, on the n = 64, a = 10 linear-advection step
  with L and N as dense ``upwind_matrix`` arrays, N applied to each row
  (``u @ N.T``): the Pade-13 scan of a non-circulant L, one batch of 6
  rows where sspint batches it, one lambda at a time where not.
- ``l2cfl_dense`` / ``l2cfl_circulant``: ``observed_l2_cfl`` of
  eSSPRK(3,3) (wavespeed 11 at unit spacing, lambda <= 0.2, 500 steps,
  seed 0) on the dense matrix and on the circulant operator.
- ``weno5_rhs`` / ``weno5_rhs_k10``: ``weno5_burgers_rhs`` at n = 400 on
  one row and on a 10-row batch, ex4's and fig1's full chunk
  (``BATCH_ELEMENTS // 400`` = 10 rows).
- ``circulant_apply_k10``: the n = 400 upwind exponential (a = 10) of the
  first 10-row batch of ex4's sweep (lambda = 0.05 to 0.5, one step size
  per row) applied to a 10-row batch, the product every physical
  Burgers stage makes.
- ``burgers_ifrk_step``: one integrating-factor step of eSSPRK+(5,4) on
  the n = 400 advection-Burgers step (a = 10, lambda = 1).
- ``lambda_sweep_burgers``: ex4's default sweep of eSSPRK+(5,4): 40
  lambdas over [0.05, 2], 25 steps, on that problem.
- ``observed_tvd_lambda_burgers``: ``observed_tvd_lambda`` of
  eSSPRK+(5,4) on that problem, 25 steps, threshold 1e-4, up to
  lambda_hi = 1.5 C + 0.75: a search on a circulant L with a nonlinear
  explicit term, so without a spectral system.
- ``rk_step_burgers_k10``: one plain-RK step of eSSPRK(10,4), as
  ``rk_builder`` steps it, of the first 10-row batch of ex4's sweep on
  that problem (lambda = 0.05 to 0.5).
- ``van_der_pol_rk_step``: one ``rk_step`` of eSSPRK(10,4) on the van der
  Pol right-hand side at dt = 1e-5 (the step of ex1's reference solve,
  which no longer calls it), its plan included.
- ``van_der_pol_reference``: that whole solve, ``analysis.van_der_pol_reference``
  (50 000 steps to T = 0.5).  ``run_ex1`` reads its pinned value,
  ``analysis.VAN_DER_POL_REFERENCE``, instead.
- ``make_plan_batch``: ``make_plan`` of eSSPRK+(6,4) for the first
  10-row batch of ex4's sweep on that problem (lambda = 0.05 to 0.5), its
  cache included.
- ``make_plan_general_dense``: ``make_general_plan`` of eSSPRK(5,4) on
  ex1's dense 2x2 van der Pol operator (splitting a) at dt = 0.02, its
  Pade-13 exponentials included.
- ``ifrk_step_vdp``: one ``ifrk_step`` of that plan from ex1's initial
  state (2, 0), the plan built outside the timer.
- ``expm``: ``expm`` of that operator times 0.02.
- ``expm_stack``: the exponentials of every gap of that plan,
  ``build_cache`` of the operator at dt = 0.02 with the plan's gaps: one
  ``expm`` of the gap stack where ``expm`` takes stacks, one per gap
  before.
- ``van_der_pol_errors_5dt``: ``analysis.van_der_pol_errors`` of
  eSSPRK(10,4), splitting a, at ex1's five default step sizes (0.02 to
  0.1) against ``analysis.VAN_DER_POL_REFERENCE``: one (method,
  splitting) of ``run_ex1``.
- ``ssp_radius``: ``ssp_radius`` of eSSPRK+(6,4).
- ``optimize_<s>_<p>``: ``optimize`` of (3,2), (3,3), (4,3) and (5,3) with
  non-decreasing abscissas, 10 restarts, seed 0, with the certified C.
- ``optimize_6_4``: ``optimize`` of (6,4) with non-decreasing abscissas,
  2 restarts, seed 0, with the certified C.
- ``linear_bound_10_4``: ``ssp_radius.linear_bound(10, 4)``, R_lin over the
  462 bases of the widest paper-grid cell; skipped where sspint has no
  ``linear_bound``, and then left out of ``vs_parent``.
- ``order_jacobian_10_4``: one Jacobian of the order conditions of the
  classic (10,4) search (``optimizer._problem``), at the first start of
  seed 0 (``_start`` with r = 0.1).
- ``registry``: the method registry rebuilt and self-checked, as on the
  first lookup of every start (``methods._registry()`` from
  ``_REGISTRY = None``).
- ``startup``: ``import sspint.cli`` in a fresh interpreter per repeat,
  timed inside it, so the interpreter's own start is left out.
"""

import argparse
import contextlib
import dataclasses
import glob
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

N = 1000
STEPS = 10
A = 10.0
METHOD = "eSSPRK+(5,4)"
#: (stages, order, restarts) of the ``optimize_<s>_<p>`` layers.
OPTIMIZER_CASES = ((3, 2, 10), (3, 3, 10), (4, 3, 10), (5, 3, 10), (6, 4, 2))
#: the advection-Burgers sweep of ex4 at its default config.
BURGERS_N = 400
BURGERS_STEPS = 25
BURGERS_LAMBDAS = (0.05, 2.0, 40)
#: TV-rise threshold of ``observed_tvd_lambda_burgers``: above the WENO
#: roundoff, under which the first pre-scan point already crosses.
BURGERS_THRESHOLD = 1e-4
#: ex1's default step sizes.
EX1_DTS = (0.02, 0.04, 0.06, 0.08, 0.10)
#: rotating rounds of ``--against``: a multiple of its 3 children, so
#: each runs first, second and third equally often.
ROUNDS = 6


#: run by ``python -c`` in a fresh interpreter: the ``startup`` layer.
_STARTUP = ("import time; start = time.perf_counter(); import sspint.cli; "
            "print(time.perf_counter() - start)")


def _stats(samples):
    return {"median_s": statistics.median(samples), "best_s": min(samples),
            "repeats": len(samples), "samples_s": samples}


def _median_time(fn, repeats, inner=1):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    return _stats(samples)


def _env_with(src):
    """The environment with src first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def startup(src, repeats):
    """``import sspint.cli`` from src, each repeat in a fresh interpreter."""
    return _stats([
        float(subprocess.run([sys.executable, "-c", _STARTUP], env=_env_with(src),
                             capture_output=True, text=True, check=True).stdout)
        for _ in range(repeats)])


def layers(quick, src):
    import numpy as np

    from sspint import analysis, cli, integrators, methods, spatial
    from sspint.integrators import ifrk_step, make_plan
    from sspint.optimizer import OptimizationSpec, _problem, _start, optimize
    from sspint.ssp_radius import observed_l2_cfl

    k = 3 if quick else 5
    rec = methods.get(METHOD)
    hi = 1.5 * rec.claimed_C + 0.75
    sys_, u0 = spatial.make_problem(spatial.LINEAR_ADVECTION_STEP, a=A, n=N)
    build = analysis.ifrk_builder(rec)

    def run(experiment):
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["run", experiment, "--out", out]) != 0:
                raise RuntimeError(f"sspint run {experiment} failed")

    plan = make_plan(rec, sys_, 1.5 * sys_.dx)
    spec = integrators.spectral(sys_)
    lams = np.linspace(hi / 50, hi, 50)
    batch = make_plan(rec, spec, lams[:, None] * sys_.dx)
    uh0 = np.broadcast_to(np.fft.rfft(u0), (50, N // 2 + 1))
    tv_batch = np.random.default_rng(0).standard_normal((9, 4, N))
    out = {
        "prescan": _median_time(
            lambda: analysis.prescan_bracket(build, sys_, u0, hi, STEPS), k),
        "observed_tvd_lambda": _median_time(
            lambda: analysis.observed_tvd_lambda(build, sys_, u0, hi, STEPS), k),
        "rises_spectral_k4": _median_time(
            lambda: analysis.max_tv_rises(build, spec, u0, lams[:4], STEPS), k, 20),
        "run_ex1": _median_time(lambda: run("ex1"), k),
        "run_ex4": _median_time(lambda: run("ex4"), k),
        "run_fig1": _median_time(lambda: run("fig1"), k),
        "run_table6": _median_time(lambda: run("table6"), k),
        "run_table7": _median_time(lambda: run("table7"), k),
        "run_table8": _median_time(lambda: run("table8-partial"), k),
        "pmap_trivial": _median_time(lambda: cli._pmap(abs, [0, 1]), k, 20),
        "tv_trace": _median_time(
            lambda: analysis.tv_trace(build, sys_, u0, 1.5, STEPS), k),
        "total_variation_k4": _median_time(
            lambda: analysis.total_variation(tv_batch), k, 200),
        "ifrk_step": _median_time(lambda: ifrk_step(plan, sys_, u0), k, 200),
        "ifrk_step_spectral_k50": _median_time(
            lambda: ifrk_step(batch, spec, uh0), k, 20),
    }
    out.update(burgers_layers(k))

    t33 = methods.get("eSSPRK(3,3)").tableau
    grid = spatial.Grid1D(N)
    dense = spatial.upwind_matrix(grid, 11.0) * grid.dx
    circ = spatial.upwind_operator(grid, 11.0 * grid.dx)
    out["l2cfl_dense"] = _median_time(
        lambda: observed_l2_cfl(t33, dense, 0.2, 500, seed=0), k)
    out["l2cfl_circulant"] = _median_time(
        lambda: observed_l2_cfl(t33, circ, 0.2, 500, seed=0), k)

    small, small_u0 = spatial.make_problem(spatial.LINEAR_ADVECTION_STEP, a=A, n=64)
    grid64 = spatial.Grid1D(64)
    N64 = spatial.upwind_matrix(grid64, 1.0)
    dense64 = dataclasses.replace(small, L=spatial.upwind_matrix(grid64, A),
                                  N=lambda u: u @ N64.T)
    out["rises_dense_k6"] = _median_time(
        lambda: analysis.max_tv_rises(build, dense64, small_u0, np.linspace(0.5, 3.0, 6), 5),
        k)

    for s, p, restarts in OPTIMIZER_CASES:
        spec = OptimizationSpec(s, p, require_nondecreasing=True, restarts=restarts,
                                seed=0)
        found = []
        out[f"optimize_{s}_{p}"] = _median_time(
            lambda: found.append(optimize(spec).claimed_C), k)
        out[f"optimize_{s}_{p}"]["C"] = found[-1]

    radius = importlib.import_module("sspint.ssp_radius")  # the package's name is a function
    if hasattr(radius, "linear_bound"):
        out["linear_bound_10_4"] = _median_time(lambda: radius.linear_bound(10, 4), k, 20)

    jacobian = _problem(OptimizationSpec(10, 4, require_nondecreasing=False))[2][0]["jac"]
    x = np.append(_start(np.random.default_rng(0), 10), 0.1)
    out["order_jacobian_10_4"] = _median_time(lambda: jacobian(x), k, 200)

    def rebuild_registry():
        methods._REGISTRY = None
        methods._registry()

    out["registry"] = _median_time(rebuild_registry, k)
    out["startup"] = startup(src, k)
    return out


def burgers_layers(k):
    """The WENO5 right-hand side, a batched circulant product, one Burgers
    step, ex4's sweep of eSSPRK+(5,4), one plain-RK step of an ex4 batch,
    one step of the van der Pol reference solve and the whole solve, the
    plans of ex4 and ex1, one step of ex1's plan, their exponentials, one
    (method, splitting) of ex1 and one SSP radius."""
    import numpy as np

    from sspint import analysis, methods, spatial
    from sspint.expm import build_cache, expm
    from sspint.integrators import (ifrk_step, make_general_plan, make_plan, rk_step,
                                    shu_osher_form)
    from sspint.ssp_radius import ssp_radius

    sys_, u0 = spatial.make_problem(spatial.ADVECTION_BURGERS_STEP, a=A,
                                    n=BURGERS_N)
    grid = spatial.Grid1D(BURGERS_N)
    rows = np.random.default_rng(0).standard_normal((10, BURGERS_N))
    rec = methods.get(METHOD)
    plan = make_plan(rec, sys_, sys_.dx)
    vdp = methods.get("eSSPRK(10,4)")
    plus64 = methods.get("eSSPRK+(6,4)")
    lams = np.linspace(*BURGERS_LAMBDAS)[:10, None]
    classic54 = methods.get("eSSPRK(5,4)")
    so54 = shu_osher_form(classic54)
    vdp_sys, vdp_u0 = spatial.make_problem(spatial.VAN_DER_POL, splitting="a")
    vdp_plan = make_general_plan(so54, classic54.tableau.c, vdp_sys, 0.02)
    rk_batch = analysis.rk_builder(vdp)(sys_, lams * sys_.dx)
    exp_batch = sys_.L.exp(lams * sys_.dx)
    u0_batch = np.tile(u0, (len(lams), 1))
    vdp_ref = np.array(analysis.VAN_DER_POL_REFERENCE)
    out = {
        "weno5_rhs": _median_time(lambda: spatial.weno5_burgers_rhs(grid, u0), k, 200),
        "weno5_rhs_k10": _median_time(
            lambda: spatial.weno5_burgers_rhs(grid, rows), k, 50),
        "circulant_apply_k10": _median_time(lambda: exp_batch @ rows, k, 200),
        "burgers_ifrk_step": _median_time(lambda: ifrk_step(plan, sys_, u0), k, 50),
        "lambda_sweep_burgers": _median_time(
            lambda: analysis.lambda_sweep(analysis.ifrk_builder(rec), sys_, u0,
                                          np.linspace(*BURGERS_LAMBDAS), BURGERS_STEPS),
            k),
        "observed_tvd_lambda_burgers": _median_time(
            lambda: analysis.observed_tvd_lambda(
                analysis.ifrk_builder(rec), sys_, u0, 1.5 * rec.claimed_C + 0.75,
                BURGERS_STEPS, BURGERS_THRESHOLD), k),
        "rk_step_burgers_k10": _median_time(lambda: rk_batch(u0_batch, None), k, 20),
        "van_der_pol_rk_step": _median_time(
            lambda: rk_step(vdp, spatial.van_der_pol_full, np.array([2.0, 0.0]), 1e-5),
            k, 2000),
        "van_der_pol_reference": _median_time(analysis.van_der_pol_reference, k),
        "make_plan_batch": _median_time(
            lambda: make_plan(plus64, sys_, lams * sys_.dx), k, 20),
        "make_plan_general_dense": _median_time(
            lambda: make_general_plan(so54, classic54.tableau.c, vdp_sys, 0.02), k, 200),
        "ifrk_step_vdp": _median_time(lambda: ifrk_step(vdp_plan, vdp_sys, vdp_u0), k, 2000),
        "expm": _median_time(lambda: expm(0.02 * vdp_sys.L), k, 2000),
        "expm_stack": _median_time(
            lambda: build_cache(vdp_sys.L, 0.02, vdp_plan.cache.gaps), k, 200),
        "van_der_pol_errors_5dt": _median_time(
            lambda: analysis.van_der_pol_errors(vdp, "a", EX1_DTS, vdp_ref), k, 20),
        "ssp_radius": _median_time(lambda: ssp_radius(plus64.tableau), k, 20),
    }
    return out


def alternating(src, against, label):
    """Per-layer medians, over rounds that rotate which child runs first,
    of each quick child's best time: the parent, --src, and --src again."""
    sides = {"parent": against, label: src, "identical": src}
    samples = {name: [] for name in sides}
    for r in range(ROUNDS):
        names = list(sides)
        for name in names[r % 3:] + names[:r % 3]:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--quick",
                 "--src", sides[name], "--label", name],
                capture_output=True, text=True, check=True)
            samples[name].append(json.loads(proc.stdout)[name])
    runs = {}
    for name, got in samples.items():
        merged = {}
        for layer, first in got[0]["layers"].items():
            times = [g["layers"][layer]["best_s"] for g in got]
            merged[layer] = dict(first, median_s=statistics.median(times),
                                 best_s=min(times), repeats=ROUNDS, samples_s=times)
        runs[name] = {"src_lines": got[0]["src_lines"], "rounds": ROUNDS,
                      "layers": merged}
    again = runs.pop("identical")["layers"]
    runs[label]["vs_parent"] = {
        layer: {"ratio": m["median_s"] / runs["parent"]["layers"][layer]["median_s"],
                "identical_code_ratio": again[layer]["median_s"] / m["median_s"]}
        for layer, m in runs[label]["layers"].items() if layer in runs["parent"]["layers"]}
    return runs


def tier1(src):
    """Wall time and summary line of the tier-1 suite beside src."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=os.path.dirname(os.path.abspath(src).rstrip(os.sep)), env=_env_with(src),
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - start,
            "summary": lines[-1] if lines else proc.stderr.strip()[-200:]}


def _line_count(path):
    with open(path) as fh:
        return sum(1 for _ in fh)


def _blas_threads():
    """OpenBLAS's runtime thread count per OpenBLAS library loaded in this
    process, read through ctypes; empty where /proc/self/maps is missing."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln and ln.rstrip().endswith(".so")})
    except OSError:
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def machine():
    """Machine facts, with the BLAS thread setting the children inherit:
    SLSQP's QP in the optimizer layers runs on OpenBLAS's threads."""
    import numpy
    import scipy
    import scipy.optimize  # noqa: F401  (loads SciPy's own OpenBLAS)

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "blas_threads": _blas_threads()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    parser.add_argument("--label", default="change")
    parser.add_argument("--against", help="another checkout's src, timed in "
                        "alternating rounds with --src")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if args.against:
        against = os.path.abspath(args.against)
        runs = alternating(src, against, args.label)
        if not args.quick:
            runs["parent"]["tier1"] = tier1(against)
            runs[args.label]["tier1"] = tier1(src)
    else:
        sys.path.insert(0, src)
        files = glob.glob(os.path.join(src, "sspint", "*.py"))
        run = {
            "src_lines": sum(_line_count(f) for f in files),
            "quick": args.quick,
            "layers": layers(args.quick, src),
        }
        if not args.quick:
            run["tier1"] = tier1(src)
        runs = {args.label: run}
    if not args.out:
        print(json.dumps({"machine": machine(), **runs}, indent=2))
        return 0
    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data["machine"] = machine()
    data.setdefault("runs", {}).update(runs)
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
