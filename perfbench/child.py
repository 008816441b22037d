"""One invocation in a fresh interpreter: the benchmark's unit of work.

Usage: python3 child.py SPEC.json

SPEC names the invocation (see workloads.py), an empty output directory,
whether to trace, and where to write the result JSON.  Set-up is
``import sspint.cli`` plus the first ``methods.get``, which builds and
self-checks the method registry; it is timed apart from the invocation.
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _blas_threads():
    """OpenBLAS thread count of every OpenBLAS library loaded here."""
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
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _environment():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "SSPINT_THREADS": os.environ.get("SSPINT_THREADS"),
    }


class SpeedGauge:
    """Samples how fast this machine runs while an invocation runs.

    Inside ``with gauge:``, every PERIOD seconds a SIGALRM handler times a
    fixed mix of interpreter and small NumPy work.  The handler touches only
    its own arrays.  ``clock_ns`` is a clock that stands still while the
    handler runs, so the gauge's own time is in no measurement.
    """

    PERIOD = 0.2
    ROUNDS = 60

    def __init__(self):
        import numpy as np

        self.np = np
        self.v = np.cos(np.arange(1000.0))
        self.m = np.eye(5) + 0.1 * np.outer(self.v[:5], self.v[5:10])
        self.samples = []
        self.spent_ns = 0
        self._sampling = False
        self._work(self.ROUNDS)  # warm up

    def clock_ns(self):
        # A sample that runs between reading the counter and reading
        # spent_ns would step the clock back by the sample's length and
        # give a span negative self time; read again until none came
        # between.
        while True:
            spent = self.spent_ns
            now = time.perf_counter_ns()
            if self.spent_ns == spent:
                return now - spent

    def _work(self, rounds):
        np, acc = self.np, 0.0
        for _ in range(rounds):
            w = np.fft.ifft(np.fft.fft(self.v)).real
            acc += float(np.abs(w - np.roll(w, 1)).sum())
            acc += float(np.linalg.solve(self.m, self.v[:5]).sum())
            u = self.v[:2]
            for i in range(20):
                u = np.array([u[1], -u[0] + 0.5 * u[1]])
            acc += float(u[0])
        return acc

    def _sample(self, signum, frame):
        if self._sampling:  # a sample longer than PERIOD: skip, not nest
            return
        self._sampling = True
        start = time.perf_counter_ns()
        self._work(self.ROUNDS)
        took = time.perf_counter_ns() - start
        self.samples.append(took * 1e-9)
        self.spent_ns += took
        self._sampling = False

    def mean_s(self):
        if not self.samples:  # an invocation shorter than PERIOD
            self._sample(None, None)
        return sum(self.samples) / len(self.samples)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def _run_cli(inv, outdir):
    from sspint import cli

    argv = inv["argv"]
    if argv[0] == "optimize":
        argv = argv + ["--out", os.path.join(outdir, "optimized.json")]
    else:
        argv = argv + ["--out", outdir]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _run_l2cfl(inv, outdir):
    """The L2-CFL probe of eSSPRK(3,3) as table8-partial runs it, with the
    workload seed for the probe's random start vector."""
    from sspint import methods, spatial
    from sspint.ssp_radius import observed_l2_cfl

    grid = spatial.Grid1D(inv["n"])
    M = spatial.upwind_matrix(grid, 11.0) * grid.dx
    value = observed_l2_cfl(methods.get("eSSPRK(3,3)").tableau, M, 0.2,
                            inv["steps"], seed=inv["seed"])
    with open(os.path.join(outdir, "l2cfl.json"), "w") as fh:
        json.dump({"seed": inv["seed"], "l2_cfl": value}, fh)
    return 0


RUNNERS = {"cli": _run_cli, "l2cfl": _run_l2cfl, "setup": lambda inv, out: 0}


def _certificate(outdir):
    """Re-verify an optimizer result from its JSON alone."""
    from sspint.methods import MethodRecord
    from sspint.optimizer import verify_certificate
    from sspint.tableau import ButcherTableau

    with open(os.path.join(outdir, "optimized.json")) as fh:
        data = json.load(fh)
    rec = MethodRecord(tableau=ButcherTableau.from_json_dict(data),
                       shu_osher=None, claimed_C=data["claimed_C"],
                       family=data["family"], citation="")
    report = verify_certificate(rec)
    return {"ok": report.ok, "violations": list(report.violations),
            "C": data["claimed_C"]}


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    inv, outdir = spec["invocation"], spec["outdir"]
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import sspint.cli  # noqa: F401  (what the sspint command imports)
    from sspint import methods

    import_s = time.perf_counter() - start
    gauge = SpeedGauge()
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(spec["run_id"], gauge.clock_ns)
        tracing.install(tracer)
    start = time.perf_counter()
    methods.get("eSSPRK(3,3)")
    registry_s = time.perf_counter() - start

    with gauge:
        start = gauge.clock_ns()
        rc = RUNNERS[inv["kind"]](inv, outdir)
        wall = (gauge.clock_ns() - start) * 1e-9

    result = {
        "rc": rc,
        "wall_s": wall,
        "import_s": import_s,
        "registry_s": registry_s,
        "setup_s": import_s + registry_s,
        "gauge_s": gauge.mean_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": {},
    }
    if tracer is not None:
        # before the re-verification below, which calls traced functions
        result["trace"] = tracer.aggregate()
        tracer.write(spec["trace_file"])
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name)) as fh:
            result["outputs"][name] = fh.read()
    if "optimized.json" in result["outputs"]:
        result["certificate"] = _certificate(outdir)
    if spec.get("env"):
        result["env"] = _environment()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
