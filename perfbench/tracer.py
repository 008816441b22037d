"""Outside-in tracing of sspint: wrappers installed from the benchmark's
own code, so no file of the package changes.

Every wrapped public function records a span (run id, span id, parent
span id, name, start, end) in memory; counters record work done at the
same boundaries.  The NumPy entry points the package calls are counted
through a stand-in for the ``np`` name in each sspint module: FFT calls,
and matrix-vector products with dense operators built by
``spatial.upwind_matrix``.  Wrappers never change an argument's value or
a result, so a traced run must write the same outputs as an untraced one.
"""

import dataclasses
import functools
import gzip
import inspect
import json
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

#: (module, attribute path) of every wrapped function.  A name missing
#: from the package is skipped, so the per-layer metric reads 0.
TARGETS = (
    ("tableau", "order_residuals"),
    ("ssp_radius", "ssp_radius"),
    ("ssp_radius", "is_absolutely_monotonic"),
    ("ssp_radius", "observed_l2_cfl"),
    ("methods", "get"),
    ("expm", "expm"),
    ("expm", "build_cache"),
    ("expm", "ExpCache.apply"),
    ("integrators", "make_plan"),
    ("integrators", "rk_step"),
    ("integrators", "ifrk_step"),
    ("integrators", "ifrk_step_general"),
    ("integrators", "integrate"),
    ("spatial", "upwind_matrix"),
    ("spatial", "weno5_burgers_rhs"),
    ("spatial", "make_problem"),
    ("analysis", "total_variation"),
    ("analysis", "tv_trace"),
    ("analysis", "max_tv_rise"),
    ("analysis", "observed_tvd_lambda"),
    ("analysis", "lambda_sweep"),
    ("optimizer", "least_squares"),
    ("optimizer", "optimize"),
    ("optimizer", "verify_certificate"),
    ("cli", "main"),
    ("cli", "write_csv"),
    ("cli", "van_der_pol_reference"),
)

FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")

#: feasibility tolerance of the optimizer's inner solve, used when the
#: package does not expose it.
_FEAS_TOL_DEFAULT = 1e-10


class Tracer:
    def __init__(self, run_id, clock_ns=time.perf_counter_ns):
        self.run_id = run_id
        self.clock_ns = clock_ns
        self.spans = []  # (span id, parent id, name, start ns, end ns)
        self.counts = Counter()
        self._stack = [0]
        self._next_id = 1

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recording a span; ``before(bound)`` may replace arguments
        by equivalent callables, ``after(result, bound)`` counts."""
        sig = inspect.signature(fn) if before is not None else None
        clock = self.clock_ns
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                before(bound)
                args, kwargs = bound.args, bound.kwargs
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if after is not None:
                after(result, bound)
            return result

        return wrapper

    def count(self, name, n=1):
        self.counts[name] += n

    def aggregate(self):
        """Per-name calls, total and self time; self time is a span's
        duration minus the time its child spans cover."""
        covered = defaultdict(int)
        for sid, parent, _, start, end in self.spans:
            covered[parent] += end - start
        ids = {s[0] for s in self.spans}
        calls, self_ns = Counter(), Counter()
        bad_parents = 0
        min_self = None
        for sid, parent, name, start, end in self.spans:
            own = end - start - covered.get(sid, 0)
            calls[name] += 1
            self_ns[name] += own
            min_self = own if min_self is None else min(min_self, own)
            if parent != 0 and parent not in ids:
                bad_parents += 1
        return {
            "calls": dict(calls),
            "self_s": {k: v * 1e-9 for k, v in self_ns.items()},
            "counts": dict(self.counts),
            "spans": len(self.spans),
            "bad_parents": bad_parents,
            "min_self_ns": min_self if min_self is not None else 0,
        }

    def write(self, path):
        """All spans as gzipped JSON lines, in order of completion."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run_id": self.run_id, "id": sid,
                                     "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}))
                fh.write("\n")


class CountedOperator(np.ndarray):
    """A dense operator whose matrix-vector products are counted.

    Values and results are those of the plain array; only the class
    marks the operator, and elementwise results of the operator's shape
    (``lam * M``) keep the mark so scaled copies are counted too.
    """

    tracer = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, CountedOperator) else x
                 for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(
                o.view(np.ndarray) if isinstance(o, CountedOperator) else o
                for o in kwargs["out"]
            )
        result = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.matmul:
            a, b = inputs[0], inputs[1]
            if (isinstance(a, CountedOperator) and a.ndim == 2
                    and np.ndim(b) == 1 and self.tracer is not None):
                self.tracer.count("kernel.dense_matvec.calls")
                self.tracer.count("kernel.dense_matvec.bytes", a.size * a.itemsize)
            return result
        if (method == "__call__" and self.ndim == 2
                and isinstance(result, np.ndarray)
                and result.shape == self.shape and result.dtype == np.float64):
            return result.view(CountedOperator)
        return result


def _kernel_numpy(tracer):
    """A stand-in for the ``numpy`` module that counts FFT calls and keeps
    the CountedOperator mark through ``np.asarray``."""
    fft = types.ModuleType("numpy.fft")
    fft.__dict__.update(np.fft.__dict__)
    for name in FFT_FUNCTIONS:
        fft.__dict__[name] = _counting(tracer, getattr(np.fft, name))
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(np.__dict__)
    proxy.fft = fft

    def asarray(a, *args, **kwargs):
        out = np.asarray(a, *args, **kwargs)
        if isinstance(a, CountedOperator) and out.ndim == 2:
            return out.view(CountedOperator)
        return out

    proxy.asarray = asarray
    return proxy


def _counting(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count("kernel.fft.calls")
        return fn(*args, **kwargs)

    return wrapper


def _replace_everywhere(modules, old, new):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer):
    """Wrap every target in every loaded sspint module.  Call after
    ``import sspint.cli`` and before any work."""
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "sspint" or n.startswith("sspint.")) and m is not None]
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    CountedOperator.tracer = tracer
    feas_tol = getattr(by_name.get("optimizer"), "_FEAS_TOL", _FEAS_TOL_DEFAULT)

    def count_stages(bound):
        obs = bound.arguments.get("obs")
        if obs is not None:
            def counted(*a):
                tracer.count("integrators.stages")
                return obs(*a)
            bound.arguments["obs"] = counted

    def traced_system(result, bound):
        # make_problem returns (system, u0); the system's nonlinear
        # callback gets a span of its own.
        sys_ = result[0]
        if dataclasses.is_dataclass(sys_) and hasattr(sys_, "N"):
            object.__setattr__(sys_, "N", tracer.wrap("spatial.N", sys_.N))

    def count_nonfinite(result, bound):
        if result == float("inf"):
            tracer.count("analysis.max_tv_rise.nonfinite")

    def count_path(result, bound):
        if getattr(result, "circulant", False):
            tracer.count("expm.build_cache.fft_path")

    def count_solve(result, bound):
        tracer.count("optimizer.nfev", int(getattr(result, "nfev", 0)))
        tracer.count("optimizer.starts")
        if np.abs(result.fun).max() < feas_tol:
            tracer.count("optimizer.feasible_starts")

    hooks = {
        "integrators.integrate": {"before": count_stages},
        "spatial.make_problem": {"after": traced_system},
        "analysis.max_tv_rise": {"after": count_nonfinite},
        "expm.build_cache": {"after": count_path},
        "optimizer.least_squares": {"after": count_solve},
    }

    for modname, path in TARGETS:
        mod = by_name.get(modname)
        if mod is None:
            continue
        owner, _, attr = path.rpartition(".")
        holder = getattr(mod, owner, None) if owner else mod
        fn = getattr(holder, attr, None) if holder is not None else None
        if fn is None:
            continue
        name = f"{modname}.{path}"
        if name == "spatial.upwind_matrix":
            wrapped = _marking(tracer.wrap(name, fn))
        else:
            wrapped = tracer.wrap(name, fn, **hooks.get(name, {}))
        if owner:
            setattr(holder, attr, wrapped)
        else:
            _replace_everywhere(modules, fn, wrapped)

    proxy = _kernel_numpy(tracer)
    for mod in modules:
        if vars(mod).get("np") is np:
            mod.np = proxy


def _marking(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs).view(CountedOperator)

    return wrapper
