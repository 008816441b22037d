"""Total-variation monitoring, observed-TVD bisection, lambda sweeps,
convergence-slope estimation, and the van der Pol convergence test.

A "stepper builder" is a callable ``build(sys, dt)`` returning a one-step
map ``stepper(u, obs)``; the builders here return ``step`` of a plan made
for (sys, dt), plain Runge-Kutta or integrating-factor.  When ``sys.L`` is
a ``Circulant``, a builder also steps a batch with a column of step sizes,
one row per step size, and ``max_tv_rises`` runs lambdas in such batches:
real-FFT rows when sys is ``spectral``, else physical."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import methods, spatial
from .errors import NonFinite
from .expm import Circulant, Spectral
from .integrators import (
    SemiDiscretization,
    Stepper,
    _check_finite,
    _state,
    integrate,
    make_general_plan,
    make_plan,
    rk_plan,
    shu_osher_form,
    spectral,
    step,
)
from .methods import MethodRecord
from .ssp_radius import _bisect, _check_bracket
from .tableau import ShuOsherForm

#: TV-rise detection threshold: well above accumulated roundoff
#: (~1e-13 for n=1000 over 10 steps) and well below genuine oscillations.
DEFAULT_THRESHOLD = 1e-10

#: bisection resolution in lambda for the observed TVD coefficient.
BISECTION_WIDTH = 1e-3

#: pre-scan grid size used to bracket the TV-rise transition.
PRESCAN_POINTS = 50

#: floor applied before taking log10 of a rise for plot output.
LOG_FLOOR = 1e-300

#: end time of the van der Pol convergence runs (ex1).
VAN_DER_POL_T = 0.5
#: ex1's reference: van_der_pol_reference() at dt = 1e-5, T = VAN_DER_POL_T, from (2, 0).
VAN_DER_POL_REFERENCE = (float.fromhex("0x1.d674c41aa053cp+0"),
                         float.fromhex("-0x1.11ad0ec0f45fep-1"))

#: largest k * n a batched scan steps at once (k lambdas, n grid points);
#: a larger pre-scan or sweep runs in chunks of at most this many elements.
BATCH_ELEMENTS = 4096

StepperBuilder = Callable[[SemiDiscretization, float], Stepper]


def ifrk_builder(method: MethodRecord) -> StepperBuilder:
    """Stepper builder for the integrating-factor form of a method."""
    return lambda sys, dt: partial(step, make_plan(method, sys, dt), sys.N)


def ifrk_general_builder(method: MethodRecord) -> StepperBuilder:
    """Integrating-factor stepper builder without the abscissa-ordering
    restriction: the path for small dense systems and for
    decreasing-abscissa counterexamples."""
    so, c = shu_osher_form(method), method.tableau.c
    return lambda sys, dt: partial(step, make_general_plan(so, c, sys, dt), sys.N)


def rk_builder(method: MethodRecord) -> StepperBuilder:
    """Stepper builder applying the method as a plain Runge-Kutta scheme
    to the combined right-hand side L u + N(u)."""
    so = shu_osher_form(method)
    return lambda sys, dt: partial(step, rk_plan(so, dt), lambda u: sys.L @ u + sys.N(u))


def total_variation(u: np.ndarray):
    """Periodic TV semi-norm sum_i |u_{i+1} - u_i|, one per row of a batch.
    Rows are summed in C order, so each row's sum is bitwise that of the
    row alone (NumPy sums a strided axis in another order)."""
    u = np.ascontiguousarray(u, dtype=float)
    return _total_variation(u, np.empty(u.shape))


def _total_variation(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``total_variation`` of C-order float u through d, a C-order buffer
    of u's shape: one subtraction over the flattened batch, whose first
    difference in each row is then overwritten by the periodic one."""
    flat, diffs = u.reshape(-1), d.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=diffs[1:])
    np.subtract(u[..., :1], u[..., -1:], out=d[..., :1])
    return np.abs(d, out=d).sum(axis=-1)


@dataclass(frozen=True)
class TvTrace:
    """Total variation of every observed stage, in observation order."""

    values: Tuple[float, ...]

    @property
    def max_rise(self) -> float:
        """Largest stage-to-stage TV increase, clamped at 0, as
        ``max_tv_rises`` takes it."""
        return float(np.diff(self.values).max(initial=0.0))


@dataclass(frozen=True)
class ObservedCoefficient:
    lambda_obs: float
    threshold: float
    bisection_width: float


@dataclass(frozen=True)
class SweepRecord:
    lam: float
    max_rise: float
    log10_rise: float


def tv_trace(build: StepperBuilder, sys: SemiDiscretization, u0: np.ndarray,
             lam: float, n_steps: int) -> TvTrace:
    """Run n_steps at dt = lam * dx and record the TV of every stage."""
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises NonFinite
        return TvTrace(tuple(_stage_tvs(build(sys, lam * sys.dx), u0, n_steps, sys.n)))


def _stage_tvs(stepper: Stepper, u: np.ndarray, n_steps: int, n: int,
               threshold: Optional[float] = None) -> np.ndarray:
    """The TV of every stage of n_steps from u, in observation order, one
    column per row of a (k, n) batch; a non-finite TV raises ``NonFinite``.
    Complex u is a (k, n // 2 + 1) batch of real-FFT coefficients, where L
    and N multiply: one step from ones gives the stage gains G, stacked
    (s, *u.shape), so the stages of a step from u are G * u, one multiply
    observed by one batched irfft and one TV, into (s, k, .) buffers
    allocated once per call.  Given a threshold, the TVs end with the step
    in which row 0's rise first exceeds it, and no later step runs, on
    either form.  A negative n_steps is a ValueError."""
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if not np.iscomplexobj(u):
        u, values = _state(u), []

        def observe(v):
            values.append(total_variation(v))

        observe(u)
        for _ in range(n_steps):
            first = len(values)
            u = stepper(u, observe)
            if threshold is not None and np.diff(  # row 0 over this step
                    [np.ravel(tv)[0] for tv in values[first - 1:]]).max() > threshold:
                break
        tvs = np.array(values)
        _check_finite(tvs, "a stage")
        return tvs
    rows = []
    stepper(np.ones_like(u), rows.append)
    G = np.stack(rows)
    s = len(G)
    # NumPy copies the u that a step reads from the stage buffer it writes
    V, X = np.empty_like(G), np.empty(G.shape[:-1] + (n,))
    D = np.empty_like(X)
    tvs = np.empty((1 + n_steps * s,) + u.shape[:-1])
    tvs[0] = _total_variation(np.fft.irfft(u, n, out=X[0]), D[0])
    for t in range(n_steps):
        first = 1 + t * s
        np.multiply(G, u, out=V)
        tvs[first:first + s] = _total_variation(np.fft.irfft(V, n, out=X), D)
        _check_finite(tvs[first:first + s], "a stage")
        u = V[-1]
        if threshold is not None and np.diff(tvs[first - 1:first + s, 0]).max() > threshold:
            return tvs[:first + s]
    return tvs


def max_tv_rise(build: StepperBuilder, sys: SemiDiscretization, u0: np.ndarray,
                lam: float, n_steps: int) -> float:
    """Maximal TV increase over consecutive observed stages (including
    step boundaries), clamped at 0; a non-finite run counts as +inf, and a
    non-finite operator raises.  ``max_tv_rises`` of one lambda."""
    return float(max_tv_rises(build, sys, u0, [lam], n_steps)[0])


def _rise_chunks(build: StepperBuilder, sys: SemiDiscretization, u0: np.ndarray,
                 lams: np.ndarray, n_steps: int, threshold: Optional[float] = None):
    """(start, rises) for consecutive chunks of lams, lazily; the one place
    that decides how lambdas run, by the form of sys.L.  A ``Spectral`` L
    steps a chunk of real-FFT rows by stage gains, any other ``Circulant``
    a chunk of physical rows, each of at most BATCH_ELEMENTS elements;
    otherwise a chunk is one lambda on physical values.  A chunk that
    turns non-finite is re-run one lambda at a time, each yielded as it
    ends.  Given a threshold, as a search gives it, a chunk whose first
    lambda crosses ends with that step (``_stage_tvs``); the rises of
    every other chunk are exact."""
    batched = isinstance(sys.L, Circulant)
    size = max(1, BATCH_ELEMENTS // sys.n) if batched else 1
    row = np.fft.rfft(u0) if isinstance(sys.L, Spectral) else u0
    for start in range(0, len(lams), size):
        part = lams[start:start + size]
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up reads inf
            if batched:  # one C-order row per lambda, so every stage is in C order too
                stepper = build(sys, part[:, None] * sys.dx)
                u = np.tile(row, (len(part), 1))
            else:
                stepper, u = build(sys, part[0] * sys.dx), u0
            try:  # a non-finite operator raised above, in the plan: not a rise
                tvs = _stage_tvs(stepper, u, n_steps, sys.n, threshold)
                rises = np.diff(tvs.reshape(len(tvs), -1), axis=0).max(axis=0, initial=0.0)
            except NonFinite:
                rises = np.inf if len(part) == 1 else None
        if rises is None:
            for j in range(len(part)):
                for _, one in _rise_chunks(build, sys, u0, part[j:j + 1], n_steps, threshold):
                    yield start + j, one
        else:
            yield start, np.where(part == 0.0, 0.0, rises)


def max_tv_rises(build: StepperBuilder, sys: SemiDiscretization, u0: np.ndarray,
                 lams: Sequence[float], n_steps: int) -> np.ndarray:
    """``max_tv_rise`` at every lambda, in the form ``_rise_chunks`` takes
    from sys."""
    lams = np.asarray(lams, dtype=float)
    chunks = _rise_chunks(build, sys, u0, lams, n_steps)
    return np.concatenate([np.empty(0)] + [rises for _, rises in chunks])


def prescan_bracket(build: StepperBuilder, sys: SemiDiscretization,
                    u0: np.ndarray, lambda_hi: float, n_steps: int,
                    threshold: float = DEFAULT_THRESHOLD,
                    ) -> Optional[Tuple[float, float]]:
    """(grid point before, first grid point whose rise exceeds threshold)
    on the pre-scan grid over (0, lambda_hi], or None, scanning
    ``spectral(sys) or sys`` up to the first crossing.  A rise is at least
    0, so a negative or NaN threshold is a ValueError; so are a lambda_hi
    that is not positive and finite, and fewer than one step, under which
    every lambda reads as TVD."""
    if not threshold >= 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold!r}")
    if not 0.0 < lambda_hi < np.inf:
        raise ValueError(f"lambda_hi must be positive and finite, got {lambda_hi!r}")
    if not n_steps >= 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps!r}")
    grid = np.linspace(lambda_hi / PRESCAN_POINTS, lambda_hi, PRESCAN_POINTS)
    for start, rises in _rise_chunks(build, spectral(sys) or sys, u0, grid, n_steps,
                                     threshold):
        above = np.flatnonzero(rises > threshold)
        if above.size:
            i = start + above[0]
            return (grid[i - 1] if i else 0.0, grid[i])
    return None


def observed_tvd_lambda(
    build: StepperBuilder,
    sys: SemiDiscretization,
    u0: np.ndarray,
    lambda_hi: float,
    n_steps: int,
    threshold: float = DEFAULT_THRESHOLD,
    width: float = BISECTION_WIDTH,
) -> ObservedCoefficient:
    """Largest lambda at which the maximal stage TV rise stays below the
    detection threshold.

    A 50-point pre-scan over (0, lambda_hi] brackets the first threshold
    crossing (``prescan_bracket``); bisection then refines it to the
    requested width, one lambda at a time, both on ``spectral(sys) or
    sys``, where a run ends with the step in which its first lambda
    crosses.  If no grid point crosses, lambda_hi itself is returned; if
    the very first grid point already exceeds the threshold the bracket
    starts at 0.  A lambda_hi or width that is not positive and finite, or
    fewer than one step, is a ValueError, before any step."""
    _check_bracket(0.0, lambda_hi, width)
    scan = spectral(sys) or sys
    crossing = prescan_bracket(build, scan, u0, lambda_hi, n_steps, threshold)
    if crossing is None:
        return ObservedCoefficient(float(lambda_hi), threshold, width)
    lo, hi = _bisect(
        lambda mid: next(_rise_chunks(build, scan, u0, np.array([mid]), n_steps,
                                      threshold))[1][0] <= threshold,
        *crossing, width)
    return ObservedCoefficient(float(0.5 * (lo + hi)), threshold, width)


def lambda_sweep(
    build: StepperBuilder,
    sys: SemiDiscretization,
    u0: np.ndarray,
    lambdas: Sequence[float],
    n_steps: int,
) -> List[SweepRecord]:
    """One (lambda, max_rise, log10 rise) record per requested lambda,
    from ``max_tv_rises`` on sys as given."""
    lams = np.asarray(lambdas, dtype=float)
    rises = max_tv_rises(build, sys, u0, lams, n_steps)
    return [SweepRecord(float(lam), float(r), float(np.log10(max(r, LOG_FLOOR))))
            for lam, r in zip(lams, rises)]


def sweep_transition(records: Sequence[SweepRecord], threshold: float) -> Optional[float]:
    """First swept lambda whose rise exceeds the threshold, or None."""
    for rec in records:
        if rec.max_rise > threshold:
            return rec.lam
    return None


def convergence_slope(errors: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log(err) against log(dt)."""
    if len(errors) < 3:
        raise ValueError("need at least 3 (dt, error) points")
    dts = np.array([e[0] for e in errors], dtype=float)
    errs = np.array([e[1] for e in errors], dtype=float)
    if not ((dts > 0).all() and (errs > 0).all() and np.isfinite([dts, errs]).all()):
        raise ValueError("dt and error values must be positive and finite")
    slope, _ = np.polyfit(np.log(dts), np.log(errs), 1)
    return float(slope)


def _rk2_steps(so: ShuOsherForm, rhs: Callable[[float, float], Tuple[float, float]],
               u0, dt: float, n_steps: int) -> Tuple[float, float]:
    """n_steps of ``rk_step(so, F, u, dt)``, F(u) = rhs(u[0], u[1]), on two
    Python floats: the plan loop's products and sums in its order, so its
    bits and its ``NonFinite``, without NumPy's per-call cost on 2-vectors.
    An OverflowError of rhs (Python's float power, where NumPy's gives inf)
    makes that slope NaN, so the first stage using it raises as there."""
    rows = [None] + [[(j, a, dt * b if b != 0.0 else None) for j, a, b in terms]
                     for terms in so.terms]
    explicit = so.explicit
    stages, slopes = [None] * len(rows), [None] * len(rows)
    x, y = float(u0[0]), float(u0[1])
    for _ in range(n_steps):
        for i, terms in enumerate(rows):
            if i:  # stage 0 is the state itself
                x = y = 0.0
                for j, a, db in terms:
                    sx, sy = stages[j]
                    tx, ty = a * sx, a * sy
                    if db is not None:
                        fx, fy = slopes[j]
                        tx, ty = tx + db * fx, ty + db * fy
                    x, y = x + tx, y + ty
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise NonFinite(f"stage {i} contains NaN or Inf")
            stages[i] = x, y
            if explicit[i]:
                try:
                    slopes[i] = rhs(x, y)
                except OverflowError:
                    slopes[i] = math.nan, math.nan
    return x, y


def van_der_pol_reference(dt: float = 1e-5, T: float = VAN_DER_POL_T) -> np.ndarray:
    """High-resolution plain Runge-Kutta reference solution at time T:
    eSSPRK(10,4) from (2, 0), n = max(1, round(T / dt)) steps of T / n,
    stepped on two floats (``_rk2_steps``)."""
    n = _steps_to(T, dt)
    so = shu_osher_form(methods.get("eSSPRK(10,4)"))
    return np.array(_rk2_steps(so, spatial.van_der_pol_rhs, (2.0, 0.0), T / n, n))


def _steps_to(T: float, dt: float) -> int:
    """n = max(1, round(T / dt)), the step count of a step size dt that
    is positive and finite."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    return max(1, round(T / dt))


def van_der_pol_errors(rec, splitting: str, dts, uref, T: float = VAN_DER_POL_T):
    """(dt, max-norm error) pairs; each dt is adjusted to T / n, with the
    reference's step count n = max(1, round(T / dt))."""
    sys_, u0 = spatial.make_problem(spatial.VAN_DER_POL, splitting=splitting)
    build = ifrk_general_builder(rec)
    out = []
    for dt in dts:
        n = _steps_to(T, dt)
        dta = T / n
        u = integrate(build(sys_, dta), u0, n)
        out.append((dta, float(np.abs(u - uref).max())))
    return out
