"""Total-variation monitoring, observed-TVD bisection, lambda sweeps, and
convergence-slope estimation.

A "stepper builder" is a callable ``build(sys, dt)`` returning a one-step
map ``step(u, obs, k)``; this keeps the measurement layer independent of
whether the step is plain Runge-Kutta or integrating-factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NonFinite
from .integrators import (
    SemiDiscretization,
    StageObserver,
    ifrk_step,
    integrate,
    make_general_plan,
    make_plan,
    rk_step,
    shu_osher_form,
)
from .methods import MethodRecord

#: TV-rise detection threshold: well above accumulated roundoff
#: (~1e-13 for n=1000 over 10 steps) and well below genuine oscillations.
DEFAULT_THRESHOLD = 1e-10

#: bisection resolution in lambda for the observed TVD coefficient.
BISECTION_WIDTH = 1e-3

#: pre-scan grid size used to bracket the TV-rise transition.
PRESCAN_POINTS = 50

#: floor applied before taking log10 of a rise for plot output.
LOG_FLOOR = 1e-300

StepperBuilder = Callable[[SemiDiscretization, float], Callable]


def _plan_builder(plan_for) -> StepperBuilder:
    def build(sys: SemiDiscretization, dt: float):
        plan = plan_for(sys, dt)

        def step(u, obs, k):
            return ifrk_step(plan, sys, u, obs, k)

        return step

    return build


def ifrk_builder(method: MethodRecord) -> StepperBuilder:
    """Stepper builder for the integrating-factor form of a method."""
    return _plan_builder(lambda sys, dt: make_plan(method, sys, dt))


def ifrk_general_builder(method: MethodRecord) -> StepperBuilder:
    """Integrating-factor stepper builder without the abscissa-ordering
    restriction: the path for small dense systems and for
    decreasing-abscissa counterexamples."""
    so, c = shu_osher_form(method), method.tableau.c
    return _plan_builder(lambda sys, dt: make_general_plan(so, c, sys, dt))


def rk_builder(method: MethodRecord) -> StepperBuilder:
    """Stepper builder applying the method as a plain Runge-Kutta scheme
    to the combined right-hand side L u + N(u)."""
    so = shu_osher_form(method)

    def build(sys: SemiDiscretization, dt: float):
        def F(u):
            return sys.L @ u + sys.N(u)

        def step(u, obs, k):
            return rk_step(so, F, u, dt, obs, k)

        return step

    return build


def total_variation(u: np.ndarray) -> float:
    """Periodic TV semi-norm sum_i |u_{i+1} - u_i|."""
    u = np.asarray(u, dtype=float)
    return float(np.abs(u - np.roll(u, 1)).sum())


@dataclass(frozen=True)
class TvTrace:
    """Total variation of every observed stage, in observation order."""

    values: Tuple[float, ...]

    @property
    def max_rise(self) -> float:
        """Largest stage-to-stage TV increase, clamped at 0."""
        if len(self.values) < 2:
            return 0.0
        return max(0.0, float(np.diff(self.values).max()))


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


def tv_trace(
    build: StepperBuilder,
    sys: SemiDiscretization,
    u0: np.ndarray,
    lam: float,
    n_steps: int,
) -> TvTrace:
    """Run n_steps at dt = lam * dx and record the TV of every stage."""
    values: List[float] = []

    def obs(k, i, u):
        values.append(total_variation(u))

    step = build(sys, lam * sys.dx)
    integrate(step, u0, n_steps, obs)
    return TvTrace(tuple(values))


def max_tv_rise(
    build: StepperBuilder,
    sys: SemiDiscretization,
    u0: np.ndarray,
    lam: float,
    n_steps: int,
) -> float:
    """Maximal TV increase over consecutive observed stages (including
    step boundaries), clamped at 0; a non-finite run counts as +inf."""
    if lam == 0.0:
        return 0.0
    try:
        return tv_trace(build, sys, u0, lam, n_steps).max_rise
    except NonFinite:
        return float("inf")


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
    crossing; bisection then refines it to the requested width.  If no
    grid point crosses, lambda_hi itself is returned; if the very first
    grid point already exceeds the threshold the bracket starts at 0.
    """

    def rise(lam):
        return max_tv_rise(build, sys, u0, lam, n_steps)

    grid = np.linspace(lambda_hi / PRESCAN_POINTS, lambda_hi, PRESCAN_POINTS)
    prev = 0.0
    crossing = None
    for lam in grid:
        if rise(lam) > threshold:
            crossing = (prev, lam)
            break
        prev = lam
    if crossing is None:
        return ObservedCoefficient(float(lambda_hi), threshold, width)
    lo, hi = crossing
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if rise(mid) > threshold:
            hi = mid
        else:
            lo = mid
    return ObservedCoefficient(float(0.5 * (lo + hi)), threshold, width)


def lambda_sweep(
    build: StepperBuilder,
    sys: SemiDiscretization,
    u0: np.ndarray,
    lambdas: Sequence[float],
    n_steps: int,
) -> List[SweepRecord]:
    """One (lambda, max_rise, log10 rise) record per requested lambda."""
    out = []
    for lam in lambdas:
        r = max_tv_rise(build, sys, u0, float(lam), n_steps)
        out.append(
            SweepRecord(float(lam), r, float(np.log10(max(r, LOG_FLOOR))))
        )
    return out


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
    if np.any(dts <= 0) or np.any(errs <= 0):
        raise ValueError("dt and error values must be positive")
    slope, _ = np.polyfit(np.log(dts), np.log(errs), 1)
    return float(slope)
