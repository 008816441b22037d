"""Time steppers: one Shu-Osher stage loop, for integrating-factor RK and
for plain RK, which is the same step with every abscissa at 1.

The integrating-factor step evaluates

    u^(i) = sum_j e^(L (c_i - c_j) dt) (alpha[i,j] u^(j) + dt beta[i,j] N(u^(j)))

where stage abscissas come from the Butcher form and the output row acts
at abscissa 1.  Terms sharing the same exponential gap are grouped before
the (expensive) exponential is applied.  At gap 0 the exponential is the
identity: that group's sum is added as it is, and no cache holds gap 0.
The same loop runs on physical values or, for a ``spectral`` system, on
real-FFT coefficients.  On any L, a plan steps each row of a batch as
its own state, by one step size or one per row (a column), as ``rk_step``
does.  The loop evaluates the explicit term once per stage that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import NegativeGap, NonFinite
from .expm import Circulant, ExpCache, Spectral, build_cache, quantize_gap
from .methods import MethodRecord
from .tableau import ABSCISSA_TOL, ShuOsherForm, abscissas_nondecreasing

StageObserver = Callable[[np.ndarray], None]
"""Callback on each stage vector, in order; ``integrate`` observes the
initial state first, and the final combination of each step is observed as
its last stage.  Observers must not mutate the vector they receive."""

Stepper = Callable[[np.ndarray, Optional[StageObserver]], np.ndarray]
"""A one-step map ``stepper(u, obs)``: the next state, each stage observed."""


@dataclass(frozen=True)
class SemiDiscretization:
    """A method-of-lines system u_t = L u + N(u), L a Circulant or an
    ndarray, N a callable or a Circulant.  ``N_linear`` is N if that is a
    Circulant, else None: read from N once, never set, it outlives a wrapper
    put in N's place.  N acts on each row of a (k, n) batch alone, as lambda
    scans and ex1's step sizes ask.  L and N_linear must be n x n."""

    n: int
    L: object
    N: Callable[[np.ndarray], np.ndarray]
    dx: float
    N_linear: Optional[Circulant] = field(default=None, init=False)

    def __post_init__(self):
        object.__setattr__(self, "N_linear", self.N if isinstance(self.N, Circulant) else None)
        for name, op in (("L", self.L), ("N_linear", self.N_linear)):
            if op is not None and np.shape(op) != (self.n, self.n):
                raise ValueError(f"{name} must be n x n for n = {self.n}, got {np.shape(op)}")


def spectral(sys: SemiDiscretization) -> Optional[SemiDiscretization]:
    """The system on real-FFT coefficients, where L and N are
    multiplications: sys itself if L is ``Spectral``, else None unless
    both are Circulant."""
    if isinstance(sys.L, Spectral):
        return sys
    if not (isinstance(sys.L, Circulant) and isinstance(sys.N_linear, Circulant)):
        return None
    return replace(sys, L=sys.L.spectral(), N=sys.N_linear.spectral())


@dataclass(frozen=True)
class StepPlan:
    """An integrating-factor method bound to an operator and step size
    (a plain Runge-Kutta method bound to a step size, see ``rk_plan``).

    ``rows[i-1]`` holds Shu-Osher row i as (gap, terms) pairs: its nonzero
    (j, alpha_ij, dt beta_ij), None where beta_ij = 0, grouped by the
    quantized gap ceff_i - ceff_j in order of first appearance; stage i
    (1-based) sits at abscissa c_{i+1}, the output row at 1.  ``explicit[j]``
    says whether any row uses N of stage j.  The cache, keyed by the nonzero
    gaps the rows use, is None when every gap is 0."""

    rows: tuple
    explicit: tuple
    cache: Optional[ExpCache]


def _step_plan(so: ShuOsherForm, c, dt, L=None, tol: float = 0.0) -> StepPlan:
    """The one place gaps and dt beta are decided: a gap no lower than -tol
    counts as 0, each is quantized, and ``build_cache(L, dt, gaps)`` gets
    the nonzero gaps the rows use as its keys.  dt is a step size or a
    column of them, each nonnegative and finite."""
    dt = np.asarray(dt, dtype=float)
    if dt.ndim and (dt.ndim != 2 or dt.shape[1] != 1):
        raise ValueError(f"dt must be a step size or a (k, 1) column, got shape {dt.shape}")
    ok = np.isfinite(dt) & (dt >= 0)
    if not ok.all():
        raise ValueError(f"dt must be nonnegative and finite, got {dt[~ok].tolist()}")
    ceff = np.append(c, 1.0)
    rows = []
    for i, terms in enumerate(so.terms, 1):
        groups = {}
        for j, a, b in terms:
            g = ceff[i] - ceff[j]
            g = quantize_gap(0.0 if -tol <= g < 0 else g)
            groups.setdefault(g, []).append((j, a, dt * b if b != 0.0 else None))
        rows.append(tuple((g, tuple(t)) for g, t in groups.items()))
    gaps = {g for row in rows for g, _ in row} - {0.0}
    return StepPlan(tuple(rows), so.explicit, build_cache(L, dt, gaps) if gaps else None)


def shu_osher_form(method: MethodRecord | ShuOsherForm) -> ShuOsherForm:
    """The form a method steps: a record's ``shu_osher_form``, derived at
    most once per record, or the given form."""
    return method.shu_osher_form if isinstance(method, MethodRecord) else method


def make_plan(method: MethodRecord, sys: SemiDiscretization, dt: float) -> StepPlan:
    """An IFRK plan for a method of any family whose abscissas are
    non-decreasing by the rule ``verify_certificate`` certifies."""
    if not abscissas_nondecreasing(method.tableau):
        raise NegativeGap(
            f"{method.name} has decreasing abscissas; integrating-factor "
            "plans require non-decreasing abscissas"
        )
    return _step_plan(shu_osher_form(method), method.tableau.c, dt, sys.L, ABSCISSA_TOL)


def make_general_plan(so: ShuOsherForm, c, sys, dt: float) -> StepPlan:
    """An IFRK plan for arbitrary abscissa ordering: the counterexample
    path showing why decreasing abscissas break the SSP property, so
    negative gaps keep their sign."""
    return _step_plan(so, c, dt, sys.L)


def rk_plan(method: MethodRecord | ShuOsherForm, dt: float | np.ndarray) -> StepPlan:
    """A plain Runge-Kutta method as a plan: every abscissa at 1, so each
    row is one group at gap 0 and the plan has no cache."""
    so = shu_osher_form(method)
    return _step_plan(so, np.ones(so.stages), dt)


def _state(u) -> np.ndarray:
    """u as a float array; complex real-FFT coefficients stay complex."""
    return np.asarray(u, dtype=np.result_type(np.asarray(u), np.float64))


def _check_finite(u: np.ndarray, what: str):
    if not np.isfinite(u).all():
        raise NonFinite(f"{what} contains NaN or Inf")


def step(plan: StepPlan, N: Callable[[np.ndarray], np.ndarray], u: np.ndarray,
         obs: Optional[StageObserver] = None) -> np.ndarray:
    """One step of a plan, the one Shu-Osher stage loop: each row sums its
    groups from 0.0, applying the exponential of every nonzero gap to the
    sum of that gap's terms alpha u^(j) + (dt beta) N(u^(j)), and adding
    the sum at gap 0 as it is.  N is evaluated once per stage whose
    explicit term the plan uses, when the stage is formed."""
    u = _state(u)
    apply = plan.cache.apply if plan.cache is not None else None
    stages, slopes = [u], [N(u) if plan.explicit[0] else None]
    for i, groups in enumerate(plan.rows, 1):
        acc = 0.0
        for g, terms in groups:
            w = None
            for j, a, db in terms:
                term = stages[j] if a == 1.0 else a * stages[j]  # 1.0 * x is x
                if db is not None:
                    term = term + db * slopes[j]
                w = term if w is None else w + term
            acc = acc + (w if g == 0.0 else apply(g, w))
        if not np.isfinite(acc).all():
            raise NonFinite(f"stage {i} contains NaN or Inf")
        stages.append(acc)
        if obs is not None:
            obs(acc)
        slopes.append(N(acc) if plan.explicit[i] else None)
    return stages[-1]


def rk_step(method: MethodRecord | ShuOsherForm, F: Callable[[np.ndarray], np.ndarray],
            u: np.ndarray, dt: float | np.ndarray,
            obs: Optional[StageObserver] = None) -> np.ndarray:
    """One explicit Runge-Kutta step of u' = F(u): a step of ``rk_plan``.
    dt is a step size, or a column of step sizes for a (k, n) batch u, one
    row per step size."""
    return step(rk_plan(method, dt), F, u, obs)


def ifrk_step(plan: StepPlan, sys: SemiDiscretization, u: np.ndarray,
              obs: Optional[StageObserver] = None) -> np.ndarray:
    """One integrating-factor Runge-Kutta step of a plan for sys."""
    return step(plan, sys.N, u, obs)


def integrate(stepper: Stepper, u0: np.ndarray, n_steps: int,
              obs: Optional[StageObserver] = None) -> np.ndarray:
    """Apply a one-step map n_steps times; the observer sees the initial
    state and then every stage of every step."""
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    u = _state(u0)
    if obs is not None:
        obs(u)
    for _ in range(n_steps):
        u = stepper(u, obs)
    return u
