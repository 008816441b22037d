"""Search for explicit SSP Runge-Kutta coefficients maximizing the SSP
coefficient, optionally under the non-decreasing-abscissa constraint.

Each start is one nonlinear program over x = (theta, r), theta holding the
strictly lower part of S = [[A, 0], [b^T, 0]] row by row: maximize r subject
to the order conditions and to (I + rS)^{-1} e >= 0, r (I + rS)^{-1} S >= 0
and, if requested, abscissa ordering, solved by SLSQP with exact Jacobians
(Ketcheson, SISC 30(4), 2008) and every index layout built once per problem.
The order conditions' Jacobian is one complex step (Squire and Trapp, SIAM
Review 40(1), 1998) over a batch of all n + 1 rows, and the monotonicity
Jacobian reuses the inverse of the x just evaluated.
Only a start that can win is certified: one probe of absolute monotonicity
(``ssp_radius.exceeds``) tells whether its radius passes the best so far, and
only then is it re-certified by the radius computation and
``methods.verify_certificate`` (re-exported here).  A start that
``ButcherTableau`` rejects (a non-finite entry or sum(b) != 1), or whose
callbacks meet a singular I + rS, fails; the best certified start wins.
Restarts stop once a start certifies within BOUND_GAP of the linear bound
R_lin(s, p), which no method can pass (``ssp_radius.linear_bound``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import ConfigError, NotFound, SingularTransform
from .methods import (FAMILY_CLASSIC, FAMILY_PLUS, CertificateReport,  # re-exported
                      MethodRecord, verify_certificate)
from .ssp_radius import exceeds, linear_bound, ssp_radius
from .tableau import _ORDER_CONDITIONS, ButcherTableau

_BOUND = 2.0
_R0 = 0.1
#: a gap R_lin(s, p) - C this small is optimal: restarts stop, and no shortfall is printed.
BOUND_GAP = 1e-9


@dataclass(frozen=True)
class OptimizationSpec:
    stages: int
    order: int
    require_nondecreasing: bool = True
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.order <= 4:
            raise ConfigError("order must be in 1..4")
        if self.stages < self.order:
            raise ConfigError("stages must be >= order")
        if self.order == 4 and self.stages < 5:
            raise ConfigError("no explicit four-stage fourth-order SSP method exists")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def _start(rng: np.random.Generator, s: int) -> np.ndarray:
    """A uniform(0, 1) draw of theta with row i of [[A, 0], [b^T, 0]]
    rescaled to sum to i/s: evenly spaced abscissas and sum(b) = 1."""
    row = np.tril_indices(s + 1, -1)[0]
    theta = rng.uniform(0.0, 1.0, len(row))
    return theta * row / s / np.bincount(row, theta)[row]


def _problem(spec: OptimizationSpec):
    """Objective, constraints (with exact Jacobians) and bounds of the
    max-r program over x = (theta, r), its constants built once."""
    s = spec.stages
    conditions = [fn for _, order, fn in _ORDER_CONDITIONS if order <= spec.order]
    K, L = np.tril_indices(s + 1, -1)  # theta[m] is S[K[m], L[m]]
    n = len(K)
    eye, KK, LL, steps = np.eye(s + 1), np.ix_(K, K), np.ix_(L, L), 1e-30j * np.eye(n + 1)

    def stacked(x):
        S = np.zeros(x.shape[:-1] + (s + 1, s + 1), x.dtype)
        S[..., K, L] = x[..., :-1]
        return S

    def order_conditions(x):  # one column per row of a batch of x
        S = stacked(x)
        A, b = S[..., :s, :s], S[..., s, :s]
        return np.array([fn(A, b, A.sum(axis=-1)) for fn in conditions])

    def order_jacobian(x):
        # complex step over n + 1 rows in one batch: exact derivatives
        return order_conditions(x + steps).imag / 1e-30

    last = [b"", None]  # SLSQP asks for monotonicity_jacobian at the x it just evaluated

    def transform(x):
        if x.tobytes() != last[0]:
            r, S = x[-1], stacked(x)
            R = np.linalg.inv(eye + r * S)
            last[:] = x.tobytes(), (r, R, R @ S)
        return last[1]

    def monotonicity(x):
        r, R, RS = transform(x)
        return np.concatenate([R.sum(axis=1), r * RS[K, L]])

    def monotonicity_jacobian(x):
        # dR = -R d(rS) R, with d(rS)/dtheta_m = r at (K[m], L[m])
        r, R, RS = transform(x)
        v = R.sum(axis=1)
        dv = np.column_stack([-r * R[:, K] * v[L], -RS @ v])
        dP = np.column_stack([r * R[KK] * R[LL].T, (RS @ R)[K, L]])
        return np.vstack([dv, dP])

    constraints = [
        {"type": "eq", "fun": order_conditions, "jac": order_jacobian},
        {"type": "ineq", "fun": monotonicity, "jac": monotonicity_jacobian},
    ]
    if spec.require_nondecreasing:
        # linear in x: diff(c) >= 0, 1 - c_s >= 0 and c >= 0, with c = dc @ x
        dc = np.eye(s + 1)[:s, np.append(K, s)]  # 1 where x[m] lies in row i of A
        G = np.vstack([np.diff(dc, axis=0), -dc[-1:], dc])
        g = np.eye(len(G))[s - 1]
        constraints.append({"type": "ineq", "fun": lambda x: G @ x + g,
                            "jac": lambda x: G})
    grad = -np.eye(n + 1)[n]
    bounds = [(-_BOUND, _BOUND)] * n + [(0.0, 2.0 * s)]
    return (lambda x: -x[-1]), (lambda x: grad), constraints, bounds


def _certified(spec: OptimizationSpec, theta: np.ndarray,
               above: float | None = None) -> MethodRecord | None:
    """The record of this tableau if it certifies, with a radius above
    ``above`` when one is given (a radius ``ssp_radius`` returned), else None."""
    s = spec.stages
    S = np.zeros((s + 1, s + 1))
    S[np.tril_indices(s + 1, -1)] = theta
    plus = spec.require_nondecreasing
    try:
        t = ButcherTableau.from_arrays(S[:s, :s], S[s, :s], order=spec.order,
                                       name=f"opt{'+' * plus}({s},{spec.order})")
    except ValueError:  # the solve left a non-finite entry or sum(b) = 1 unmet
        return None
    try:
        if above is not None and not exceeds(t, above):
            return None
        rec = MethodRecord(
            tableau=t,
            shu_osher=None,
            claimed_C=ssp_radius(t).radius,
            family=FAMILY_PLUS if plus else FAMILY_CLASSIC,
            citation=f"numerical search (seed={spec.seed}, restarts={spec.restarts})",
        )
        return rec if verify_certificate(rec).ok else None
    except SingularTransform:
        return None


def optimize(spec: OptimizationSpec) -> MethodRecord:
    """Maximize the SSP coefficient over s-stage order-p explicit methods.

    Runs one constrained solve per start, until a start certifies within
    BOUND_GAP of R_lin(s, p), and raises NotFound if no start certifies.
    The returned record's claimed coefficient is the radius re-certified
    from the final tableau alone, never the raw search value; ties go to
    the earliest start.
    """
    fun, jac, constraints, bounds = _problem(spec)
    rng = np.random.default_rng(spec.seed)
    bound = linear_bound(spec.stages, spec.order)
    best = None
    for _ in range(spec.restarts):
        x0 = np.append(_start(rng, spec.stages), _R0)
        try:
            sol = minimize(fun, x0, jac=jac, method="SLSQP", bounds=bounds,
                           constraints=constraints,
                           options={"maxiter": 500, "ftol": 1e-12})
        except np.linalg.LinAlgError:  # LAPACK called an iterate's I + rS singular
            continue
        rec = _certified(spec, sol.x[:-1], None if best is None else best.claimed_C)
        if rec is not None:
            best = rec
            if best.claimed_C >= bound - BOUND_GAP:
                break
    if best is None:
        raise NotFound(
            f"no {spec.stages}-stage order-{spec.order} tableau certified "
            f"after {spec.restarts} restarts"
        )
    return best
