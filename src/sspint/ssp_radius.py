"""SSP coefficient (radius of absolute monotonicity) and linear stability."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularTransform
from .tableau import ButcherTableau

#: componentwise nonnegativity tolerance; absorbs the representation error
#: of printed decimal coefficients without admitting infeasible r.
NONNEG_TOL = 1e-12

#: condition-number estimate beyond which (I + rS) is treated as singular.
_COND_LIMIT = 1e14


@dataclass(frozen=True)
class CanonicalShuOsher:
    """Canonical transform data at parameter r."""

    r: float
    v: np.ndarray   # (I + rS)^(-1) e
    P: np.ndarray   # r (I + rS)^(-1) S
    S: np.ndarray   # stacked stage matrix [[A, 0], [b^T, 0]]


@dataclass(frozen=True)
class RadiusResult:
    radius: float
    feasible_form: CanonicalShuOsher
    bisection_width: float


def _stacked(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stacked stage matrix [[A, 0], [b^T, 0]]."""
    s = len(b)
    S = np.zeros((s + 1, s + 1))
    S[:s, :s] = A
    S[s, :s] = b
    return S


def canonical_form(t: ButcherTableau, r: float) -> CanonicalShuOsher:
    """Compute v = (I + rS)^(-1) e and P = r (I + rS)^(-1) S."""
    S = _stacked(t.A, t.b)
    M = np.eye(S.shape[0]) + r * S
    if np.linalg.cond(M, 1) > _COND_LIMIT:
        raise SingularTransform(f"(I + rS) is numerically singular at r = {r}")
    R = np.linalg.inv(M)
    v = R @ np.ones(S.shape[0])
    P = r * (R @ S)
    return CanonicalShuOsher(r=r, v=v, P=P, S=S)


def is_absolutely_monotonic(t: ButcherTableau, r: float, tol: float = NONNEG_TOL) -> bool:
    """True iff (I + rS)^(-1) e >= 0 and r (I + rS)^(-1) S >= 0
    componentwise (within tol)."""
    can = canonical_form(t, r)
    return bool(can.v.min() >= -tol and can.P.min() >= -tol)


def ssp_radius(t: ButcherTableau, width: float = 1e-10) -> RadiusResult:
    """SSP coefficient by bisection on absolute monotonicity over [0, 2s]."""
    hi = 2.0 * t.stages
    if not is_absolutely_monotonic(t, 0.0):
        return RadiusResult(0.0, canonical_form(t, 0.0), width)
    if is_absolutely_monotonic(t, hi):
        return RadiusResult(hi, canonical_form(t, hi), width)
    lo = 0.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if is_absolutely_monotonic(t, mid):
            lo = mid
        else:
            hi = mid
    return RadiusResult(lo, canonical_form(t, lo), width)


def observed_l2_cfl(
    t: ButcherTableau,
    M: np.ndarray,
    lambda_max: float,
    n_steps: int = 500,
    seed: int = 0,
) -> float:
    """Largest lambda <= lambda_max for which stepping u' = lambda*M*u
    with dt = 1 keeps the L2 norm non-growing over n_steps.

    M is a dense array or an ``expm.Circulant``, applied only as M @ y,
    once per stage.  The probe starts from a fixed-seed random unit vector
    and accepts a step only if ||u|| <= (1 + 1e-10) ||u0|| at every step;
    the answer is located by bisection to width 1e-3.
    """
    n = M.shape[0]
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(n)
    u0 /= np.linalg.norm(u0)
    s = t.stages

    def stable(lam: float) -> bool:
        if lam <= 0.0:
            return True
        u = u0.copy()
        for _ in range(n_steps):
            zs = []  # lam * M @ y for every stage y
            for i in range(s):
                y = u.copy()
                for j in range(i):
                    if t.A[i, j] != 0.0:
                        y = y + t.A[i, j] * zs[j]
                zs.append(lam * (M @ y))
            for j in range(s):
                if t.b[j] != 0.0:
                    u = u + t.b[j] * zs[j]
            if not np.isfinite(u).all() or np.linalg.norm(u) > 1.0 + 1e-10:
                return False
        return True

    if stable(lambda_max):
        return float(lambda_max)
    lo, hi = 0.0, float(lambda_max)
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo


def stability_polynomial(t: ButcherTableau, z: complex) -> complex:
    """Evaluate R(z) = 1 + z b^T (I - zA)^(-1) e by forward substitution."""
    s = t.stages
    y = np.zeros(s, dtype=complex)
    for i in range(s):
        y[i] = 1.0 + z * (t.A[i, :i] @ y[:i])
    return complex(1.0 + z * (t.b @ y))
