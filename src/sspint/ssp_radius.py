"""SSP coefficient (radius of absolute monotonicity), its linear upper
bound, and linear stability."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NonFinite, SingularTransform
from .expm import Circulant, circulant_view
from .tableau import ButcherTableau

#: componentwise nonnegativity tolerance; absorbs the representation error
#: of printed decimal coefficients without admitting infeasible r.
NONNEG_TOL = 1e-12

#: condition-number estimate beyond which (I + rS) is treated as singular.
_COND_LIMIT = 1e14

#: elements per temporary of the circulant L2 probe (2 MB of float64).
_BLOCK = 2 ** 18


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
    bisection_width: float


def _inverse(t: ButcherTableau, r: float) -> np.ndarray:
    """The inverse R of M = I + rS, guarded as np.linalg.cond(M, 1) =
    ||M||_1 ||R||_1 is, ||X||_1 the largest column sum of |X|: a failed or
    NaN inverse counts as singular unless M itself holds NaN."""
    M = np.eye(t.stages + 1) + r * t.stacked
    try:
        R = np.linalg.inv(M)
    except np.linalg.LinAlgError:  # an exactly zero pivot in LAPACK's LU
        R = np.full_like(M, np.nan)
    cond = np.abs(M).sum(axis=0).max() * np.abs(R).sum(axis=0).max()
    if cond > _COND_LIMIT or (np.isnan(cond) and not np.isnan(M).any()):
        raise SingularTransform(f"(I + rS) is numerically singular at r = {r}")
    return R


def canonical_form(t: ButcherTableau, r: float) -> CanonicalShuOsher:
    """v = (I + rS)^(-1) e and P = r (I + rS)^(-1) S from one guarded inverse."""
    S, R = t.stacked, _inverse(t, r)
    return CanonicalShuOsher(r=r, v=R @ np.ones(S.shape[0]), P=r * (R @ S), S=S)


def is_absolutely_monotonic(t: ButcherTableau, r: float, tol: float = NONNEG_TOL) -> bool:
    """True iff (I + rS)^(-1) e >= 0 and r (I + rS)^(-1) S >= 0
    componentwise (within tol), with no canonical form built."""
    S, R = t.stacked, _inverse(t, r)
    return bool((R @ np.ones(S.shape[0])).min() >= -tol and (r * (R @ S)).min() >= -tol)


def _check_bracket(lo: float, hi: float, width: float):
    """A ValueError unless lo < hi are finite and width is finite and at
    least the float spacing at max(|lo|, |hi|), so that bisection stops."""
    if not (np.isfinite([lo, hi]).all() and lo < hi
            and np.spacing(max(abs(lo), abs(hi))) <= width < np.inf):
        raise ValueError(f"bad bisection bracket ({lo!r}, {hi!r}) or width {width!r}")


def _bisect(holds, lo: float, hi: float, width: float):
    """Shrink a bracket with holds(lo) true and holds(hi) false to at most
    the given width; returns the final (lo, hi)."""
    _check_bracket(lo, hi, width)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def exceeds(t: ButcherTableau, C: float, width: float = 1e-10) -> bool:
    """Whether ssp_radius(t, width).radius > C, from one probe, for a C that
    ssp_radius returned at this width for a tableau of as many stages.

    Bisection from [0, 2s] visits only multiples of its final spacing h,
    and returns the largest one at which absolute monotonicity holds (2s if
    it holds there).  So, the predicate being monotone in r, the radius
    passes such a C exactly when the predicate holds at C + h."""
    hi = h = 2.0 * t.stages
    _check_bracket(0.0, hi, width)  # the widths ssp_radius rejects
    while h > width:  # the spacing at which _bisect stops
        h *= 0.5
    return C < hi and is_absolutely_monotonic(t, C + h)


def ssp_radius(t: ButcherTableau, width: float = 1e-10) -> RadiusResult:
    """SSP coefficient by bisection on absolute monotonicity over [0, 2s]."""
    hi = 2.0 * t.stages
    holds = partial(is_absolutely_monotonic, t)
    return RadiusResult(hi if holds(hi) else _bisect(holds, 0.0, hi, width)[0], width)


def linear_bound(s: int, p: int) -> float:
    """R_lin(s, p): the largest r at which some gamma >= 0 solves
    sum_j gamma_j C(j, k) r^-k = 1/k! for k = 0..p, j = 0..s, i.e. at which
    a degree-s polynomial matching exp to order p is absolutely monotonic
    on [-r, 0].  It bounds the SSP coefficient of every s-stage order-p
    explicit method (Kraaijevanger, Numer. Math. 48, 1986).

    A feasible system has a nonnegative basic solution, so every one of the
    C(s+1, p+1) column subsets is solved, all in one batch (their matrices
    [C(j, k)] are Vandermonde-like, never singular), and r is bisected on
    [0, s] to width 1e-12; the upper end of the bracket is returned."""
    if not 1 <= p <= s:
        raise ValueError(f"need 1 <= p <= s, got s = {s!r}, p = {p!r}")
    k = np.arange(p + 1)
    bases = np.array(list(itertools.combinations(range(s + 1), p + 1)))
    binomial = np.array([[math.comb(j, i) for j in range(s + 1)] for i in k], float)
    inverse = np.linalg.solve(binomial[:, bases].transpose(1, 0, 2), np.eye(p + 1))
    factorials = np.array([math.factorial(i) for i in k], float)

    def feasible(r):  # [C(j, k)] gamma = (r^k / k!)_k: the r^-k moved to the right
        return bool((inverse @ (r ** k / factorials)).min(axis=1).max() >= -NONNEG_TOL)

    return float(s) if feasible(float(s)) else _bisect(feasible, 0.0, float(s), 1e-12)[1]


def observed_l2_cfl(
    t: ButcherTableau,
    M: np.ndarray,
    lambda_max: float,
    n_steps: int = 500,
    seed: int = 0,
) -> float:
    """Largest lambda <= lambda_max for which stepping u' = lambda*M*u
    with dt = 1 keeps the L2 norm non-growing over n_steps.

    A step is u <- R(lambda M) u for the stability polynomial R.  The
    probe starts from a fixed-seed random unit vector and accepts a step
    only if ||u|| <= (1 + 1e-10) ||u0|| at every step; the answer is
    located by bisection to width 1e-3.  A circulant M (an
    ``expm.Circulant``, or a dense array equal to the circulant of its
    first column) gets its norms exactly by Parseval; any other M is
    stepped by Horner's rule, s products M @ w per step.
    """
    if not 0.0 < lambda_max < np.inf:
        raise ValueError(f"lambda_max must be positive and finite, got {lambda_max!r}")
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    if not np.isfinite(M.symbol if isinstance(M, Circulant) else M).all():
        raise NonFinite("operator contains NaN or Inf")
    mu = _circulant_symbol(M)
    n = M.shape[0]
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(n)
    u0 /= np.linalg.norm(u0)
    gamma = _polynomial_coefficients(t)

    def stable(lam: float) -> bool:
        if mu is not None:
            with np.errstate(over="ignore"):  # an overflow is an unstable step
                norms = _parseval_norms(gamma, mu, lam, u0, n_steps)
                return all((x <= 1.0 + 1e-10).all() for x in norms)
        u = u0
        for _ in range(n_steps):
            u = _horner(gamma, lambda w: lam * (M @ w), u)
            if not np.isfinite(u).all() or np.linalg.norm(u) > 1.0 + 1e-10:
                return False
        return True

    if stable(lambda_max):
        return float(lambda_max)
    return _bisect(stable, 0.0, float(lambda_max), 1e-3)[0]


def _circulant_symbol(M):
    """The DFT symbol of a circulant M: an ``expm.Circulant``, or a dense
    array equal to the circulant of its first column, compared a block of
    rows at a time; None for any other M."""
    if isinstance(M, Circulant):
        return M.symbol
    C, rows = circulant_view(M[:, 0]), 1 + _BLOCK // M.shape[0]
    same = all(np.array_equal(M[i:i + rows], C[i:i + rows]) for i in range(0, len(C), rows))
    return np.fft.fft(C[:, 0]) if same else None


def _parseval_norms(gamma, mu, lam, u, n_steps):
    """||R(lam M)^m u|| for m = 1..n_steps and the circulant M of DFT
    symbol mu, a block of steps at a time, by Parseval:
    ||R(lam M)^m u||^2 = (1/n) sum_k |R(lam mu_k)|^(2m) |fft(u)_k|^2."""
    a = np.abs(_horner(gamma, lambda w: lam * mu * w, 1.0)) ** 2
    p = np.abs(np.fft.fft(u)) ** 2 / len(u)
    for m in np.array_split(np.arange(1, n_steps + 1), 1 + n_steps * len(u) // _BLOCK):
        yield np.sqrt(a ** m[:, None] @ p)


def _polynomial_coefficients(t: ButcherTableau) -> np.ndarray:
    """Coefficients gamma_0..gamma_s of the stability polynomial
    R(z) = sum_k gamma_k z^k: gamma_0 = 1 and gamma_k = b^T A^(k-1) e."""
    gamma, y = np.ones(t.stages + 1), np.ones(t.stages)
    for k in range(1, t.stages + 1):
        gamma[k] = t.b @ y
        y = t.A @ y
    return gamma


def _horner(gamma, times_z, u):
    """R(z) u by Horner's rule on R's coefficients, with times_z(w) = z w."""
    w = gamma[-1] * u
    for g in gamma[-2::-1]:
        w = g * u + times_z(w)
    return w


def stability_polynomial(t: ButcherTableau, z: complex) -> complex:
    """Evaluate R(z) = 1 + z b^T (I - zA)^(-1) e by Horner's rule."""
    return complex(_horner(_polynomial_coefficients(t), lambda w: z * w, 1.0))
