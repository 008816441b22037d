"""1D periodic semi-discretizations and the built-in test problems.

The periodic upwind operators are built as ``expm.Circulant``;
``upwind_matrix`` is the same operator as a dense array.  The linear
advection step's explicit term is the unit upwind operator, held as
``SemiDiscretization.N_linear`` so steppers can act on it spectrally."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite
from .expm import Circulant, circulant_matrix
from .integrators import SemiDiscretization

WENO_EPS = 1e-6

#: smallest grid the five-point WENO stencils and the problems accept.
MIN_POINTS = 8


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [0, 1) with nodes x_i = i * dx."""

    n: int

    def __post_init__(self):
        if self.n < MIN_POINTS:
            raise ValueError(f"grid requires at least {MIN_POINTS} points")

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx


def _upwind_column(grid: Grid1D, a: float) -> np.ndarray:
    if not 0 <= a < np.inf:  # NaN fails too
        raise ValueError(f"wavespeed must be finite and >= 0 (no downwinding), got {a!r}")
    rate = float(a) / grid.dx  # a Python float: an overflow is inf, not a warning
    if 2.0 * rate == np.inf:  # the largest entry of its DFT symbol
        raise NonFinite(f"wavespeed {a!r} over dx = 1/{grid.n} overflows")
    col = np.zeros(grid.n)
    col[0], col[1] = -rate, rate
    return col


def upwind_operator(grid: Grid1D, a: float) -> Circulant:
    """First-order upwind discretization of -a * u_x (periodic, a >= 0):
    row i holds (a/dx) * (u_{i-1} - u_i)."""
    return Circulant.from_column(_upwind_column(grid, a))


def upwind_matrix(grid: Grid1D, a: float) -> np.ndarray:
    """``upwind_operator`` as a dense n x n array."""
    return circulant_matrix(_upwind_column(grid, a))


def _weno5_reconstruct(f):
    """Left-biased fifth-order WENO reconstruction of the interface values
    f_{i+1/2} from cell values f_{i-2}..f_{i+2}, for each of the len - 4
    stencils along the last axis of f.

    Each value takes the floating-point steps of the classical formulas.
    The smoothness indicators share one second difference, and the
    weights are formed in place, so few temporaries are alive at once: on
    a batch, many live temporaries made the C heap shrink and re-grow, a
    page fault per 4 KB, on every call.  On a 2-core machine the textbook
    expressions on slices of the padded fluxes made ``perfbench``'s
    burgers-sweep 23% slower, and on this stacked array 44% slower."""
    m = f.shape[-1] - 4
    fm2, fm1, f0, fp1, fp2 = (f[..., k:k + m] for k in range(5))
    f2 = 2 * f
    q0 = (f2[..., :m] - 7 * fm1 + 11 * f0) / 6.0
    q1 = (-fm1 + 5 * f0 + f2[..., 3:m + 3]) / 6.0
    q2 = (f2[..., 2:m + 2] + 5 * fp1 - fp2) / 6.0
    # b_r = 13/12 d_r^2 + 1/4 e_r^2 with d_r = (fm2 - 2 fm1 + f0,
    # fm1 - 2 f0 + fp1, f0 - 2 fp1 + fp2), one second difference at three
    # centres, and e_r = (fm2 - 4 fm1 + 3 f0, fm1 - fp1, 3 f0 - 4 fp1 + fp2)
    d = f[..., :-2] - f2[..., 1:-1]
    del f2
    d += f[..., 2:]
    d = _scaled_square(d, 13.0 / 12.0)
    b = [fm2 - 4 * fm1 + 3 * f0, fm1 - fp1, 3 * f0 - 4 * fp1 + fp2]
    for r in range(3):
        _scaled_square(b[r], 0.25)
        b[r] += d[..., r:r + m]
    del d
    # w_r = (0.1, 0.6, 0.3)_r / (eps + b_r)^2, in place of b_r
    for w, c in zip(b, (0.1, 0.6, 0.3)):
        w += WENO_EPS
        np.divide(c, np.square(w, out=w), out=w)
    # (w0 q0 + w1 q1 + w2 q2) / (w0 + w1 + w2)
    w0, w1, w2 = b
    q0 *= w0
    q0 += np.multiply(q1, w1, out=q1)
    q0 += np.multiply(q2, w2, out=q2)
    w0 += w1
    w0 += w2
    q0 /= w0
    return q0


def _scaled_square(x, c):
    """c * x^2, in place of x."""
    np.square(x, out=x)
    x *= c
    return x


def weno5_burgers_rhs(grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """Fifth-order WENO finite-difference approximation of -(u^2/2)_x
    along the last axis, so a (k, n) batch gives one result per row.

    Global Lax-Friedrichs splitting f+- = (f +- alpha u)/2 with
    alpha = max|u| of each row; each split flux is reconstructed with the
    classical five-point weighted stencils.
    """
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise NonFinite("weno5 input contains NaN or Inf")
    # on diverging (blowing-up) data the fluxes and smoothness indicators
    # overflow; the resulting non-finite values are caught by the caller's check
    with np.errstate(over="ignore", invalid="ignore"):
        f = 0.5 * u * u
        alpha = np.abs(u).max(axis=-1, keepdims=True)
        # the negative-wind flux reversed takes the left-biased stencil too;
        # padded periodically by 3 cells before and 2 after, both give the
        # n + 1 interfaces -1/2 .. n-1/2 (the negative one in reverse order)
        split = np.stack([0.5 * (f + alpha * u), (0.5 * (f - alpha * u))[..., ::-1]])
        plus, minus = _weno5_reconstruct(
            np.concatenate([split[..., -3:], split, split[..., :2]], axis=-1))
        fhat = plus + minus[..., ::-1]
        return -(fhat[..., 1:] - fhat[..., :-1]) / grid.dx


# --- built-in problems -----------------------------------------------------

LINEAR_ADVECTION_STEP = "LinearAdvectionStep"
ADVECTION_BURGERS_STEP = "AdvectionBurgersStep"
ADVECTION_BURGERS_SMOOTH = "AdvectionBurgersSmooth"
VAN_DER_POL = "VanDerPol"


def van_der_pol_splitting(which: str):
    """The two linear/nonlinear splittings of the van der Pol system
    u1' = u2, u2' = -u1 + (1 - u1^2) u2."""
    if which == "a":
        L = np.array([[0.0, 1.0], [-1.0, 1.0]])

        def N(u):
            return np.array([0.0, -u[0] ** 2 * u[1]])

    elif which == "b":
        L = np.array([[0.0, 1.0], [-1.0, 0.0]])

        def N(u):
            return np.array([0.0, (1.0 - u[0] ** 2) * u[1]])

    else:
        raise ValueError(f"unknown splitting {which!r}; use 'a' or 'b'")
    return L, N


def van_der_pol_rhs(x, y):
    """Unsplit right-hand side (u1', u2') of the van der Pol system at
    (x, y), on Python floats or NumPy scalars: their float64 arithmetic
    is the same, so both give the same bits."""
    # x ** 2 (libm pow), not x * x: they differ in the last bit for some x,
    # and the ex1 reference is pinned to the bits of pow
    return y, -x + (1.0 - x ** 2) * y


def van_der_pol_full(u):
    """Unsplit right-hand side of the van der Pol system."""
    return np.array(van_der_pol_rhs(u[0], u[1]))


def make_problem(kind: str, a: float = 0.0, n: int = 1000, splitting: str = "a"):
    """Build (SemiDiscretization, initial state) for a named test problem."""
    if kind == VAN_DER_POL:
        L, N = van_der_pol_splitting(splitting)
        sys = SemiDiscretization(n=2, L=L, N=N, dx=float("nan"))
        return sys, np.array([2.0, 0.0])

    grid = Grid1D(n)
    x = grid.x
    N_linear = None
    if kind == LINEAR_ADVECTION_STEP:
        u0 = ((x >= 0.25) & (x <= 0.75)).astype(float)
        N_linear = upwind_operator(grid, 1.0)
        N = N_linear.__matmul__

    elif kind in (ADVECTION_BURGERS_STEP, ADVECTION_BURGERS_SMOOTH):
        if kind == ADVECTION_BURGERS_STEP:
            u0 = ((x >= 0.0) & (x <= 0.5)).astype(float)
        else:
            u0 = np.exp(np.sin(2.0 * np.pi * x))

        def N(u):
            return weno5_burgers_rhs(grid, u)

    else:
        raise ValueError(f"unknown problem kind {kind!r}")
    sys = SemiDiscretization(n=n, L=upwind_operator(grid, a), N=N, dx=grid.dx,
                             N_linear=N_linear)
    return sys, u0
