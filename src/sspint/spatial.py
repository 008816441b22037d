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
    if a < 0:
        raise ValueError("negative wavespeed not supported (downwinding out of scope)")
    col = np.zeros(grid.n)
    col[0] = -a / grid.dx
    col[1] = a / grid.dx
    return col


def upwind_operator(grid: Grid1D, a: float) -> Circulant:
    """First-order upwind discretization of -a * u_x (periodic, a >= 0):
    row i holds (a/dx) * (u_{i-1} - u_i)."""
    return Circulant.from_column(_upwind_column(grid, a))


def upwind_matrix(grid: Grid1D, a: float) -> np.ndarray:
    """``upwind_operator`` as a dense n x n array."""
    return circulant_matrix(_upwind_column(grid, a))


def _weno5_reconstruct(fm2, fm1, f0, fp1, fp2):
    """Left-biased fifth-order WENO reconstruction of the interface value
    f_{i+1/2} from cell values f_{i-2}..f_{i+2}."""
    q0 = (2 * fm2 - 7 * fm1 + 11 * f0) / 6.0
    q1 = (-fm1 + 5 * f0 + 2 * fp1) / 6.0
    q2 = (2 * f0 + 5 * fp1 - fp2) / 6.0
    b0 = 13.0 / 12.0 * (fm2 - 2 * fm1 + f0) ** 2 + 0.25 * (fm2 - 4 * fm1 + 3 * f0) ** 2
    b1 = 13.0 / 12.0 * (fm1 - 2 * f0 + fp1) ** 2 + 0.25 * (fm1 - fp1) ** 2
    b2 = 13.0 / 12.0 * (f0 - 2 * fp1 + fp2) ** 2 + 0.25 * (3 * f0 - 4 * fp1 + fp2) ** 2
    # on diverging (blowing-up) data the smoothness indicators overflow;
    # the resulting non-finite values are caught by the caller's check
    with np.errstate(over="ignore", invalid="ignore"):
        w0 = 0.1 / (WENO_EPS + b0) ** 2
        w1 = 0.6 / (WENO_EPS + b1) ** 2
        w2 = 0.3 / (WENO_EPS + b2) ** 2
        wsum = w0 + w1 + w2
        return (w0 * q0 + w1 * q1 + w2 * q2) / wsum


def _weno5_flux_positive(f):
    """Interface values f_{i+1/2} for a positive-wind flux."""
    return _weno5_reconstruct(
        np.roll(f, 2), np.roll(f, 1), f, np.roll(f, -1), np.roll(f, -2)
    )


def _weno5_flux_negative(f):
    """Interface values f_{i+1/2} for a negative-wind flux (mirrored stencil)."""
    return _weno5_reconstruct(
        np.roll(f, -3), np.roll(f, -2), np.roll(f, -1), f, np.roll(f, 1)
    )


def weno5_burgers_rhs(grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """Fifth-order WENO finite-difference approximation of -(u^2/2)_x.

    Global Lax-Friedrichs splitting f+- = (f +- alpha u)/2 with
    alpha = max|u|; each split flux is reconstructed with the classical
    five-point weighted stencils.
    """
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise NonFinite("weno5 input contains NaN or Inf")
    f = 0.5 * u * u
    alpha = np.abs(u).max()
    fhat = _weno5_flux_positive(0.5 * (f + alpha * u)) + _weno5_flux_negative(
        0.5 * (f - alpha * u)
    )
    return -(fhat - np.roll(fhat, 1)) / grid.dx


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


def van_der_pol_full(u):
    """Unsplit right-hand side of the van der Pol system."""
    return np.array([u[1], -u[0] + (1.0 - u[0] ** 2) * u[1]])


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
    fe_linear = grid.dx / a if a > 0 else float("inf")
    sys = SemiDiscretization(
        n=n, L=upwind_operator(grid, a), N=N, dx=grid.dx,
        fe_dt_nonlinear=grid.dx, fe_dt_linear=fe_linear, N_linear=N_linear,
    )
    return sys, u0
