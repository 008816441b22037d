"""1D periodic semi-discretizations and the built-in test problems.

The periodic upwind operators are built as ``expm.Circulant``, and
``upwind_matrix`` is the same operator as a dense array; linear advection's
N is the unit upwind operator itself, so steppers act on it spectrally."""

from __future__ import annotations

import collections
import math
import operator
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
        # a float or str size is a TypeError; an integer such as np.int64 is held as an int
        object.__setattr__(self, "n", operator.index(self.n))
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
    stencils along the last axis of the padded fluxes f.

    Each value takes the floating-point steps of the classical formulas.
    The multiples 2f, 4f and 5f that two stencils share are each formed
    once on the padded array and sliced, and 3 f0 once for the two
    indicators that use it; the smoothness indicators share one second
    difference, and the weights are formed in place.  Each temporary is
    freed as soon as it is spent, so few are alive at once: on a batch,
    many live temporaries made the C heap shrink and re-grow, a page
    fault per 4 KB, on every call.  ``weno5_burgers_rhs`` passes the
    padded rows of a batch as one contiguous 1-D buffer, so each of the
    ~50 passes is one contiguous loop; the same passes over the strided
    (2, k, n + 1) slices of that buffer made a 10-row call at n = 400
    take 259 us instead of 194 us on a 2-core machine."""
    m = f.shape[-1] - 4
    fm2, fm1, f0, fp1, fp2 = (f[..., k:k + m] for k in range(5))
    f2 = 2 * f
    q0 = f2[..., :m] - 7 * fm1
    q0 += 11 * f0
    q0 /= 6.0
    # -fm1 + 5 f0 is 5 f0 - fm1 bit for bit
    f5 = 5 * f
    q1 = f5[..., 2:m + 2] - fm1
    q1 += f2[..., 3:m + 3]
    q1 /= 6.0
    q2 = f2[..., 2:m + 2] + f5[..., 3:m + 3]
    del f5
    q2 -= fp2
    q2 /= 6.0
    # b_r = 13/12 d_r^2 + 1/4 e_r^2 with d_r = (fm2 - 2 fm1 + f0,
    # fm1 - 2 f0 + fp1, f0 - 2 fp1 + fp2), one second difference at three
    # centres, and e_r = (fm2 - 4 fm1 + 3 f0, fm1 - fp1, 3 f0 - 4 fp1 + fp2)
    d = f[..., :-2] - f2[..., 1:-1]
    del f2
    d += f[..., 2:]
    d = _scaled_square(d, 13.0 / 12.0)
    f4 = 4 * f
    b0 = fm2 - f4[..., 1:m + 1]
    f3 = 3 * f0
    b0 += f3
    np.subtract(f3, f4[..., 3:m + 3], out=f3)
    del f4
    f3 += fp2
    b = [b0, fm1 - fp1, f3]
    for r in range(3):
        _scaled_square(b[r], 0.25)
        b[r] += d[..., r:r + m]
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
    classical five-point weighted stencils.  A state whose last axis is not
    the grid's n points is a ``ValueError``, a complex one a ``TypeError``.
    """
    u = np.asarray(u)
    if np.iscomplexobj(u):
        raise TypeError("weno5_burgers_rhs applies to real values")
    if u.ndim == 0 or u.shape[-1] != grid.n:
        raise ValueError(f"a state of shape {u.shape} does not fit a {grid.n}-point grid")
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise NonFinite("weno5 input contains NaN or Inf")
    n = grid.n
    # on diverging (blowing-up) data the fluxes and smoothness indicators
    # overflow; the resulting non-finite values are caught by the caller's check
    with np.errstate(over="ignore", invalid="ignore"):
        f = 0.5 * u * u
        wind = np.abs(u).max(axis=-1, keepdims=True) * u
        # the split fluxes, written straight into one flat buffer of rows
        # padded periodically by 3 cells before and 2 after; the negative-
        # wind flux is reversed, so it takes the left-biased stencil too,
        # and both give the n + 1 interfaces -1/2 .. n-1/2 (the negative one
        # in reverse order).  The stencils run along the whole buffer; the
        # last 4 of a row's n + 5 straddle two rows (or 4 spare zeros).
        shape = (2,) + u.shape[:-1] + (n + 5,)
        buf = np.empty(math.prod(shape) + 4)
        buf[-4:] = 0.0
        split = buf[:-4].reshape(shape)
        plus, minus = split[..., 3:n + 3]
        np.add(f, wind, out=plus)
        f -= wind
        minus[...] = f[..., ::-1]
        del f, wind
        split[..., :3] = split[..., n:n + 3]
        split[..., n + 3:] = split[..., 3:5]
        buf *= 0.5  # after the copies: a copy of a half is a half of the copy
        plus, minus = _weno5_reconstruct(buf).reshape(shape)[..., :n + 1]
        del buf, split
        plus += minus[..., ::-1]
        flux = plus[..., 1:] - plus[..., :-1]
        flux /= -grid.dx
        return flux


# --- built-in problems -----------------------------------------------------

#: a problem on a periodic grid: u0(x), its initial state at the nodes x, and
#: N(grid), its explicit term; its L is upwind advection at the wavespeed given.
GridProblem = collections.namedtuple("GridProblem", "u0 N")


def _box(lo: float, hi: float):
    return lambda x: ((x >= lo) & (x <= hi)).astype(float)


def _weno5_term(grid: Grid1D):
    return lambda u: weno5_burgers_rhs(grid, u)


#: the grid problems by name: linear advection of a step (N is the unit
#: upwind operator), and advection-Burgers of a step or of smooth data.
PROBLEMS = {
    "advection-step": GridProblem(_box(0.25, 0.75), lambda grid: upwind_operator(grid, 1.0)),
    "burgers-step": GridProblem(_box(0.0, 0.5), _weno5_term),
    "burgers-smooth": GridProblem(lambda x: np.exp(np.sin(2.0 * np.pi * x)), _weno5_term),
}
LINEAR_ADVECTION_STEP, ADVECTION_BURGERS_STEP, ADVECTION_BURGERS_SMOOTH = PROBLEMS
VAN_DER_POL = "van-der-pol"


def van_der_pol_splitting(which: str):
    """The two linear/nonlinear splittings of the van der Pol system
    u1' = u2, u2' = -u1 + (1 - u1^2) u2.  N acts on a 2-vector or on each
    row of a (k, 2) batch, each row with the bits of its own call."""
    if which == "a":
        L = np.array([[0.0, 1.0], [-1.0, 1.0]])

        def f(sq, y):
            return -sq * y

    elif which == "b":
        L = np.array([[0.0, 1.0], [-1.0, 0.0]])

        def f(sq, y):
            return (1.0 - sq) * y

    else:
        raise ValueError(f"unknown splitting {which!r}; use 'a' or 'b'")

    def N(u):
        if u.ndim == 1:
            return np.array([0.0, f(u[0] ** 2, u[1])])
        # x ** 2 of each NumPy scalar is libm pow, as a 2-vector's u[0] ** 2
        # (and ex1's bits); NumPy's array power squares instead
        out = np.zeros(u.shape)
        out[:, 1] = f(np.array([x ** 2 for x in u[:, 0]]), u[:, 1])
        return out

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
    """Build (SemiDiscretization, initial state) for van der Pol (its
    splitting) or a problem of ``PROBLEMS`` (a and n)."""
    if kind == VAN_DER_POL:
        L, N = van_der_pol_splitting(splitting)
        sys = SemiDiscretization(n=2, L=L, N=N, dx=float("nan"))
        return sys, np.array([2.0, 0.0])
    if kind not in PROBLEMS:
        raise ValueError(f"unknown problem kind {kind!r}")
    problem, grid = PROBLEMS[kind], Grid1D(n)
    sys = SemiDiscretization(n=n, L=upwind_operator(grid, a), N=problem.N(grid), dx=grid.dx)
    return sys, problem.u0(grid.x)
