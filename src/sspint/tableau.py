"""Explicit Runge-Kutta method representations and conversions.

Two equivalent representations are used throughout:

* Butcher form: a strictly lower triangular coefficient matrix ``A``,
  weights ``b`` and abscissas ``c = A @ e``.
* Shu-Osher form: ``(s+1) x (s+1)`` matrices ``alpha``, ``beta`` where
  stage 0 is the previous solution value, rows ``1..s-1`` are the
  intermediate stages and row ``s`` is the output combination::

      u^(i) = sum_j alpha[i,j] * u^(j) + dt * beta[i,j] * F(u^(j))

  Each ``alpha`` row sums to one, which is what exposes the
  convex-combination (SSP) structure of the method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

_ROW_SUM_TOL = 1e-13
_C_TOL = 1e-13

#: abscissas count as non-decreasing when no gap an integrating-factor
#: step applies falls below -ABSCISSA_TOL: the optimizer meets diff(c) >= 0
#: only to its solver's feasibility, so certified methods drop by up to
#: ~1e-13.  Plans apply such a gap as 0.
ABSCISSA_TOL = 1e-10


def parse_coefficient(value):
    """Parse a coefficient that may be a number, a decimal string or an
    exact rational string like ``"59/128"``."""
    if isinstance(value, str):
        if "/" in value:
            return float(Fraction(value))
        return float(value)
    return float(value)


@dataclass(frozen=True)
class ButcherTableau:
    """Butcher form of an explicit Runge-Kutta method."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    name: str = ""
    order: int = 1

    def __post_init__(self):
        # copies, so freezing them below leaves the caller's arrays writeable
        A = np.array(self.A, dtype=float)
        b = np.array(self.b, dtype=float)
        c = np.array(self.c, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if not all(np.isfinite(x).all() for x in (A, b, c)):
            raise ValueError("A, b and c must be finite")
        s = len(b)
        if A.shape != (s, s):
            raise ValueError(f"A must be {s}x{s}, got {A.shape}")
        if np.any(np.abs(A[np.triu_indices(s)]) > 0):
            raise ValueError("A must be strictly lower triangular (explicit method)")
        if abs(b.sum() - 1.0) > _ROW_SUM_TOL:
            raise ValueError(f"sum(b) = {b.sum()} != 1")
        if np.max(np.abs(A.sum(axis=1) - c)) > _C_TOL:
            raise ValueError("c must equal the row sums of A")
        A.setflags(write=False)
        b.setflags(write=False)
        c.setflags(write=False)

    @property
    def stages(self) -> int:
        return len(self.b)

    @cached_property
    def stacked(self) -> np.ndarray:
        """The read-only stacked stage matrix [[A, 0], [b^T, 0]]."""
        S = np.zeros((self.stages + 1,) * 2)
        S[:-1, :-1], S[-1, :-1] = self.A, self.b
        S.setflags(write=False)
        return S

    @classmethod
    def from_arrays(cls, A, b, c=None, name="", order=1):
        A = np.array([[parse_coefficient(x) for x in row] for row in A], dtype=float)
        b = np.array([parse_coefficient(x) for x in b], dtype=float)
        if c is None:
            c = A.sum(axis=1)
        else:
            c = np.array([parse_coefficient(x) for x in c], dtype=float)
        return cls(A=A, b=b, c=c, name=name, order=order)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "order": int(self.order),
            "A": [[float(x) for x in row] for row in self.A],
            "b": [float(x) for x in self.b],
            "c": [float(x) for x in self.c],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ButcherTableau":
        return cls.from_arrays(
            data["A"],
            data["b"],
            data.get("c"),
            name=data.get("name", ""),
            order=int(data.get("order", 1)),
        )


@dataclass(frozen=True)
class ShuOsherForm:
    """Shu-Osher form (alpha, beta) of an explicit Runge-Kutta method."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        # copies, so freezing them below leaves the caller's arrays writeable
        alpha = np.array(self.alpha, dtype=float)
        beta = np.array(self.beta, dtype=float)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
            raise ValueError("alpha and beta must be finite")
        if alpha.shape != beta.shape or alpha.shape[0] != alpha.shape[1]:
            raise ValueError("alpha and beta must be square and of equal shape")
        m = alpha.shape[0]
        if np.any(np.abs(alpha[np.triu_indices(m)]) > 0) or np.any(
            np.abs(beta[np.triu_indices(m)]) > 0
        ):
            raise ValueError("alpha and beta must be strictly lower triangular")
        rows = alpha[1:].sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise ValueError("each alpha row must sum to 1 (consistency)")
        alpha.setflags(write=False)
        beta.setflags(write=False)

    @property
    def stages(self) -> int:
        return self.alpha.shape[0] - 1

    @cached_property
    def terms(self) -> tuple:
        """Row i = 1..s as the (j, alpha[i,j], beta[i,j]) of its nonzero
        entries, in order of j."""
        return tuple(
            tuple((j, float(a), float(b))
                  for j, (a, b) in enumerate(zip(self.alpha[i, :i], self.beta[i, :i]))
                  if a != 0.0 or b != 0.0)
            for i in range(1, self.stages + 1)
        )

    @cached_property
    def explicit(self) -> tuple:
        """Per stage j = 0..s, whether a later row uses F(u^(j)): a
        nonzero column j of beta."""
        return tuple(bool(x) for x in self.beta.any(axis=0))

    def is_ssp_admissible(self, tol: float = 1e-12) -> bool:
        """True when all coefficients are nonnegative and beta vanishes
        wherever alpha does."""
        if self.alpha.min() < -tol or self.beta.min() < -tol:
            return False
        zero_alpha = np.abs(self.alpha) <= tol
        return bool(np.all(np.abs(self.beta[zero_alpha]) <= tol))

    @classmethod
    def from_entries(cls, stages: int, alpha_entries: dict, beta_entries: dict):
        """Build from sparse ``{(i, j): value}`` maps; values may be
        rational strings."""
        alpha = np.zeros((stages + 1, stages + 1))
        beta = np.zeros((stages + 1, stages + 1))
        for (i, j), val in alpha_entries.items():
            alpha[i, j] = parse_coefficient(val)
        for (i, j), val in beta_entries.items():
            beta[i, j] = parse_coefficient(val)
        return cls(alpha=alpha, beta=beta)

    @classmethod
    def canonical(cls, v, P, r: float) -> "ShuOsherForm":
        """The canonical form at r > 0: alpha is the strictly lower part of
        P with v added to column 0, beta that of P / r."""
        alpha = np.tril(P, -1)
        alpha[1:, 0] += v[1:]
        return cls(alpha=alpha, beta=np.tril(P / r, -1))


@dataclass(frozen=True)
class OrderReport:
    """Order-condition residuals keyed by condition tag."""

    residuals: dict = field(default_factory=dict)
    achieved_order: int = 0


def _dot(x, y):
    """x . y over the last axis, for any leading batch axes."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _mv(A, x):
    """A x over the last two axes of A, for any leading batch axes."""
    return (A @ x[..., None])[..., 0]


# Order conditions: tag -> (order, evaluator returning lhs - rhs), over any
# leading batch axes of A (..., s, s), b and c (..., s), bit for bit per row.
_ORDER_CONDITIONS = (
    ("b.e", 1, lambda A, b, c: b.sum(axis=-1) - 1.0),
    ("b.c", 2, lambda A, b, c: _dot(b, c) - 1.0 / 2.0),
    ("b.cc", 3, lambda A, b, c: _dot(b, c * c) - 1.0 / 3.0),
    ("bAc", 3, lambda A, b, c: _dot(b, _mv(A, c)) - 1.0 / 6.0),
    ("b.ccc", 4, lambda A, b, c: _dot(b, c * c * c) - 1.0 / 4.0),
    ("b.cAc", 4, lambda A, b, c: _dot(b, c * _mv(A, c)) - 1.0 / 8.0),
    ("bA.cc", 4, lambda A, b, c: _dot(b, _mv(A, c * c)) - 1.0 / 12.0),
    ("bAAc", 4, lambda A, b, c: _dot(b, _mv(A, _mv(A, c))) - 1.0 / 24.0),
)

ORDER_RESIDUAL_TOL = 1e-10


def order_residuals(t: ButcherTableau) -> OrderReport:
    """Evaluate all order conditions through order 4 and report the
    achieved order (largest p with all residuals through p below 1e-10)."""
    res = {
        tag: float(fn(t.A, t.b, t.c)) for tag, _, fn in _ORDER_CONDITIONS
    }
    achieved = 0
    for p in (1, 2, 3, 4):
        ok = all(
            abs(res[tag]) <= ORDER_RESIDUAL_TOL
            for tag, order, _ in _ORDER_CONDITIONS
            if order <= p
        )
        if ok:
            achieved = p
        else:
            break
    return OrderReport(residuals=res, achieved_order=achieved)


def abscissas_nondecreasing(t: ButcherTableau) -> bool:
    """True iff c_1 <= c_2 <= ... <= c_s <= 1 within ABSCISSA_TOL: every
    gap c_i - c_j (i > j) and 1 - c_j is at least -ABSCISSA_TOL."""
    ceff = np.append(t.c, 1.0)
    return bool(np.all(np.tril(ceff[:, None] - ceff, -1) >= -ABSCISSA_TOL))


def shu_osher_to_butcher(so: ShuOsherForm, name: str = "", order: int = 1) -> ButcherTableau:
    """Convert a Shu-Osher form to Butcher form by forward substitution.

    Each Shu-Osher stage is a linear combination of function evaluations;
    accumulating those combinations row by row yields the Butcher rows,
    with the final (output) row giving b.
    """
    s = so.stages
    al, be = so.alpha, so.beta
    K = np.zeros((s + 1, s))
    for i in range(1, s + 1):
        for j in range(i):
            if al[i, j] != 0.0:
                K[i] += al[i, j] * K[j]
            if be[i, j] != 0.0:
                K[i, j] += be[i, j]
    A = K[:s]
    b = K[s]
    return ButcherTableau(A=A, b=b, c=A.sum(axis=1), name=name, order=order)


def butcher_to_canonical_shu_osher(t: ButcherTableau, r: float) -> ShuOsherForm:
    """Canonical Shu-Osher form at parameter r (``ShuOsherForm.canonical``
    of v = (I + rS)^(-1) e and P = r (I + rS)^(-1) S), or at r = 0, where P
    vanishes, v below the diagonal of alpha's column 0 and beta the
    strictly lower part of S = [[A, 0], [b^T, 0]].  For r up to the SSP
    radius the pair is nonnegative."""
    from .ssp_radius import canonical_form  # local import to avoid a cycle

    can = canonical_form(t, r)
    if r:
        return ShuOsherForm.canonical(can.v, can.P, r)
    alpha = np.zeros_like(can.P)
    alpha[1:, 0] += can.v[1:]
    return ShuOsherForm(alpha=alpha, beta=np.tril(can.S, -1))
