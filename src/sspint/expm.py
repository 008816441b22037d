"""Dense matrix exponential, circulant operators, and the per-run
exponential cache.

``expm`` implements scaling-and-squaring with the degree-13 diagonal Pade
approximant.  ``Circulant`` holds a periodic convolution operator (the 1D
upwind operators) by the half of its DFT symbol that real FFTs read: it
applies to real values by real FFT and its exponentials stay circulant.
``Spectral`` is the same operator on real-FFT coefficients, where it multiplies.
``ExpCache`` precomputes one exponential per abscissa gap an
integrating-factor plan applies, so a constant-step run pays for each
exponential exactly once; a column of step sizes gives one per row.
``apply`` is the one rule for an operator acting on a state or on each row
of a batch.  The plan (``sspint.integrators``) decides the gaps (sign and quantum).
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite, SspError

#: gaps are quantized at this resolution so abscissas printed as repeated
#: decimals collapse onto a single cache entry.
GAP_QUANTUM = 1e-14

# Pade-13 coefficients for expm.
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
# 1-norm bound under which the unscaled Pade-13 approximant is accurate.
_THETA13 = 5.371920351148152


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential via Pade-13 scaling and squaring, of a matrix or
    of each matrix of a stack (..., n, n), each scaled and squared by its
    own 1-norm, so each slice has the bits of its own call."""
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise NonFinite("expm input contains NaN or Inf")
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise ValueError("expm requires a square matrix")
    norm = np.abs(M).sum(axis=-2).max(axis=-1)
    squarings = np.zeros(norm.shape, dtype=int)
    if (norm > _THETA13).any():  # else unscaled, as a matrix in range always was
        squarings = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
        M = M / np.ldexp(1.0, squarings)[..., None, None]
    ident = np.eye(M.shape[-1])
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M4 @ M2
    b = _PADE13
    U = M @ (
        M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
        + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * ident
    )
    V = (
        M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
        + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * ident
    )
    F = np.linalg.solve(V - U, V + U)
    for k in range(squarings.max(initial=0)):
        F[squarings > k] = F[squarings > k] @ F[squarings > k]
    return F


def quantize_gap(g: float) -> float:
    """Snap a gap to the cache resolution."""
    return round(g / GAP_QUANTUM) * GAP_QUANTUM


def circulant_matrix(col) -> np.ndarray:
    """The dense circulant matrix whose column j is col rolled down by j:
    row i of the Hankel view H[i, j] = d[i + j] of d = col reversed,
    twice, is row n - 1 - i of the circulant."""
    d = np.tile(np.asarray(col, dtype=float)[::-1], 2)
    n = len(col)
    return np.lib.stride_tricks.as_strided(d, (n, n), 2 * d.strides)[::-1].copy()


class Circulant:
    """A periodic convolution operator on n points, held by the first
    n//2 + 1 entries of its DFT symbol (the rest are their conjugates),
    the half its real-FFT product reads; a batched exponential holds one
    half per row."""

    def __init__(self, symbol, n: int):
        self.symbol = np.asarray(symbol)
        self.n = n
        self.shape = (n, n)

    @classmethod
    def from_column(cls, col) -> "Circulant":
        """The operator whose matrix has first column col, a real vector."""
        col = np.asarray(col)
        if np.iscomplexobj(col):
            raise TypeError("a Circulant's column must be real")
        if col.ndim != 1:
            raise ValueError(f"a Circulant's column must be 1-D, got shape {col.shape}")
        return cls(np.fft.fft(col)[: len(col) // 2 + 1], len(col))

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        """The product with real values u (a batch of rows along the last
        axis): ``irfft(symbol * rfft(u), n)``."""
        if np.iscomplexobj(u):
            raise TypeError("a Circulant applies to real values; use spectral() "
                            "for real-FFT coefficients")
        return np.fft.irfft(self.symbol * np.fft.rfft(u), self.n)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """``self @ u``, so the operator serves as a system's explicit term."""
        return self @ u

    def exp(self, tau) -> "Circulant":
        """e^(tau * L) of the same kind; a column tau gives one symbol per row."""
        return type(self)(np.exp(tau * self.symbol), self.n)

    def spectral(self) -> "Spectral":
        """This operator on the coefficients of ``np.fft.rfft``."""
        return Spectral(self.symbol, self.n)


class Spectral(Circulant):
    """A circulant operator acting on real-FFT coefficients, where it is
    the multiplication by its symbol; a 2-D state is a batch of rows."""

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return self.symbol * u


def apply(M, u: np.ndarray) -> np.ndarray:
    """M on a state u or on each row of a (k, n) batch (a dense M, or a stack, by rows)."""
    return M @ u if isinstance(M, Circulant) or u.ndim == 1 else (M @ u[..., None])[..., 0]


class ExpCache:
    """Exponentials e^(g * dt * L) for L a ``Circulant`` or a dense array,
    dt a step size or a column of them, keyed by gap g exactly as given:
    plans quantize their gaps first, and any other lookup, however close
    to a key, is an ``SspError``.  A dense L's exponentials are one stacked
    ``expm``; for a dt column each gap holds a (k, n, n) stack.  A (k, n, n)
    stack of L, one operator per row, takes only a (k, 1) column: a step
    size broadcast over the stack would pair gaps with rows.  An entry
    that overflows is left out, without a warning: applying it is a ``NonFinite``."""

    def __init__(self, L, dt: float, gaps):
        self.circulant = isinstance(L, Circulant)
        L = L if self.circulant else np.asarray(L, dtype=float)
        if not np.isfinite(L.symbol if self.circulant else L).all():
            raise NonFinite("operator contains NaN or Inf")
        dt = np.asarray(dt, dtype=float)
        if not self.circulant and L.ndim == 3 and dt.shape != (len(L), 1):
            raise ValueError(f"a stack of {len(L)} operators steps with a ({len(L)}, 1) "
                             f"column of step sizes, got dt of shape {dt.shape}")
        self.gaps = sorted(set(gaps))
        with np.errstate(over="ignore", invalid="ignore"):
            if self.circulant:
                entries = [L.exp(g * dt) for g in self.gaps]
                # a float view is tested twice as fast as complex values
                finite = [np.isfinite(E.symbol.view(float)).all() for E in entries]
            else:
                tau = np.multiply.outer(self.gaps, dt.reshape(dt.shape[:-1] + (1, 1)))
                entries = expm(tau * L)  # one finiteness test of the whole stack
                finite = np.isfinite(entries).all(axis=tuple(range(1, entries.ndim)))
        self._entries = {g: E for g, E, ok in zip(self.gaps, entries, finite) if ok}

    def apply(self, g: float, u: np.ndarray) -> np.ndarray:
        """Apply e^(g * dt * L) to a state or to each row of a batch (``apply``)."""
        try:
            E = self._entries[g]
        except KeyError:
            if g in self.gaps:
                raise NonFinite(f"the exponential at gap {g!r} overflows") from None
            raise SspError(f"abscissa gap {g!r} was not planned in this cache "
                           f"(planned gaps: {self.gaps})") from None
        return apply(E, u)


def build_cache(L, dt: float, gaps) -> ExpCache:
    """A plan's cache (``make_plan``, ``make_general_plan``): one exponential
    per nonzero gap its rows apply, keyed by the plan's quantized gaps."""
    return ExpCache(L, dt, gaps)
