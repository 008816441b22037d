"""Dense matrix exponential, circulant operators, and the per-run
exponential cache.

``expm`` implements scaling-and-squaring with the degree-13 diagonal Pade
approximant.  ``Circulant`` holds a periodic convolution operator (the 1D
upwind operators) by its DFT symbol: it applies by FFT and its exponentials
stay circulant.  ``Spectral`` is the same operator acting on real-FFT
coefficients, where it is a multiplication.  ``ExpCache`` precomputes one
exponential per abscissa gap an integrating-factor plan applies, so a
constant-step run pays for each exponential exactly once; a column of step
sizes gives one exponential per row, for a batch of step sizes at once.
The plan (``sspint.integrators``) decides the gaps (sign and quantum).
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
    """Matrix exponential via Pade-13 scaling and squaring."""
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise NonFinite("expm input contains NaN or Inf")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expm requires a square matrix")
    n = M.shape[0]
    norm = np.linalg.norm(M, 1)
    squarings = 0
    if norm > _THETA13:
        squarings = int(np.ceil(np.log2(norm / _THETA13)))
        M = M / (2.0 ** squarings)
    ident = np.eye(n)
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
    for _ in range(squarings):
        F = F @ F
    return F


def quantize_gap(g: float) -> float:
    """Snap a gap to the cache resolution."""
    return round(g / GAP_QUANTUM) * GAP_QUANTUM


def circulant_view(col) -> np.ndarray:
    """The circulant matrix of col as a read-only view: row i of the
    Hankel view H[i, j] = d[i + j] of d = col reversed, twice, is row
    n - 1 - i of the circulant."""
    d = np.tile(np.asarray(col, dtype=float)[::-1], 2)
    n = len(col)
    return np.lib.stride_tricks.as_strided(d, (n, n), 2 * d.strides, writeable=False)[::-1]


def circulant_matrix(col) -> np.ndarray:
    """The dense circulant matrix whose column j is col rolled down by j."""
    return circulant_view(col).copy()


class Circulant:
    """A periodic convolution operator held by its DFT symbol."""

    def __init__(self, symbol):
        self.symbol = np.asarray(symbol)

    @classmethod
    def from_column(cls, col) -> "Circulant":
        return cls(np.fft.fft(col))

    @property
    def shape(self):
        return (len(self.symbol), len(self.symbol))

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return np.fft.ifft(self.symbol * np.fft.fft(u)).real

    def exp(self, tau) -> "Circulant":
        """e^(tau * L) of the same kind; a column tau gives one symbol per row."""
        return type(self)(np.exp(tau * self.symbol))

    def spectral(self) -> "Spectral":
        """This operator on the coefficients of ``np.fft.rfft``."""
        return Spectral(self.symbol[: len(self.symbol) // 2 + 1])


class Spectral(Circulant):
    """A circulant operator acting on real-FFT coefficients, where it is
    the multiplication by its symbol; a 2-D state is a batch of rows."""

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return self.symbol * u


class ExpCache:
    """Exponentials e^(g * dt * L) for L a ``Circulant`` or a dense array,
    dt a step size or, for a ``Circulant``, a column of them, keyed by gap
    g exactly as given: plans quantize their gaps first, and any other
    lookup, however close to a key, is an ``SspError``."""

    def __init__(self, L, dt: float, gaps):
        self.circulant = isinstance(L, Circulant)
        if not self.circulant:
            L = np.asarray(L, dtype=float)
        if not np.isfinite(L.symbol if self.circulant else L).all():
            raise NonFinite("operator contains NaN or Inf")
        dt = np.asarray(dt, dtype=float)
        self.gaps = sorted(set(gaps))
        self._entries = {
            g: L.exp(g * dt) if self.circulant else expm(g * dt * L)
            for g in self.gaps
        }

    def apply(self, g: float, u: np.ndarray) -> np.ndarray:
        """Apply e^(g * dt * L) to a vector (a batch of rows for a dt column)."""
        try:
            E = self._entries[g]
        except KeyError:
            raise SspError(f"abscissa gap {g!r} was not planned in this cache "
                           f"(planned gaps: {self.gaps})") from None
        return E @ u


def build_cache(L, dt: float, gaps) -> ExpCache:
    """A plan's cache (``make_plan``, ``make_general_plan``): one exponential
    per nonzero gap its rows apply, keyed by the plan's quantized gaps."""
    return ExpCache(L, dt, gaps)
