import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspint.errors import NonFinite, SspError
from sspint.expm import (
    Circulant,
    ExpCache,
    circulant_matrix,
    expm,
    quantize_gap,
)
from sspint.spatial import Grid1D, upwind_matrix, upwind_operator


def taylor_expm(M, terms=150):
    """Independent oracle: Taylor series with compensated summation."""
    n = M.shape[0]
    total = np.zeros((n, n))
    comp = np.zeros((n, n))
    term = np.eye(n)
    for k in range(terms):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        term = term @ M / (k + 1)
    return total


def _columns(apply, n):
    """The matrix of a linear map, read one basis vector at a time."""
    return np.column_stack([apply(e) for e in np.eye(n)])


def test_expm_matches_taylor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        M = rng.standard_normal((5, 5))
        ref = taylor_expm(M)
        assert np.allclose(expm(M), ref, atol=1e-12, rtol=1e-12)


def test_expm_large_norm_scaling():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((4, 4)) * 8.0
    half = expm(M / 2)
    assert np.allclose(half @ half, expm(M), atol=1e-9, rtol=1e-9)


def test_expm_identity_and_errors():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    with pytest.raises(NonFinite):
        expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))


def test_quantize_gap_collapses_nearby_values():
    assert quantize_gap(0.3 + 4e-15) == quantize_gap(0.3)
    assert quantize_gap(0.0) == 0.0


def test_cache_circulant_matches_dense():
    grid = Grid1D(32)
    L = upwind_matrix(grid, 2.0)
    gaps = [0.0, 0.25, 1.0]
    cache = ExpCache(upwind_operator(grid, 2.0), 0.01, gaps)
    assert cache.circulant
    for g in gaps:
        dense = expm(g * 0.01 * L)
        assert np.allclose(_columns(lambda e: cache.apply(g, e), 32), dense, atol=1e-11)
        u = np.sin(2 * np.pi * grid.x)
        assert np.allclose(cache.apply(g, u), dense @ u, atol=1e-11)


def test_dense_array_is_never_treated_as_circulant():
    # an upwind matrix with one off-circulant entry; sampling a few
    # columns used to classify it circulant, 0.62 away from expm
    L = upwind_matrix(Grid1D(16), 1.0)
    L[0, 3] += 5.0
    cache = ExpCache(L, 0.1, [1.0])
    assert not cache.circulant
    u = np.arange(16.0)
    assert np.abs(cache.apply(1.0, u) - expm(0.1 * L) @ u).max() <= 1e-12


def test_upwind_matrix_is_the_dense_upwind_operator():
    grid = Grid1D(12)
    M = upwind_matrix(grid, 3.0)
    assert np.array_equal(M, np.column_stack(
        [np.roll(M[:, 0], j) for j in range(12)]))
    assert np.allclose(_columns(upwind_operator(grid, 3.0).__matmul__, 12), M, atol=1e-12)


def _gathered_circulant(col):
    """Reference: the circulant matrix by an n x n index gather."""
    n = len(col)
    return col[(np.arange(n)[:, None] - np.arange(n)) % n]


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
def test_circulant_matrix_matches_the_index_gather(n):
    col = np.random.default_rng(n).standard_normal(n)
    M = circulant_matrix(col)
    assert M.flags.c_contiguous and M.flags.writeable
    assert np.array_equal(M, _gathered_circulant(col))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(8, 64),
    seed=st.integers(0, 2**32 - 1),
    dt=st.floats(0.0, 0.5),
)
def test_circulant_matches_dense_reference(n, seed, dt):
    # fast path (FFT symbol) against the reference path (dense circulant
    # matrix and Pade-13 expm), to 1e-10 relative to the operator's size;
    # a negative gap (a general plan's) is cached like any other
    rng = np.random.default_rng(seed)
    col = rng.standard_normal(n)
    u = rng.standard_normal(n)
    op = Circulant.from_column(col)
    M = circulant_matrix(col)
    assert op.shape == M.shape == (n, n)
    assert np.allclose(op @ u, M @ u, rtol=0, atol=1e-12 * np.abs(col).sum())
    gaps = [-0.5, 0.0, 0.25, 1.0]
    fast = ExpCache(op, dt, gaps)
    dense = ExpCache(M, dt, gaps)
    assert fast.circulant and not dense.circulant
    for g in gaps:
        ref = expm(g * dt * M)
        scale = max(1.0, np.abs(ref).max())
        assert np.allclose(_columns(lambda e: fast.apply(g, e), n), ref, rtol=0,
                           atol=1e-10 * scale)
        assert np.allclose(fast.apply(g, u), ref @ u, rtol=0,
                           atol=1e-10 * scale * np.abs(u).sum())
        assert np.allclose(dense.apply(g, u), ref @ u, rtol=0,
                           atol=1e-10 * scale * np.abs(u).sum())


def test_cache_unplanned_gap_is_typed_error():
    cache = ExpCache(np.eye(3), 0.1, [0.5])
    with pytest.raises(SspError, match="0.75"):
        cache.apply(0.75, np.ones(3))


def test_cache_looks_up_its_gaps_exactly_as_given():
    # quantizing gaps is the plan's; a gap 4e-15 from a planned one was
    # once snapped onto it here
    cache = ExpCache(upwind_operator(Grid1D(8), 1.0), 0.1, [0.25])
    u = np.arange(8.0)
    cache.apply(0.25, u)
    with pytest.raises(SspError, match="not planned"):
        cache.apply(0.25 + 4e-15, u)
    assert cache.gaps == [0.25]
    assert not hasattr(cache, "L") and not hasattr(cache, "dt")


def test_cache_dense_fallback():
    L = np.array([[0.0, 1.0], [-1.0, 1.0]])
    cache = ExpCache(L, 0.1, [0.5, 1.0])
    assert not cache.circulant
    assert np.allclose(_columns(lambda e: cache.apply(0.5, e), 2), expm(0.05 * L))
    assert len(cache.gaps) == 2


def test_cache_zero_dt_is_identity():
    grid = Grid1D(16)
    L = upwind_matrix(grid, 1.0)
    cache = ExpCache(L, 0.0, [0.5, 1.0])
    u = np.arange(16, dtype=float)
    assert np.allclose(cache.apply(1.0, u), u, atol=1e-12)


def test_spectral_operator_and_step_column_match_the_circulant():
    # on real-FFT coefficients the operator is a multiplication, and a
    # column of step sizes caches one exponential per row
    n = 12
    C = upwind_operator(Grid1D(n), 2.0)
    u = np.random.default_rng(3).standard_normal(n)
    uh = np.fft.rfft(u)
    assert np.allclose(np.fft.irfft(C.spectral() @ uh, n), C @ u, rtol=0, atol=1e-12)
    dts = np.array([[0.01], [0.05], [0.2]])
    batch = ExpCache(C.spectral(), dts, [0.0, 0.5, 1.0])
    rows = np.fft.irfft(batch.apply(0.5, np.broadcast_to(uh, (3, len(uh)))), n)
    for row, dt in zip(rows, dts[:, 0]):
        one = ExpCache(C, dt, [0.0, 0.5, 1.0]).apply(0.5, u)
        assert np.allclose(row, one, rtol=0, atol=1e-12)
