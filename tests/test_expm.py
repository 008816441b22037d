import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sspint import methods
from sspint.analysis import ifrk_general_builder, max_tv_rises
from sspint.errors import NonFinite, SspError
from sspint.expm import (
    Circulant,
    ExpCache,
    circulant_matrix,
    expm,
    quantize_gap,
)
from sspint.integrators import SemiDiscretization
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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 6), n=st.integers(1, 4))
def test_a_stack_of_exponentials_has_the_bits_of_each_matrix_alone(data, k, n):
    # entries in [-1, 1] times a scale in [0, 25]: 1-norms from 0 to 100,
    # so one stack mixes matrices with no squaring and with several
    M = data.draw(hnp.arrays(float, (k, n, n), elements=st.floats(-1.0, 1.0)))
    M = M * data.draw(hnp.arrays(float, (k, 1, 1), elements=st.floats(0.0, 25.0)))
    E = expm(M)
    assert E.shape == M.shape
    for m, e in zip(M, E):
        assert expm(m).tobytes() == e.tobytes()
    index = data.draw(st.tuples(*(st.integers(0, d - 1) for d in M.shape)))
    M[index] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(NonFinite):
        expm(M)


@settings(max_examples=30, deadline=None)
@given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
    lambda s: len(s) == 1 or s[-1] != s[-2]))
def test_expm_rejects_a_vector_and_non_square_trailing_dimensions(shape):
    with pytest.raises(ValueError, match="^expm requires a square matrix$"):
        expm(np.zeros(shape))


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


@pytest.mark.parametrize("n", [8, 9, 13, 400, 401])
def test_real_fft_product_matches_the_dense_circulant(n):
    # odd n takes irfft's odd-length branch; a batch of rows and a batched
    # exponential (one step size per row) give each row's 1-D product bitwise
    rng = np.random.default_rng(n)
    col = rng.standard_normal(n)
    U = rng.standard_normal((10, n))
    op = Circulant.from_column(col)
    M = circulant_matrix(col)
    tol = 1e-12 * np.abs(col).sum() * np.abs(U).max()
    assert np.abs(op @ U[0] - M @ U[0]).max() <= tol
    batch = op @ U
    assert batch.shape == U.shape
    assert np.abs(batch - U @ M.T).max() <= tol
    for row, got in zip(U, batch):
        assert np.array_equal(op @ row, got)
    L = upwind_operator(Grid1D(n), 10.0)
    taus = np.linspace(0.05, 0.5, 10)[:, None] / n
    for tau, row, got in zip(taus[:, 0], U, L.exp(taus) @ U):
        assert np.array_equal(L.exp(tau) @ row, got)


def test_a_batched_exponential_has_the_shape_of_its_operator():
    L = upwind_operator(Grid1D(400), 10.0)
    E = L.exp(np.linspace(0.05, 0.5, 10)[:, None] / 400)
    assert E.symbol.shape == (10, 201)
    assert L.shape == E.shape == (400, 400)


def test_the_spectral_form_keeps_the_rows_and_shape_of_its_operator():
    # each row of a batched exponential is one step size's half symbol,
    # and the shape is the operator's, not the half symbol's length
    L = upwind_operator(Grid1D(400), 10.0)
    assert L.spectral().shape == L.shape == (400, 400)
    taus = np.linspace(0.05, 0.5, 10)[:, None] / 400
    S = L.exp(taus).spectral()
    assert S.symbol.shape == (10, 201)
    assert S.shape == (400, 400)
    for tau, row in zip(taus[:, 0], S.symbol):
        assert np.array_equal(row, L.exp(tau).spectral().symbol)


def test_a_circulant_rejects_complex_values():
    # the complex product kept only the real part of a complex u; complex
    # values are real-FFT coefficients, which spectral() acts on
    op = upwind_operator(Grid1D(16), 1.0)
    u = np.arange(16.0)
    with pytest.raises(TypeError, match=r"spectral\(\)"):
        op @ (u + 1j)
    with pytest.raises(TypeError, match=r"spectral\(\)"):
        ExpCache(op, 0.1, [1.0]).apply(1.0, np.fft.fft(u))
    with pytest.raises(TypeError, match="must be real"):
        Circulant.from_column(u + 1j)


def test_a_circulant_column_must_be_one_dimensional():
    # a (3, 8) array once gave n = 3 and a (2, 8) symbol: the FFT ran
    # along the last axis and the half was taken along the first
    with pytest.raises(ValueError, match=r"1-D, got shape \(3, 8\)"):
        Circulant.from_column(np.ones((3, 8)))
    with pytest.raises(ValueError, match="1-D"):
        Circulant.from_column(np.float64(1.0))


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


@pytest.mark.parametrize("n, nu, dense", [(400, 10.0, False), (16, 100.0, True)],
                         ids=["circulant", "dense"])
def test_an_overflowing_backward_exponential_is_nonfinite_without_a_warning(n, nu, dense):
    # eSSPRK(3,3)'s backward gap on a stiff diffusion L: e^(|g| dt L) overflows.
    # Building the plan warned "overflow encountered in exp", and stepping it
    # "invalid value encountered in multiply"; the step now raises, and a scan
    # reads that lambda alone as a blow-up
    col = np.zeros(n)
    col[0], col[1], col[-1] = -2.0 * nu * n * n, nu * n * n, nu * n * n
    grid = Grid1D(n)
    L = circulant_matrix(col) if dense else Circulant.from_column(col)
    sys_ = SemiDiscretization(n=n, L=L, N=upwind_operator(grid, 1.0), dx=grid.dx)
    u0 = ((grid.x >= 0.25) & (grid.x <= 0.75)).astype(float)
    build = ifrk_general_builder(methods.get("eSSPRK(3,3)"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stepper = build(sys_, 0.5 * grid.dx)
        with pytest.raises(NonFinite, match="the exponential at gap -0.5 overflows"):
            stepper(u0)
        rises = max_tv_rises(build, sys_, u0, [1e-9, 0.5, 1e-8], 5)
    assert np.isfinite(rises[[0, 2]]).all() and rises[1] == np.inf
