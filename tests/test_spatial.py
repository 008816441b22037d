import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspint.errors import NonFinite
from sspint.spatial import (
    ADVECTION_BURGERS_SMOOTH,
    ADVECTION_BURGERS_STEP,
    LINEAR_ADVECTION_STEP,
    VAN_DER_POL,
    Grid1D,
    make_problem,
    upwind_matrix,
    van_der_pol_full,
    van_der_pol_splitting,
    weno5_burgers_rhs,
)


def test_grid_basics():
    g = Grid1D(10)
    assert g.dx == 0.1
    assert np.allclose(g.x, np.arange(10) * 0.1)
    with pytest.raises(ValueError):
        Grid1D(4)
    assert type(Grid1D(np.int64(10)).n) is int


@pytest.mark.parametrize("n", [8.5, 64.0, "64"])
def test_a_grid_size_that_is_not_an_integer_is_rejected(n):
    # a float size once passed as a grid, and broke inside the upwind column
    with pytest.raises(TypeError):
        Grid1D(n)
    with pytest.raises(TypeError):
        make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=n)


def test_upwind_matrix_structure():
    g = Grid1D(8)
    M = upwind_matrix(g, 2.0)
    assert M[0, 0] == pytest.approx(-16.0)
    assert M[1, 0] == pytest.approx(16.0)
    assert M[0, 7] == pytest.approx(16.0)  # periodic wrap
    assert np.allclose(M @ np.ones(8), 0.0)  # constants are steady states


def test_upwind_matrix_rejects_negative_wavespeed():
    with pytest.raises(ValueError):
        upwind_matrix(Grid1D(8), -1.0)


@pytest.mark.parametrize("a", [np.inf, np.nan])
@pytest.mark.parametrize("problem", [LINEAR_ADVECTION_STEP, ADVECTION_BURGERS_STEP])
def test_make_problem_rejects_a_nonfinite_wavespeed(problem, a):
    # inf built a NaN operator, and NumPy warned in its fft
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="wavespeed must be finite"):
            make_problem(problem, a=a, n=64)


@pytest.mark.parametrize("build", [
    lambda: make_problem(LINEAR_ADVECTION_STEP, a=1e308, n=64),
    lambda: upwind_matrix(Grid1D(64), 1e308),
], ids=["make_problem", "upwind_matrix"])
def test_a_wavespeed_whose_upwind_symbol_overflows_is_nonfinite(build):
    # a finite a with a / dx = inf: its fft warned, and the dense matrix
    # held +-inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="overflows"):
            build()


def test_upwind_matrix_is_first_order_derivative():
    g = Grid1D(256)
    u = np.sin(2 * np.pi * g.x)
    du_exact = -2.0 * 2 * np.pi * np.cos(2 * np.pi * g.x)
    err = np.abs(upwind_matrix(g, 2.0) @ u - du_exact).max()
    assert err < 2.0 * 2 * np.pi * (2 * np.pi * g.dx)


def test_weno5_constant_state():
    g = Grid1D(32)
    assert np.allclose(weno5_burgers_rhs(g, np.full(32, 0.7)), 0.0, atol=1e-13)


def test_weno5_rejects_nonfinite():
    g = Grid1D(32)
    u = np.ones(32)
    u[3] = np.nan
    with pytest.raises(NonFinite):
        weno5_burgers_rhs(g, u)


def test_weno5_high_order_on_smooth_data():
    # spatial truncation error should shrink much faster than low order
    # schemes when refining a smooth profile
    errs = []
    for n in (64, 128, 256):
        g = Grid1D(n)
        u = np.exp(np.sin(2 * np.pi * g.x))
        du = u * (2 * np.pi * np.cos(2 * np.pi * g.x))
        exact = -u * du
        errs.append(np.abs(weno5_burgers_rhs(g, u) - exact).max())
    slope = np.polyfit(
        np.log([1 / 64, 1 / 128, 1 / 256]), np.log(errs), 1
    )[0]
    assert slope >= 4.5


def test_make_problem_shapes_and_initial_data():
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=3.0, n=100)
    assert sys_.L.shape == (100, 100)
    assert u0.min() == 0.0 and u0.max() == 1.0
    assert u0[30] == 1.0 and u0[10] == 0.0  # supported on [1/4, 3/4]

    sys2, v0 = make_problem(ADVECTION_BURGERS_STEP, a=1.0, n=100)
    assert v0[20] == 1.0 and v0[60] == 0.0  # supported on [0, 1/2]

    _, w0 = make_problem(ADVECTION_BURGERS_SMOOTH, a=1.0, n=100)
    assert w0.min() > 0.0

    with pytest.raises(ValueError):
        make_problem("nope")


def test_linear_advection_nonlinear_part_is_unit_upwind():
    sys_, _ = make_problem(LINEAR_ADVECTION_STEP, a=5.0, n=64)
    g = Grid1D(64)
    M1 = upwind_matrix(g, 1.0)
    u = np.sin(2 * np.pi * g.x) + 0.3
    assert np.allclose(sys_.N(u), M1 @ u, atol=1e-10)


def test_van_der_pol_splittings_sum_to_full_rhs():
    u = np.array([1.7, -0.4])
    full = van_der_pol_full(u)
    for which in ("a", "b"):
        L, N = van_der_pol_splitting(which)
        assert np.allclose(L @ u + N(u), full, atol=1e-14), which
    with pytest.raises(ValueError):
        van_der_pol_splitting("c")


@pytest.mark.parametrize("which", ["a", "b"])
def test_van_der_pol_N_gives_each_row_of_a_batch_the_bits_of_its_own_call(which):
    # NumPy's array power squares, x * x, where a NumPy scalar's power is libm
    # pow; at this x the two differ in the last bit, and ex1's bits are pow's
    x = float.fromhex("0x1.cf44069e4c810p+0")
    assert x * x != x ** 2
    _, N = van_der_pol_splitting(which)
    rows = np.array([[x, 1.0], [2.0, 0.0], [x, -0.7], [-1.3, 0.25]])
    for k in (1, 4):
        batch = N(rows[:k])
        assert batch.shape == (k, 2)
        for row, got in zip(rows, batch):
            assert N(row).tobytes() == got.tobytes()
    want = -(x ** 2) if which == "a" else 1.0 - x ** 2
    assert N(rows[0]).tolist() == [0.0, want]


def test_van_der_pol_problem():
    sys_, u0 = make_problem(VAN_DER_POL, splitting="b")
    assert np.array_equal(u0, [2.0, 0.0])
    assert sys_.L.shape == (2, 2)


@pytest.mark.parametrize("n", [8, 13, 64, 400])
def test_weno5_batch_rows_equal_single_calls(n):
    # each row of a (k, n) batch has its own alpha = max|u| and wraps
    # around its own ends; the result must be bitwise that of a 1-D call
    rng = np.random.default_rng(n)
    g = Grid1D(n)
    u = rng.standard_normal((5, n)) * np.array([[1e-3], [1.0], [10.0], [1.0], [0.0]])
    u[1, : n // 2] = 0.0
    batch = weno5_burgers_rhs(g, u)
    assert batch.shape == u.shape
    for row, got in zip(u, batch):
        assert np.array_equal(weno5_burgers_rhs(g, row), got)


@pytest.mark.parametrize("grid, u, error", [
    (Grid1D(400), np.sin(2 * np.pi * Grid1D(64).x), ValueError),
    (Grid1D(8), np.ones(3), ValueError),
    (Grid1D(8), np.ones((3, 9)), ValueError),
    (Grid1D(8), np.float64(1.0), ValueError),
    (Grid1D(8), np.ones(8) + 1j, TypeError),
], ids=["other-grid", "short", "batch-other-grid", "scalar", "complex"])
def test_weno5_refuses_a_state_that_does_not_fit_its_grid(grid, u, error):
    # a 64-point state on a 400-point grid came back 400/64 too large, a
    # 3-point one as zeros, a complex one without its imaginary part, and
    # a 0-d one as an IndexError
    with pytest.raises(error, match="grid|real values"):
        weno5_burgers_rhs(grid, u)


def _weno5_textbook(grid, u):
    """The WENO5 right-hand side of one row as the classical formulas
    read, each stencil point a rolled copy of the flux."""
    def reconstruct(fm2, fm1, f0, fp1, fp2):
        q0 = (2 * fm2 - 7 * fm1 + 11 * f0) / 6.0
        q1 = (-fm1 + 5 * f0 + 2 * fp1) / 6.0
        q2 = (2 * f0 + 5 * fp1 - fp2) / 6.0
        b0 = 13.0 / 12.0 * (fm2 - 2 * fm1 + f0) ** 2 + 0.25 * (fm2 - 4 * fm1 + 3 * f0) ** 2
        b1 = 13.0 / 12.0 * (fm1 - 2 * f0 + fp1) ** 2 + 0.25 * (fm1 - fp1) ** 2
        b2 = 13.0 / 12.0 * (f0 - 2 * fp1 + fp2) ** 2 + 0.25 * (3 * f0 - 4 * fp1 + fp2) ** 2
        w0 = 0.1 / (1e-6 + b0) ** 2
        w1 = 0.6 / (1e-6 + b1) ** 2
        w2 = 0.3 / (1e-6 + b2) ** 2
        return (w0 * q0 + w1 * q1 + w2 * q2) / (w0 + w1 + w2)

    f = 0.5 * u * u
    alpha = np.abs(u).max()
    fp, fm = 0.5 * (f + alpha * u), 0.5 * (f - alpha * u)
    fhat = (reconstruct(*(np.roll(fp, k) for k in (2, 1, 0, -1, -2)))
            + reconstruct(*(np.roll(fm, k) for k in (-3, -2, -1, 0, 1))))
    return -(fhat - np.roll(fhat, 1)) / grid.dx


@pytest.mark.parametrize("n", [8, 9, 64, 400])
def test_weno5_equals_the_textbook_formulas_bitwise(n):
    rng = np.random.default_rng(n)
    g = Grid1D(n)
    for scale in (1e-3, 1.0, 50.0):
        u = rng.standard_normal(n) * scale
        u[: n // 3] = 0.0  # flat zero flux: the signs of zeros must match too
        want, got = _weno5_textbook(g, u), weno5_burgers_rhs(g, u)
        assert np.array_equal(want, got)
        assert np.array_equal(np.signbit(want), np.signbit(got))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_weno5_batch_rows_are_their_own_calls_and_the_textbook(data):
    # the stencils run along one buffer of all rows; each row's values must
    # still read only its own row, even next to a row whose stencils
    # overflow, and raise no warning (the suite makes warnings errors)
    k = data.draw(st.integers(1, 12), label="k")
    n = data.draw(st.integers(8, 80), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((k, n))
    u *= np.array(data.draw(st.lists(st.sampled_from([1e-3, 1.0, 50.0]),
                                     min_size=k, max_size=k), label="scales"))[:, None]
    for row in data.draw(st.lists(st.integers(0, k - 1), max_size=k), label="zeroed"):
        start = data.draw(st.integers(0, n - 1), label="start")
        u[row, start:start + data.draw(st.integers(1, n), label="run")] = 0.0
    huge = data.draw(st.none() | st.integers(0, k - 1), label="huge")
    if huge is not None:
        u[huge] *= 1e150
    g = Grid1D(n)
    batch = weno5_burgers_rhs(g, u)
    assert batch.shape == (k, n)
    for row, got in zip(u, batch):
        assert weno5_burgers_rhs(g, row).tobytes() == got.tobytes()
        if np.isfinite(got).all():
            want = _weno5_textbook(g, row)
            assert np.array_equal(want, got)
            assert np.array_equal(np.signbit(want), np.signbit(got))
