import dataclasses
import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sspint import methods
from sspint.errors import NonFinite, SingularTransform
from sspint.expm import Circulant, circulant_matrix
from sspint.integrators import rk_step
from sspint.spatial import Grid1D, upwind_matrix, upwind_operator
from sspint.ssp_radius import (
    RADIUS_WIDTH,
    _circulant_symbol,
    _horner,
    _parseval_norms,
    _polynomial_coefficients,
    canonical_form,
    exceeds,
    is_absolutely_monotonic,
    linear_bound,
    observed_l2_cfl,
    ssp_radius,
    stability_polynomial,
)
from sspint.tableau import ButcherTableau


def test_radius_of_classic_methods():
    assert ssp_radius(methods.get("eSSPRK(2,2)").tableau).radius == pytest.approx(
        1.0, abs=1e-3
    )
    assert ssp_radius(methods.get("eSSPRK(3,3)").tableau).radius == pytest.approx(
        1.0, abs=1e-3
    )
    assert ssp_radius(methods.get("eSSPRK+(4,3)").tableau).radius == pytest.approx(
        20.0 / 11.0, abs=1e-3
    )


def test_canonical_form_nonnegative_at_radius():
    t = methods.get("eSSPRK(3,3)").tableau
    can = canonical_form(t, 1.0)
    assert can.v.min() >= -1e-12
    assert can.P.min() >= -1e-12


#: every registry radius, pinned bitwise.
REGISTRY_RADII = {
    "eSSPRK(10,4)": 5.999999999985448,
    "eSSPRK(2,2)": 1.0,
    "eSSPRK(3,3)": 0.9999999999417923,
    "eSSPRK(4,3)": 2.0,
    "eSSPRK(5,4)": 1.5081800491316244,
    "eSSPRK+(10,2)": 8.999999999941792,
    "eSSPRK+(2,2)": 1.0,
    "eSSPRK+(3,2)": 1.9999999999708962,
    "eSSPRK+(3,3)": 0.75,
    "eSSPRK+(4,2)": 3.0,
    "eSSPRK+(4,3)": 1.8181818181765266,
    "eSSPRK+(5,2)": 3.9999999999417923,
    "eSSPRK+(5,4)": 1.3465864172758302,
    "eSSPRK+(6,2)": 4.999999999970896,
    "eSSPRK+(6,4)": 2.273802749288734,
    "eSSPRK+(7,2)": 5.99999999996362,
    "eSSPRK+(8,2)": 7.0,
    "eSSPRK+(9,2)": 7.999999999949068,
    "eSSPRK+(9,3)": 5.999999999978172,
}


def test_registry_radii_pinned():
    got = {name: ssp_radius(methods.get(name).tableau).radius
           for name in methods.method_names()}
    assert got == REGISTRY_RADII


def _reference_radius(t, width=1e-10):
    """The radius as bisected before probes shared the guarded inverse: one
    canonical (v, P) per probe, guarded by np.linalg.norm."""
    S = t.stacked

    def holds(r):
        M = np.eye(S.shape[0]) + r * S
        try:
            R = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            R = np.full_like(M, np.nan)
        cond = np.linalg.norm(M, 1) * np.linalg.norm(R, 1)
        if cond > 1e14 or (np.isnan(cond) and not np.isnan(M).any()):
            raise SingularTransform(f"(I + rS) is numerically singular at r = {r}")
        v, P = R @ np.ones(S.shape[0]), r * (R @ S)
        return v.min() >= -1e-12 and P.min() >= -1e-12

    lo, hi = 0.0, 2.0 * t.stages
    if holds(hi):
        return hi
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def test_registry_radii_match_the_reference_bitwise():
    for name in methods.method_names():
        t = methods.get(name).tableau
        assert ssp_radius(t).radius.hex() == _reference_radius(t).hex(), name


@settings(max_examples=60, deadline=None)
@given(s=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1), signed=st.booleans())
def test_random_radii_match_the_reference_bitwise(s, seed, signed):
    rng = np.random.default_rng(seed)
    A = np.tril(rng.uniform(-0.2 if signed else 0.0, 1.0, (s, s)), -1)
    w = rng.uniform(-0.2 if signed else 0.05, 1.0, s)
    b = np.append(w[:-1], 1.0 - w[:-1].sum())
    t = ButcherTableau(A=A, b=b, c=A.sum(axis=1))
    try:
        want = _reference_radius(t).hex()
    except SingularTransform:
        with pytest.raises(SingularTransform):
            ssp_radius(t)
    else:
        assert ssp_radius(t).radius.hex() == want


@pytest.mark.parametrize("A, b", [
    # (I + 6S)^(-1) holds (6e5)^2, so ||M||_1 ||M^-1||_1 passes 1e14 at r = 2s
    ([[0, 0, 0], [1e5, 0, 0], [0, 1e5, 0]], [0.25, 0.25, 0.5]),
    # at r = 2s the column sums give 1.3e14 where the row sums give 6.4e13
    ([[0, 0], [2e6, 0]], [0.75, 0.25]),
], ids=["large", "column-sums"])
def test_singular_probe_raises_as_the_reference_does(A, b):
    t = ButcherTableau.from_arrays(A, b)
    for radius in (ssp_radius, _reference_radius):
        with pytest.raises(SingularTransform):
            radius(t)


def test_canonical_form_inverts_once(monkeypatch):
    inverses = []
    inv = np.linalg.inv

    def counting(M):
        inverses.append(M)
        return inv(M)

    def no_cond(*args):
        raise AssertionError("np.linalg.cond inverts a second time")

    monkeypatch.setattr(np.linalg, "inv", counting)
    monkeypatch.setattr(np.linalg, "cond", no_cond)
    can = canonical_form(methods.get("eSSPRK+(5,4)").tableau, 1.0)
    assert len(inverses) == 1
    assert np.array_equal(can.v, inv(inverses[0]) @ np.ones(6))


def test_canonical_form_singular_guard():
    # ||M||_1 ||M^-1||_1 passes 1e14 between r = 1e2 and 1e3
    t = methods.get("eSSPRK(10,4)").tableau
    canonical_form(t, 1e2)
    with pytest.raises(SingularTransform):
        canonical_form(t, 1e3)


def test_canonical_form_exactly_singular_pivot_is_singular_transform(monkeypatch):
    # LAPACK's LU reports an exactly zero pivot for some unit lower
    # triangular matrices with entries near 1e3; np.linalg.cond(M, 1)
    # reads that as an infinite condition number
    def zero_pivot(M):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", zero_pivot)
    with pytest.raises(SingularTransform):
        canonical_form(methods.get("eSSPRK(3,3)").tableau, 1.0)


def test_ssp_radius_probes_build_no_other_form(monkeypatch):
    # one guarded inverse per bisection probe, no canonical form, and no
    # r = 0 probe or final form
    guards, probes, inverses = [], [], []
    radius_module = importlib.import_module("sspint.ssp_radius")
    guard, probe, inv = (radius_module._inverse, radius_module.is_absolutely_monotonic,
                         np.linalg.inv)
    monkeypatch.setattr(radius_module, "_inverse",
                        lambda t, r: guards.append(r) or guard(t, r))
    monkeypatch.setattr(radius_module, "is_absolutely_monotonic",
                        lambda t, r: probes.append(r) or probe(t, r))
    monkeypatch.setattr(radius_module, "canonical_form",
                        lambda t, r: pytest.fail("a probe built a canonical form"))
    monkeypatch.setattr(np.linalg, "inv", lambda M: inverses.append(M) or inv(M))
    t = methods.get("eSSPRK+(4,3)").tableau
    rr = ssp_radius(t)
    assert guards == probes and 0.0 not in probes
    assert probes[0] == 2.0 * t.stages and len(probes) == 1 + 37
    assert len(inverses) == len(probes)
    assert [f.name for f in dataclasses.fields(rr)] == ["radius", "bisection_width"]


def test_monotonicity_fails_past_radius():
    t = methods.get("eSSPRK(3,3)").tableau
    assert is_absolutely_monotonic(t, 1.0)
    assert not is_absolutely_monotonic(t, 1.2)


def test_feasibility_is_an_interval():
    t = methods.get("eSSPRK+(4,3)").tableau
    r = ssp_radius(t).radius
    for ri in np.linspace(0.0, r, 20):
        assert is_absolutely_monotonic(t, ri)


def _random_tableau(rng, s, signed):
    A = np.tril(rng.uniform(-0.2 if signed else 0.0, 1.0, (s, s)), -1)
    w = rng.uniform(-0.2 if signed else 0.05, 1.0, s)
    return ButcherTableau(A=A, b=np.append(w[:-1], 1.0 - w[:-1].sum()), c=A.sum(axis=1))


@settings(max_examples=60, deadline=None)
@given(s=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1), signed=st.booleans())
def test_exceeds_agrees_with_the_full_radius(s, seed, signed):
    # three random tableaux and a copy of the first nudged by 1e-9, so that
    # some radii lie a few bisection steps apart
    rng = np.random.default_rng(seed)
    ts = [_random_tableau(rng, s, signed) for _ in range(3)]
    A = ts[0].A * (1.0 + 1e-9)
    ts.append(ButcherTableau(A=A, b=ts[0].b, c=A.sum(axis=1)))
    try:
        radii = [ssp_radius(t).radius for t in ts]
        got = [[exceeds(t, C) for C in radii] for t in ts]
    except SingularTransform:
        assume(False)
    assert got == [[R > C for C in radii] for R in radii]


def test_exceeds_reads_the_pinned_registry_radii():
    # a radius never exceeds itself, and exceeds the grid point one
    # bisection step below it (the grid of [0, 2s] halved down to the width)
    for name in ("eSSPRK(3,3)", "eSSPRK+(4,3)", "eSSPRK+(6,4)", "eSSPRK(4,3)"):
        t = methods.get(name).tableau
        h = 2.0 * t.stages
        while h > RADIUS_WIDTH:
            h *= 0.5
        C = ssp_radius(t).radius
        assert not exceeds(t, C), name
        assert exceeds(t, C - h), name


@pytest.mark.parametrize("s", range(2, 11))
def test_linear_bound_of_second_order_is_s_minus_one(s):
    assert linear_bound(s, 2) == pytest.approx(s - 1, abs=1e-5)


#: R_lin(s, p) from a linear program (Kraaijevanger, 1986; Ketcheson, 2009).
LINEAR_BOUNDS = {
    3: dict(zip(range(3, 11), (1, 2, 2.65063, 3.51839, 4.28791, 5.10715, 6, 6.78529))),
    4: dict(zip(range(5, 11), (2, 2.65063, 3.51839, 4.28791, 5.10715, 6))),
}


@pytest.mark.parametrize("p, s", [(p, s) for p in LINEAR_BOUNDS for s in LINEAR_BOUNDS[p]])
def test_linear_bound_matches_the_linear_program(p, s):
    assert linear_bound(s, p) == pytest.approx(LINEAR_BOUNDS[p][s], abs=1e-5)


def test_no_registry_method_passes_the_linear_bound():
    for rec in methods.list_methods():
        assert rec.claimed_C <= linear_bound(rec.stages, rec.order) + 1e-8, rec.name


@pytest.mark.parametrize("s, p", [(3, 0), (3, 4), (0, 1)])
def test_linear_bound_rejects_an_order_outside_one_to_s(s, p):
    with pytest.raises(ValueError):
        linear_bound(s, p)


def test_stability_polynomial_third_order():
    # every 3-stage 3rd-order explicit method shares 1 + z + z^2/2 + z^3/6
    for name in ("eSSPRK(3,3)", "eSSPRK+(3,3)"):
        t = methods.get(name).tableau
        for z in (0.3 - 0.7j, -1.5 + 0.0j, 2.0 + 1.0j):
            expect = 1 + z + z**2 / 2 + z**3 / 6
            assert stability_polynomial(t, z) == pytest.approx(expect, abs=1e-13)


def test_stability_polynomial_trivial_values():
    t22 = methods.get("eSSPRK(2,2)").tableau
    assert stability_polynomial(t22, 0.0) == pytest.approx(1.0, abs=0)
    assert stability_polynomial(t22, -2.0) == pytest.approx(1.0, abs=1e-14)


def test_stability_polynomial_matches_scalar_step():
    # one RK step of u' = (z/dt) u multiplies u by R(z)
    rec = methods.get("eSSPRK(5,4)")
    z, dt = -0.8, 0.1
    u = rk_step(rec, lambda v: (z / dt) * v, np.array([1.0]), dt)
    R = stability_polynomial(rec.tableau, z)
    assert abs(u[0] - R.real) <= 1e-13 * abs(R.real)


def test_observed_l2_cfl_zero_operator():
    t = methods.get("eSSPRK(3,3)").tableau
    assert observed_l2_cfl(t, np.zeros((8, 8)), 3.5, n_steps=20) == 3.5


def test_observed_l2_cfl_small_upwind():
    # coarse version of the wavespeed-11 probe; the fine-grid value is
    # pinned by the acceptance suite
    grid = Grid1D(100)
    M = upwind_matrix(grid, 11.0) * grid.dx
    t = methods.get("eSSPRK(3,3)").tableau
    lam = observed_l2_cfl(t, M, 0.3, n_steps=200)
    assert 0.08 <= lam <= 0.16


def _stage_loop_step(t, M, lam, u):
    """Reference: one step of u' = lam*M*u with dt = 1 through the Butcher
    stages, one M @ y per stage."""
    zs = []  # lam * M @ y for every stage y
    for i in range(t.stages):
        y = u.copy()
        for j in range(i):
            if t.A[i, j] != 0.0:
                y = y + t.A[i, j] * zs[j]
        zs.append(lam * (M @ y))
    for j in range(t.stages):
        if t.b[j] != 0.0:
            u = u + t.b[j] * zs[j]
    return u


def _forward_substitution(t, z):
    """Reference: R(z) = 1 + z b^T (I - zA)^(-1) e by forward substitution."""
    y = np.zeros(t.stages, dtype=complex)
    for i in range(t.stages):
        y[i] = 1.0 + z * (t.A[i, :i] @ y[:i])
    return complex(1.0 + z * (t.b @ y))


@settings(max_examples=200, deadline=None)
@given(
    s=st.integers(1, 5),
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    lam=st.floats(0.0, 1.0),
    circulant=st.booleans(),
)
def test_horner_step_matches_stage_loop(s, n, seed, lam, circulant):
    rng = np.random.default_rng(seed)
    A = np.tril(rng.uniform(-1.0, 1.0, (s, s)), -1)
    b = rng.uniform(0.01, 1.0, s)
    t = ButcherTableau(A=A, b=b / b.sum(), c=A.sum(axis=1))
    if circulant:
        M = Circulant.from_column(rng.uniform(-1.0, 1.0, n))
    else:
        M = rng.uniform(-1.0, 1.0, (n, n))
    u = rng.standard_normal(n)

    gamma = _polynomial_coefficients(t)
    step = _horner(gamma, lambda w: lam * (M @ w), u)
    ref = _stage_loop_step(t, M, lam, u)
    assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)

    z = complex(*rng.uniform(-2.0, 2.0, 2))
    expect = _forward_substitution(t, z)
    assert abs(stability_polynomial(t, z) - expect) <= 1e-13 * max(1.0, abs(expect))


@settings(max_examples=200, deadline=None)
@given(
    s=st.integers(1, 5),
    n=st.integers(8, 64),
    seed=st.integers(0, 2**32 - 1),
    lam=st.floats(0.0, 2.0),
    n_steps=st.integers(1, 40),
)
def test_parseval_norms_match_horner_and_stage_loop(s, n, seed, lam, n_steps):
    rng = np.random.default_rng(seed)
    A = np.tril(rng.uniform(-1.0, 1.0, (s, s)), -1)
    b = rng.uniform(0.01, 1.0, s)
    t = ButcherTableau(A=A, b=b / b.sum(), c=A.sum(axis=1))
    col = rng.uniform(-1.0, 1.0, n)
    col /= np.abs(col).sum()  # |mu_k| <= 1, so |lam mu_k| <= 2
    M = Circulant.from_column(col)
    u = rng.standard_normal(n)
    gamma = _polynomial_coefficients(t)

    parseval = np.concatenate(list(_parseval_norms(gamma, M.symbol, lam, u, n_steps)))
    dense, horner, stages, v, w = circulant_matrix(col), [], [], u, u
    for _ in range(n_steps):
        v = _horner(gamma, lambda x: lam * (dense @ x), v)
        w = _stage_loop_step(t, M, lam, w)
        horner.append(np.linalg.norm(v))
        stages.append(np.linalg.norm(w))
    assert parseval.shape == (n_steps,)
    assert np.all(np.abs(parseval - horner) <= 1e-12 * np.array(horner))
    assert np.all(np.abs(parseval - stages) <= 1e-12 * np.array(horner))


def _advection_operators(n):
    """The probe's operator, wavespeed 11 at unit grid spacing, as a dense
    array and as a ``Circulant``."""
    grid = Grid1D(n)
    return (upwind_matrix(grid, 11.0) * grid.dx,
            upwind_operator(grid, 11.0 * grid.dx))


@pytest.mark.parametrize("seed", range(4))
def test_observed_l2_cfl_exact_path_matches_horner(seed, monkeypatch):
    # the value table8-partial writes, for every operator form and path
    t = methods.get("eSSPRK(3,3)").tableau
    dense, circulant = _advection_operators(1000)
    assert observed_l2_cfl(t, dense, 0.2, seed=seed) == 0.11406250000000001
    assert observed_l2_cfl(t, circulant, 0.2, seed=seed) == 0.11406250000000001
    radius_module = importlib.import_module("sspint.ssp_radius")
    monkeypatch.setattr(radius_module, "_circulant_symbol", lambda M: None)
    assert observed_l2_cfl(t, circulant, 0.2, seed=seed) == 0.11406250000000001


class _CountingArray(np.ndarray):
    """A dense operator that counts its products M @ w."""

    matmuls = 0

    def __matmul__(self, other):
        type(self).matmuls += 1
        return super().__matmul__(other)


def test_dense_circulant_probe_makes_no_matvec():
    t = methods.get("eSSPRK(3,3)").tableau
    dense, circulant = _advection_operators(64)
    _CountingArray.matmuls = 0
    value = observed_l2_cfl(t, dense.view(_CountingArray), 0.2, 50)
    assert _CountingArray.matmuls == 0
    assert value == observed_l2_cfl(t, circulant, 0.2, 50) == 0.11484375000000001


def test_the_spectral_form_reads_the_circulant_value():
    # a Spectral M is the same circulant: its n is the operator's, not the
    # length of its half symbol
    t = methods.get("eSSPRK(3,3)").tableau
    M = upwind_operator(Grid1D(64), 11 / 64)
    value = observed_l2_cfl(t, M, 0.4, 50)
    assert observed_l2_cfl(t, M.spectral(), 0.4, 50) == value == 0.11484375000000001


def test_perturbed_dense_operator_is_stepped():
    # not circulant, so Horner stepping gives the value it always gave;
    # taken for the circulant of its first column it would read 0.11484375
    t = methods.get("eSSPRK(3,3)").tableau
    M = _advection_operators(64)[0].view(_CountingArray)
    M[40, 7] += 5.0
    _CountingArray.matmuls = 0
    assert observed_l2_cfl(t, M, 0.2, 50) == 0.11406250000000001
    assert _CountingArray.matmuls > 0


@pytest.mark.parametrize("entry", [(0, 1), (262, 500), (263, 0), (999, 998), (999, 999),
                                   (0, 999)])  # only the wrap compares (0, 999)
def test_circulant_check_sees_one_changed_entry(entry):
    # n = 1000 is compared in blocks of 263 rows
    M = _advection_operators(1000)[0]
    assert np.array_equal(_circulant_symbol(M), Circulant.from_column(M[:, 0]).symbol)
    M[entry] = np.nextafter(M[entry], np.inf)
    assert _circulant_symbol(M) is None


def test_circulant_check_makes_no_square_temporary():
    M = _advection_operators(1000)[0]
    tracemalloc.start()
    try:
        _circulant_symbol(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < M.size  # one byte per entry: less than an n x n bool array


@pytest.mark.parametrize("lambda_max, n_steps, match", [
    (np.inf, 10, "lambda_max"),  # bisecting [0, inf] never ends
    (np.nan, 10, "lambda_max"),
    (-0.1, 10, "lambda_max"),
    (0.0, 10, "lambda_max"),
    (0.2, 0, "n_steps"),
    (0.2, -3, "n_steps"),
    (0.2, 2.5, "n_steps"),  # Parseval would take 3 steps, Horner none
])
def test_observed_l2_cfl_rejects_bad_inputs(lambda_max, n_steps, match):
    t = methods.get("eSSPRK(3,3)").tableau
    for M in _advection_operators(64):
        with pytest.raises(ValueError, match=match):
            observed_l2_cfl(t, M, lambda_max, n_steps)


@pytest.mark.parametrize("form", ["dense", "dense circulant", "circulant"])
def test_observed_l2_cfl_rejects_nonfinite_operator(form):
    t = methods.get("eSSPRK(3,3)").tableau
    dense, circulant = _advection_operators(64)
    if form == "dense":
        dense[3, 5] = np.nan
    elif form == "dense circulant":
        dense = circulant_matrix(np.where(dense[:, 0] != 0.0, dense[:, 0], np.inf))
    else:
        circulant.symbol[7] = np.nan
    with pytest.raises(NonFinite):
        observed_l2_cfl(t, circulant if form == "circulant" else dense, 0.2, 10)
