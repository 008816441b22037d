import re
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sspint import analysis, cli, integrators, methods, spatial
from sspint.analysis import (
    TvTrace,
    convergence_slope,
    ifrk_builder,
    ifrk_general_builder,
    lambda_sweep,
    max_tv_rise,
    max_tv_rises,
    observed_tvd_lambda,
    rk_builder,
    sweep_transition,
    total_variation,
    tv_trace,
)
from sspint.errors import NonFinite
from sspint.expm import Circulant, apply
from sspint.integrators import rk_step, shu_osher_form, spectral
from sspint.ssp_radius import _bisect
from sspint.spatial import (
    ADVECTION_BURGERS_SMOOTH,
    ADVECTION_BURGERS_STEP,
    LINEAR_ADVECTION_STEP,
    make_problem,
)


def test_total_variation_examples():
    step = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    assert total_variation(step) == pytest.approx(2.0, abs=0)
    assert total_variation(np.full(7, 3.3)) == 0.0
    assert total_variation(np.array([0.0, 1.0, 0.5])) == pytest.approx(2.0)


def test_total_variation_of_a_batch_in_any_layout_equals_its_rows():
    _, u = make_problem(ADVECTION_BURGERS_SMOOTH, a=1.0, n=50)
    for batch in (np.tile(u, (3, 1)), np.asfortranarray(np.tile(u, (3, 1))),
                  np.broadcast_to(u, (3, 50))):
        assert list(total_variation(batch)) == [total_variation(u)] * 3


def _roll_total_variation(u):
    """The periodic TV as np.roll computed it: the reference of
    ``total_variation``."""
    u = np.ascontiguousarray(u, dtype=float)
    return np.abs(u - np.roll(u, 1, axis=-1)).sum(axis=-1)


def _layouts(u):
    """u in C order and as views of other layouts with the same values."""
    yield u
    yield np.asfortranarray(u)
    yield np.ascontiguousarray(u.T).T  # transposed
    wide = np.zeros(u.shape[:-1] + (2 * u.shape[-1],), u.dtype)
    wide[..., ::2] = u
    yield wide[..., ::2]  # strided
    yield np.ascontiguousarray(u[..., ::-1])[..., ::-1]  # negative stride


_TV_ELEMENTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308]))


@settings(max_examples=150, deadline=None)
@given(
    shape=st.one_of(st.tuples(st.integers(1, 40)),
                    st.tuples(st.integers(1, 5), st.integers(1, 40))),
    data=st.data(),
    integer=st.booleans(),
)
def test_total_variation_is_bitwise_the_roll_expression(shape, data, integer):
    # any layout, integer input (converted before subtracting) and rows
    # holding NaN or inf
    if integer:
        u = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(-2**62, 2**62)))
    else:
        u = data.draw(hnp.arrays(float, shape, elements=_TV_ELEMENTS))
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, 1e308 - -1e308
        want = _roll_total_variation(u).tobytes()
        for view in _layouts(u):
            assert total_variation(view).tobytes() == want


def test_tv_trace_max_rise_clamped():
    assert TvTrace((3.0, 2.0, 1.0)).max_rise == 0.0
    assert TvTrace((1.0, 1.5, 1.2)).max_rise == pytest.approx(0.5)
    assert TvTrace((1.0,)).max_rise == 0.0


def test_max_tv_rise_zero_lambda():
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    build = ifrk_builder(methods.get("eSSPRK+(2,2)"))
    assert max_tv_rise(build, sys_, u0, 0.0, 10) == 0.0


def test_max_tv_rise_at_zero_lambda_still_builds_its_plan():
    # a NaN operator raises at lambda = 0 as at any other lambda
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    sys_ = replace(sys_, L=Circulant(np.full(33, np.nan), 64))
    build = ifrk_builder(methods.get("eSSPRK+(3,3)"))
    with pytest.raises(NonFinite, match="operator"):
        max_tv_rise(build, sys_, u0, 0.0, 3)


def test_max_tv_rise_nonfinite_is_infinite():
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)

    def build(sys, dt):
        def step(u, obs):
            raise NonFinite("blow-up")

        return step

    assert max_tv_rise(build, sys_, u0, 0.5, 3) == np.inf


def test_tv_trace_records_every_stage():
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=0.0, n=64)
    rec = methods.get("eSSPRK+(3,3)")
    trace = tv_trace(ifrk_builder(rec), sys_, u0, 0.3, 4)
    assert len(trace.values) == 1 + 4 * rec.stages
    assert trace.values[0] == pytest.approx(2.0)


def test_observed_tvd_small_grid():
    # zero wavespeed: the integrating factor is the identity, so the
    # observed coefficient reduces to the method's own SSP coefficient
    rec = methods.get("eSSPRK+(2,2)")
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=0.0, n=200)
    obs = observed_tvd_lambda(ifrk_builder(rec), sys_, u0, 2.0, 5)
    assert obs.lambda_obs == pytest.approx(1.0, abs=0.05)
    assert obs.bisection_width == 1e-3


@pytest.mark.parametrize("threshold", [np.nan, -1.0, -1e-300])
def test_threshold_must_be_nonnegative(threshold):
    # a rise is clamped at 0: a negative threshold is crossed at every
    # lambda > 0, and NaN at none, which would claim TVD everywhere
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    build = ifrk_builder(methods.get("eSSPRK+(3,3)"))
    with pytest.raises(ValueError, match="threshold"):
        observed_tvd_lambda(build, sys_, u0, 2.0, 3, threshold=threshold)
    with pytest.raises(ValueError, match="threshold"):
        analysis.prescan_bracket(build, sys_, u0, 2.0, 3, threshold)


@pytest.mark.parametrize("lambda_hi", [np.nan, np.inf, 0.0, -1.0, 1e13])
def test_observed_tvd_rejects_a_bad_bracket_before_stepping(lambda_hi):
    # a NaN or infinite lambda_hi returned lambda_obs = nan; at 1e13 the
    # float spacing (0.002) exceeds BISECTION_WIDTH, so bisection cannot stop
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)

    def build(sys, dt):
        raise AssertionError("stepped before the bracket was checked")

    with pytest.raises(ValueError, match="bracket"):
        observed_tvd_lambda(build, sys_, u0, lambda_hi, 3)


@pytest.mark.parametrize("lambda_hi", [np.nan, np.inf, -1.0, 0.0])
def test_prescan_rejects_a_bad_lambda_hi_before_stepping(lambda_hi):
    # NaN and inf returned the bracket (0.0, nan), -1 failed in the plan
    # on a negative dt, and 0 returned None, as if no lambda crossed
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)

    def build(sys, dt):
        raise AssertionError("stepped before lambda_hi was checked")

    with pytest.raises(ValueError, match="lambda_hi"):
        analysis.prescan_bracket(build, sys_, u0, lambda_hi, 3)


@pytest.mark.parametrize("problem", [LINEAR_ADVECTION_STEP, ADVECTION_BURGERS_STEP])
def test_step_counts_are_checked_on_every_path(problem):
    # linear advection's search takes the spectral path, which once stepped
    # -3 steps as 0: observed_tvd_lambda returned lambda_hi and
    # max_tv_rises [0.]; advection-Burgers steps physical rows
    sys_, u0 = make_problem(problem, a=1.0, n=64)
    build = ifrk_builder(methods.get("eSSPRK+(3,3)"))
    with pytest.raises(ValueError, match="n_steps must be nonnegative"):
        max_tv_rises(build, spectral(sys_) or sys_, u0, [1.5], -3)
    with pytest.raises(ValueError, match="n_steps must be nonnegative"):
        tv_trace(build, sys_, u0, 1.5, -3)
    for n_steps in (0, -3):  # no step reads every lambda as TVD
        with pytest.raises(ValueError, match="n_steps must be at least 1"):
            observed_tvd_lambda(build, sys_, u0, 2.0, n_steps)
        with pytest.raises(ValueError, match="n_steps must be at least 1"):
            analysis.prescan_bracket(build, sys_, u0, 2.0, n_steps)


def test_observed_tvd_returns_hi_when_never_crossing():
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=0.0, n=64)
    rec = methods.get("eSSPRK+(9,2)")  # C = 8, far above the scan ceiling
    obs = observed_tvd_lambda(ifrk_builder(rec), sys_, u0, 2.0, 3)
    assert obs.lambda_obs == 2.0


def test_lambda_sweep_records():
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=0.0, n=64)
    build = ifrk_builder(methods.get("eSSPRK+(2,2)"))
    assert lambda_sweep(build, sys_, u0, [], 5) == []
    recs = lambda_sweep(build, sys_, u0, [0.0, 0.5, 1.5], 5)
    assert [r.lam for r in recs] == [0.0, 0.5, 1.5]
    assert recs[0].max_rise == 0.0
    assert recs[0].log10_rise == -300.0  # floored log of a zero rise
    assert recs[1].max_rise <= 1e-12
    assert recs[2].max_rise > 1e-6
    assert recs[2].log10_rise == pytest.approx(np.log10(recs[2].max_rise))
    assert sweep_transition(recs, 1e-10) == 1.5
    assert sweep_transition(recs[:2], 1e-10) is None


def test_plain_rk_builder_smoke():
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    build = rk_builder(methods.get("eSSPRK(4,3)"))
    assert max_tv_rise(build, sys_, u0, 0.5, 3) <= 1e-10


def test_plain_rk_builder_plans_once_per_build(monkeypatch):
    # stepping through rk_step would rebuild the plan on every step
    plans = []
    step_plan = integrators._step_plan
    monkeypatch.setattr(integrators, "_step_plan",
                        lambda *args: plans.append(args) or step_plan(*args))
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    stepper = rk_builder(methods.get("eSSPRK(3,3)"))(sys_, 0.5 * sys_.dx)
    integrators.integrate(stepper, u0, 10)
    assert len(plans) == 1


def test_convergence_slope():
    dts = [0.1, 0.05, 0.025, 0.0125]
    assert convergence_slope([(d, d**2) for d in dts]) == pytest.approx(2.0)
    assert convergence_slope([(d, 7.3 * d**3) for d in dts]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        convergence_slope([(0.1, 0.01), (0.05, 0.0025)])
    with pytest.raises(ValueError):
        convergence_slope([(d, -(d**2)) for d in dts])
    # a NaN or infinite error once read as a slope of nan, and a NaN dt
    # reached LAPACK, which printed to stderr and raised LinAlgError
    for bad in (np.nan, np.inf):
        for points in ([(0.1, bad), (0.2, 1.0), (0.3, 2.0)],
                       [(bad, 0.01), (0.2, 1.0), (0.3, 2.0)]):
            with pytest.raises(ValueError, match="positive and finite"):
                convergence_slope(points)


_NONDECREASING = [r.name for r in methods.list_methods() if r.nondecreasing]


@settings(max_examples=40, deadline=None)
@given(
    builder=st.sampled_from([ifrk_builder, rk_builder, ifrk_general_builder]),
    name=st.sampled_from(_NONDECREASING),
    n=st.integers(8, 64),
    a=st.floats(0.0, 20.0),
    fracs=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4),
)
def test_batched_spectral_rises_match_physical(builder, name, n, a, fracs):
    # the batched stage gains on real-FFT coefficients against one
    # physical run per lambda; past the TVD limit stages grow, and roundoff
    # grows with the TVs compared
    rec = methods.get(name)
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=a, n=n)
    lams = [f * (1.5 * rec.claimed_C + 0.75) for f in fracs]
    build = builder(rec)
    fast = max_tv_rises(build, spectral(sys_), u0, lams, 3)
    for lam, got in zip(lams, fast):
        want = max_tv_rise(build, sys_, u0, lam, 3)
        tol = 1e-12 * max(1.0, total_variation(u0) + want)
        assert abs(got - want) <= tol, (lam, got, want)


@pytest.mark.parametrize("builder", [ifrk_builder, rk_builder, ifrk_general_builder])
def test_spectral_build_runs_the_stage_loop_once(monkeypatch, builder):
    # the loop forms the stage gains once per build; every step after it
    # is one multiplication.  Every builder steps the name analysis binds;
    # integrators' own is patched too, so no other route goes uncounted
    calls = []
    loop = integrators.step
    for module in (integrators, analysis):
        monkeypatch.setattr(module, "step",
                            lambda *args: calls.append(1) or loop(*args))
    rec = methods.get("eSSPRK+(5,4)")
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=10.0, n=64)
    rises = max_tv_rises(builder(rec), spectral(sys_), u0, [0.5, 1.0, 2.5], 10)
    assert calls == [1]
    assert np.isfinite(rises).all() and rises[2] > 1e-6


def test_batch_with_one_nonfinite_lambda():
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=0.0, n=64)
    build = ifrk_builder(methods.get("eSSPRK+(3,3)"))
    spec = spectral(sys_)
    rises = max_tv_rises(build, spec, u0, [0.0, 0.4, 1e300, 1.3], 4)
    assert max_tv_rise(build, sys_, u0, 1e300, 4) == np.inf
    assert rises[0] == 0.0 and rises[2] == np.inf
    assert rises[1] == max_tv_rises(build, spec, u0, [0.4], 4)[0]
    assert rises[3] == max_tv_rises(build, spec, u0, [1.3], 4)[0]
    assert rises[3] > 1e-6


@pytest.mark.parametrize("problem", [LINEAR_ADVECTION_STEP, ADVECTION_BURGERS_STEP])
def test_nonfinite_operator_is_an_error_not_a_rise(problem):
    sys_, u0 = make_problem(problem, a=1.0, n=64)
    sys_ = replace(sys_, L=Circulant(np.full(33, np.nan), 64))
    build = ifrk_builder(methods.get("eSSPRK+(3,3)"))
    for scan in (sys_, spectral(sys_) or sys_):
        with pytest.raises(NonFinite, match="operator"):
            max_tv_rises(build, scan, u0, [0.1, 0.2], 3)


def _per_lambda(build, sys_, u0, lam, n_steps):
    """The rise of one 1-D physical run (``tv_trace``), the reference every
    batched rise is compared against: inf on a blow-up, 0 at lambda = 0."""
    if lam == 0.0:
        return 0.0
    try:
        return tv_trace(build, sys_, u0, lam, n_steps).max_rise
    except NonFinite:
        return np.inf


def test_chunked_prescan_matches_single_chunk_and_physical(monkeypatch):
    rec = methods.get("eSSPRK+(4,3)")
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=10.0, n=64)
    build = ifrk_builder(rec)
    found = {}
    for label, elements in (("chunks of 3", 3 * 64), ("one chunk", 10**9)):
        monkeypatch.setattr(analysis, "BATCH_ELEMENTS", elements)
        found[label] = observed_tvd_lambda(build, sys_, u0, 2.5, 5).lambda_obs
    # without a linear explicit term there is no spectral system: batches
    # of physical rows
    found["physical"] = observed_tvd_lambda(
        build, replace(sys_, N=sys_.N.__matmul__), u0, 2.5, 5).lambda_obs
    assert len(set(found.values())) == 1, found
    assert 1.0 < found["physical"] < 2.5


def test_nonlinear_circulant_search_runs_in_batches():
    # advection-Burgers has a circulant L but no spectral system: its
    # pre-scan steps batches of physical rows, and finds what a search of
    # one tv_trace per lambda finds
    sys_, u0 = make_problem(ADVECTION_BURGERS_STEP, a=10.0, n=64)
    inner = ifrk_builder(methods.get("eSSPRK+(5,4)"))
    shapes = []

    def build(sys, dt):
        shapes.append(np.shape(dt))
        return inner(sys, dt)

    hi, steps, threshold = 2.0, 10, 1e-4
    got = observed_tvd_lambda(build, sys_, u0, hi, steps, threshold).lambda_obs
    assert shapes[0][1:] == (1,) and shapes[0][0] > 1

    def tvd(lam):
        return _per_lambda(inner, sys_, u0, lam, steps) <= threshold

    grid = np.linspace(hi / analysis.PRESCAN_POINTS, hi, analysis.PRESCAN_POINTS)
    i = next(i for i, lam in enumerate(grid) if not tvd(lam))
    assert i > 0
    lo, up = _bisect(tvd, grid[i - 1], grid[i], analysis.BISECTION_WIDTH)
    assert got == 0.5 * (lo + up)


def test_wrapped_explicit_term_keeps_the_spectral_path():
    # a tracer replaces sys.N by a plain wrapper; the path and the
    # answer must not change
    rec = methods.get("eSSPRK+(5,4)")
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=100)
    want = observed_tvd_lambda(ifrk_builder(rec), sys_, u0, 3.0, 4).lambda_obs
    calls = []
    inner = sys_.N

    def wrapped(u):
        calls.append(1)
        return inner(u)

    object.__setattr__(sys_, "N", wrapped)
    got = observed_tvd_lambda(ifrk_builder(rec), sys_, u0, 3.0, 4).lambda_obs
    assert got == want
    assert calls == []


def test_a_replaced_explicit_term_drops_the_linear_one():
    # replace once kept the upwind N_linear beside a WENO5 N, so the search
    # stepped the linear system: 1.5015625 against 0.0003125
    lin, u0 = make_problem(LINEAR_ADVECTION_STEP, a=10.0, n=64)

    def f(v):
        return spatial.weno5_burgers_rhs(spatial.Grid1D(64), v)

    replaced = replace(lin, N=f)
    assert replaced.N_linear is None and spectral(replaced) is None
    direct = integrators.SemiDiscretization(n=64, L=lin.L, N=f, dx=lin.dx)
    build = ifrk_builder(methods.get("eSSPRK+(3,3)"))
    got, want = (observed_tvd_lambda(build, s, u0, 2.0, 5).lambda_obs
                 for s in (replaced, direct))
    assert got == want


_SWEEP_BUILDERS = {"ifrk": ifrk_builder, "rk": rk_builder,
                   "ifrk-general": ifrk_general_builder}


@pytest.mark.parametrize("builder", sorted(_SWEEP_BUILDERS))
@pytest.mark.parametrize("name", ["eSSPRK+(3,3)", "eSSPRK+(5,4)", "eSSPRK+(9,3)"])
def test_tv_trace_of_a_spectral_system_is_the_scan_and_the_physical_trace(name, builder):
    # tv_trace once handed physical values to a spectral system's stepper
    build = _SWEEP_BUILDERS[builder](methods.get(name))
    for a in (0.0, 1.0, 10.0):
        sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=a, n=128)
        spec = spectral(sys_)
        for lam in (0.3, 1.1, 2.7):
            got = tv_trace(build, spec, u0, lam, 4)
            assert got.max_rise == max_tv_rise(build, spec, u0, lam, 4)
            phys = np.array(tv_trace(build, sys_, u0, lam, 4).values)
            assert (np.abs(got.values - phys) <= 1e-12 * phys).all()  # relative


@settings(max_examples=40, deadline=None)
@given(
    stepper=st.sampled_from(sorted(_SWEEP_BUILDERS)),
    name=st.sampled_from(["eSSPRK+(3,3)", "eSSPRK+(5,4)", "eSSPRK+(2,2)"]),
    problem=st.sampled_from([ADVECTION_BURGERS_STEP, ADVECTION_BURGERS_SMOOTH,
                             LINEAR_ADVECTION_STEP]),
    n=st.integers(8, 128),
    a=st.floats(0.0, 20.0),
    lams=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6),
    blowup_at=st.integers(0, 6),
    rows_per_chunk=st.integers(1, 4),
)
# an initial batch laid out in Fortran order summed its stage-0 TVs in
# another order than the 1-D run: a rise differing by 2e-15
@example(stepper="ifrk", name="eSSPRK+(3,3)", problem=ADVECTION_BURGERS_SMOOTH,
         n=50, a=1.0, lams=[0.5, 1.0], blowup_at=2, rows_per_chunk=2)
# ex4's problem at its n = 400: batches of real-FFT products and WENO5 rows
@example(stepper="ifrk", name="eSSPRK+(5,4)", problem=ADVECTION_BURGERS_STEP,
         n=400, a=10.0, lams=[0.05, 0.5, 1.0, 2.0], blowup_at=6, rows_per_chunk=3)
@example(stepper="rk", name="eSSPRK+(5,4)", problem=ADVECTION_BURGERS_STEP,
         n=400, a=10.0, lams=[0.05, 0.5, 1.0, 2.0], blowup_at=6, rows_per_chunk=3)
def test_lambda_sweep_matches_per_lambda_bitwise(stepper, name, problem, n, a,
                                                 lams, blowup_at, rows_per_chunk):
    # batches of physical rows against one 1-D run per lambda: bitwise
    # equal, in chunks of any size.  lambda = 1e300 overflows under most
    # steppers and problems, so its chunk is re-run one lambda at a time
    sys_, u0 = make_problem(problem, a=a, n=n)
    build = _SWEEP_BUILDERS[stepper](methods.get(name))
    lams.insert(min(blowup_at, len(lams)), 1e300)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "BATCH_ELEMENTS", rows_per_chunk * n)
        recs = lambda_sweep(build, sys_, u0, lams, 3)
    want = [_per_lambda(build, sys_, u0, lam, 3) for lam in lams]
    assert [r.lam for r in recs] == lams
    assert [r.max_rise for r in recs] == want
    assert [r.log10_rise for r in recs] == [
        float(np.log10(max(w, analysis.LOG_FLOOR))) for w in want]


def test_lambda_scan_on_a_dense_operator_matches_the_circulant_one():
    # a dense L steps its lambdas as a batch of physical rows, one stack of
    # Pade-13 exponentials per gap; N acts on each row, as the system's
    # contract asks, where N.__matmul__ would take a batch as columns
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=10.0, n=64)
    grid = spatial.Grid1D(64)
    N = spatial.upwind_matrix(grid, 1.0)
    dense = replace(sys_, L=spatial.upwind_matrix(grid, 10.0), N=partial(apply, N))
    build = ifrk_builder(methods.get("eSSPRK+(5,4)"))
    lams = np.linspace(0.5, 3.0, 6)
    want = max_tv_rises(build, sys_, u0, lams, 5)
    assert np.abs(max_tv_rises(build, dense, u0, lams, 5) - want).max() <= 1e-12
    recs = lambda_sweep(build, dense, u0, lams, 5)
    assert [r.lam for r in recs] == list(lams)
    assert np.abs(np.array([r.max_rise for r in recs]) - want).max() <= 1e-12


def test_lambda_sweep_blowups_read_inf():
    # eSSPRK(10,4) as plain RK blows up on advection-Burgers past
    # lambda ~ 0.56 (ex4); a chunk holding a blow-up is re-run per lambda
    sys_, u0 = make_problem(ADVECTION_BURGERS_STEP, a=10.0, n=64)
    build = rk_builder(methods.get("eSSPRK(10,4)"))
    lams = [0.3, 1.3, 0.5, 2.0]
    recs = lambda_sweep(build, sys_, u0, lams, 3)
    want = [_per_lambda(build, sys_, u0, lam, 3) for lam in lams]
    assert [r.max_rise for r in recs] == want
    assert want[1] == want[3] == np.inf
    assert np.isfinite(want[0]) and np.isfinite(want[2])


def _reference_stage_tvs(stepper, u, n_steps, n, threshold=None):
    """The spectral stage loop with fresh arrays at every step and the
    roll TV: the reference of ``_stage_tvs`` on real-FFT rows.  It ignores
    a threshold, so every rise it gives is the full one."""
    rows = []
    stepper(np.ones_like(u), rows.append)
    G, values = np.stack(rows), [_roll_total_variation(np.fft.irfft(u, n))[None]]
    for _ in range(n_steps):
        V = G * u
        integrators._check_finite(V, "a stage")
        values.append(_roll_total_variation(np.fft.irfft(V, n)))
        u = V[-1]
    return np.concatenate(values)


def _gain_stepper(G):
    """A spectral stepper whose stages from u are G[i] * u."""

    def stepper(u, obs):
        for g in G:
            obs(g * u)
        return G[-1] * u

    return stepper


def _complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@settings(max_examples=60, deadline=None)
@given(s=st.integers(1, 6), k=st.integers(1, 5), n=st.integers(1, 40),
       n_steps=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_spectral_stage_loop_is_bitwise_the_reference(s, k, n, n_steps, seed):
    # buffers reused at every step, against fresh arrays at every step
    rng = np.random.default_rng(seed)
    m = n // 2 + 1
    G, u = _complex(rng, (s, k, m), 0.7), _complex(rng, (k, m))
    want = _reference_stage_tvs(_gain_stepper(G), u, n_steps, n)
    got = analysis._stage_tvs(_gain_stepper(G), u.copy(), n_steps, n)
    assert got.shape == want.shape == (1 + n_steps * s, k)
    assert got.tobytes() == want.tobytes()


def _crossing_step(tvs, s, threshold):
    """The first step at whose end column 0's rise over tvs exceeds the
    threshold, or the last step when none does."""
    n_steps = (len(tvs) - 1) // s
    return next((t for t in range(1, n_steps + 1)
                 if np.diff(tvs[:1 + s * t, 0]).max() > threshold), n_steps)


_STOP_CASES = dict(s=st.integers(1, 6), k=st.integers(1, 5), n=st.integers(2, 40),
                   n_steps=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
                   q=st.floats(0.0, 1.2))


@settings(max_examples=60, deadline=None)
@given(**_STOP_CASES)
def test_a_loop_with_a_threshold_ends_with_the_step_row_0_crosses_in(
        s, k, n, n_steps, seed, q):
    # the reference's first 1 + s t rows, t the first step at whose end
    # column 0's rise exceeds the threshold, or every step when none does
    rng = np.random.default_rng(seed)
    m = n // 2 + 1
    G, u = _complex(rng, (s, k, m), 0.7), _complex(rng, (k, m))
    want = _reference_stage_tvs(_gain_stepper(G), u, n_steps, n)
    threshold = q * np.diff(want[:, 0]).max()
    t = _crossing_step(want, s, threshold)
    got = analysis._stage_tvs(_gain_stepper(G), u.copy(), n_steps, n, threshold)
    assert got.shape == (1 + s * t, k)
    assert got.tobytes() == want[:1 + s * t].tobytes()


@settings(max_examples=60, deadline=None)
@given(**_STOP_CASES)
def test_physical_rows_with_a_threshold_end_with_the_step_row_0_crosses_in(
        s, k, n, n_steps, seed, q):
    # the same rule on physical rows, which call their stepper only t times
    rng = np.random.default_rng(seed)
    G, u = 0.7 * rng.standard_normal((s, k, n)), rng.standard_normal((k, n))
    stepper, calls = _gain_stepper(G), []
    want = analysis._stage_tvs(stepper, u, n_steps, n)
    threshold = q * np.diff(want[:, 0]).max()
    t = _crossing_step(want, s, threshold)
    got = analysis._stage_tvs(lambda v, obs: calls.append(1) or stepper(v, obs),
                              u, n_steps, n, threshold)
    assert len(calls) == t
    assert got.tobytes() == want[:1 + s * t].tobytes()


def test_a_stage_whose_irfft_overflows_is_nonfinite():
    # finite coefficients of 1e308 whose irfft overflows: their TVs are NaN,
    # which a pre-scan would read as TVD
    u = np.full((1, 9), 1e308 + 0j)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFinite, match="a stage"):
        analysis._stage_tvs(_gain_stepper(np.ones((1, 1, 9), complex)), u, 2, 16)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
def test_a_nonfinite_coefficient_in_one_stage_is_nonfinite(bad):
    rng = np.random.default_rng(0)
    G, u = _complex(rng, (4, 3, 9), 0.7), _complex(rng, (3, 9))
    G[2, 1, 4] = bad
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFinite, match="a stage"):
        analysis._stage_tvs(_gain_stepper(G), u, 3, 16)


def _scaled_stage_stepper(scale, v, obs):
    """A one-stage stepper observing v * scale and returning v."""
    obs(v * scale)
    return v


@pytest.mark.parametrize("threshold", [None, 1e-10])
def test_a_physical_stage_whose_tv_overflows_is_nonfinite(threshold):
    # finite stages of 1e308 whose TV overflows, as on real-FFT rows
    u = np.tile([0.0, 1.0], 4)
    with np.errstate(over="ignore"), pytest.raises(NonFinite, match="a stage"):
        analysis._stage_tvs(partial(_scaled_stage_stepper, 1e308), u, 3, 8, threshold)


def test_a_physical_tv_overflow_reads_as_an_infinite_rise():
    # the lambda whose TV overflows reads inf, not NaN; the other keeps its rise
    sys_, _ = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    u0 = np.tile([0.0, 1.0], 32)

    def build(sys, dt):
        return partial(_scaled_stage_stepper, np.where(dt > 0.7 * sys.dx, 1e308, 1.0))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert max_tv_rises(build, sys_, u0, [0.5, 1.0], 3).tolist() == [0.0, np.inf]
        assert max_tv_rise(build, sys_, u0, 1.0, 3) == np.inf


def test_spectral_stage_loop_calls_do_not_share_results():
    rng = np.random.default_rng(0)
    first_G, first_u = _complex(rng, (4, 3, 9)), _complex(rng, (3, 9))
    first = analysis._stage_tvs(_gain_stepper(first_G), first_u, 5, 16)
    kept = first.copy()
    second = analysis._stage_tvs(_gain_stepper(_complex(rng, (4, 3, 9))),
                                 _complex(rng, (3, 9)), 5, 16)
    assert first.tobytes() == kept.tobytes() != second.tobytes()
    assert first.tobytes() == _reference_stage_tvs(
        _gain_stepper(first_G), first_u, 5, 16).tobytes()


def _full_rise_search(build, sys_, u0, hi, n_steps, threshold):
    """(pre-scan bracket, lambda_obs) of a search on full rises: every
    pre-scan point stepped to the end, then ``_bisect`` on one lambda."""
    scan = spectral(sys_) or sys_
    grid = np.linspace(hi / analysis.PRESCAN_POINTS, hi, analysis.PRESCAN_POINTS)
    above = np.flatnonzero(max_tv_rises(build, scan, u0, grid, n_steps) > threshold)
    if not above.size:
        return None, float(hi)
    i = above[0]
    bracket = (grid[i - 1] if i else 0.0, grid[i])
    lo, up = _bisect(
        lambda mid: max_tv_rises(build, scan, u0, [mid], n_steps)[0] <= threshold,
        *bracket, analysis.BISECTION_WIDTH)
    return bracket, float(0.5 * (lo + up))


def _hex(bracket):
    return None if bracket is None else [float(x).hex() for x in bracket]


def _search_agrees(rec, sys_, u0, hi, n_steps, threshold):
    build = (ifrk_builder if rec.nondecreasing else rk_builder)(rec)
    bracket, lam = _full_rise_search(build, sys_, u0, hi, n_steps, threshold)
    got = analysis.prescan_bracket(build, sys_, u0, hi, n_steps, threshold)
    assert _hex(got) == _hex(bracket)
    obs = observed_tvd_lambda(build, sys_, u0, hi, n_steps, threshold)
    assert obs.lambda_obs.hex() == lam.hex()


_WAVESPEEDS = [0.0, 1.0, 10.0, 20.0]


@pytest.mark.parametrize("a", _WAVESPEEDS)
def test_searches_that_stop_at_the_first_crossing_equal_full_rise_searches(a):
    # every registry method at one wavespeed, each wavespeed on a quarter of
    # the registry: IF plans where the abscissas allow, else plain RK
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=a, n=200)
    for rec in methods.list_methods()[_WAVESPEEDS.index(a)::len(_WAVESPEEDS)]:
        _search_agrees(rec, sys_, u0, 1.5 * rec.claimed_C + 0.75, 10,
                       analysis.DEFAULT_THRESHOLD)


@pytest.mark.parametrize("name", ["eSSPRK+(3,3)", "eSSPRK+(5,4)", "eSSPRK(10,4)"])
def test_burgers_searches_that_stop_at_the_first_crossing_equal_full_rise_searches(name):
    # physical rows, plain RK eSSPRK(10,4) blowing up inside its pre-scan
    rec = methods.get(name)
    sys_, u0 = make_problem(ADVECTION_BURGERS_STEP, a=10.0, n=64)
    _search_agrees(rec, sys_, u0, 1.5 * rec.claimed_C + 0.75, 10, 1e-4)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(methods.method_names()), n=st.integers(8, 128),
       a=st.floats(0.0, 20.0), hi=st.floats(0.05, 8.0), n_steps=st.integers(1, 8),
       log_threshold=st.floats(-14.0, -2.0), rows_per_chunk=st.integers(1, 60))
def test_stopping_search_equals_full_rise_search_on_any_grid(
        name, n, a, hi, n_steps, log_threshold, rows_per_chunk):
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=a, n=n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "BATCH_ELEMENTS", rows_per_chunk * n)
        _search_agrees(methods.get(name), sys_, u0, hi, n_steps, 10.0**log_threshold)


def test_a_crossing_probe_steps_fewer_rows_than_a_passing_one(monkeypatch):
    # each spectral step is one irfft of its stage batch: count the rows
    rows = []
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft",
                        lambda a, *args, **kw: rows.append(a.size // a.shape[-1])
                        or irfft(a, *args, **kw))
    rec = methods.get("eSSPRK+(5,4)")
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=10.0, n=200)
    build, spec, steps = ifrk_builder(rec), spectral(sys_), 10

    def stepped(lams, threshold=None):
        rows.clear()
        chunks = analysis._rise_chunks(build, spec, u0, np.array(lams), steps, threshold)
        rises = np.concatenate([r for _, r in chunks])
        return rises, sum(rows)

    threshold = analysis.DEFAULT_THRESHOLD
    (passing,), passing_rows = stepped([0.5], threshold)
    (crossing,), crossing_rows = stepped([3.0], threshold)
    assert passing <= threshold < crossing
    assert passing_rows == 1 + steps * rec.stages  # every step, one row each
    assert crossing_rows < passing_rows
    # a chunk whose first lambda crosses ends with that step; one whose
    # first lambda passes steps every row to the end, with full rises
    lams = [3.0, 0.5, 4.0]
    full, full_rows = stepped(lams)
    stopped, stopped_rows = stepped(lams, threshold)
    assert full_rows == len(lams) * passing_rows
    assert stopped_rows < full_rows and stopped[0] > threshold
    lams = [0.5, 0.6, 3.0, 0.7, 4.0]
    full, full_rows = stepped(lams)
    stopped, stopped_rows = stepped(lams, threshold)
    assert stopped_rows == full_rows == len(lams) * passing_rows
    assert stopped.tobytes() == full.tobytes() and stopped[2] > threshold


def test_physical_rows_stop_with_the_step_their_first_row_crosses_in():
    # advection-Burgers has no spectral form, so its chunks step physical
    # rows; the steps after the one in which row 0 crosses are no-ops.
    # Here 0.5 crosses in the fourth step, 0.3 in the first, 0.1 never
    rec = methods.get("eSSPRK+(5,4)")
    sys_, u0 = make_problem(ADVECTION_BURGERS_SMOOTH, a=1.0, n=64)
    inner, steps, threshold = ifrk_builder(rec), 10, 3e-3
    calls = []

    def build(sys, dt):
        stepper = inner(sys, dt)
        return lambda u, obs: calls.append(1) or stepper(u, obs)

    def rises(lams, threshold=None):
        calls.clear()
        chunks = analysis._rise_chunks(build, sys_, u0, np.array(lams), steps, threshold)
        return next(chunks)[1]

    (rise,) = rises([0.5], threshold)
    assert len(calls) == 4
    full = tv_trace(inner, sys_, u0, 0.5, steps).values
    assert rise == np.diff(full[:1 + 4 * rec.stages]).max() > threshold
    assert np.diff(full[:1 + 3 * rec.stages]).max() <= threshold
    rises([0.5, 0.1], threshold)
    assert len(calls) == 4
    stopped = rises([0.1, 0.3], threshold)
    assert len(calls) == steps and stopped[0] <= threshold < stopped[1]
    assert stopped.tobytes() == rises([0.1, 0.3]).tobytes()


def test_searches_stop_at_their_threshold_and_other_scans_never(monkeypatch):
    # the pre-scan and every bisection probe may stop at the search's
    # threshold; a sweep, max_tv_rise and tv_trace keep full rises
    seen = []
    loop = analysis._stage_tvs
    monkeypatch.setattr(analysis, "_stage_tvs",
                        lambda *args: seen.append(args[4:]) or loop(*args))
    rec = methods.get("eSSPRK+(3,3)")
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    build = ifrk_builder(rec)
    observed_tvd_lambda(build, sys_, u0, 2.0, 5, threshold=1e-9)
    assert len(seen) > 1 and set(seen) == {(1e-9,)}
    seen.clear()
    lambda_sweep(build, sys_, u0, [0.5, 1.5], 5)
    max_tv_rise(build, spectral(sys_), u0, 1.5, 5)
    tv_trace(build, sys_, u0, 1.5, 5)
    assert set(seen) <= {(None,), ()} and len(seen) == 3


def test_lambda_sweep_rises_are_those_of_the_reference_loop(monkeypatch):
    # no threshold: a spectral sweep steps every row to the end, bitwise
    # as the loop with fresh arrays at every step
    rec = methods.get("eSSPRK+(5,4)")
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=10.0, n=200)
    build, spec = ifrk_builder(rec), spectral(sys_)
    lams = np.linspace(0.05, 3.0, 30)
    got = [r.max_rise for r in lambda_sweep(build, spec, u0, lams, 10)]
    monkeypatch.setattr(analysis, "_stage_tvs", _reference_stage_tvs)
    want = [r.max_rise for r in lambda_sweep(build, spec, u0, lams, 10)]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert want[-1] > 1e-6


def test_nonfinite_prescan_chunk_reruns_only_up_to_the_crossing():
    # plain-RK eSSPRK(10,4) on advection-Burgers blows up from lambda ~ 0.56
    # (ex4); its first 10-row chunk turns non-finite, and the pre-scan
    # re-runs that chunk's lambdas one at a time only up to the first
    # crossing, not all ten first
    sys_, u0 = make_problem(ADVECTION_BURGERS_STEP, a=10.0, n=400)
    inner = rk_builder(methods.get("eSSPRK(10,4)"))
    shapes = []

    def build(sys, dt):
        shapes.append(np.shape(dt))
        return inner(sys, dt)

    hi, steps, threshold = 9.75, 25, 1e-4
    lo, up = analysis.prescan_bracket(build, sys_, u0, hi, steps, threshold)
    grid = np.linspace(hi / analysis.PRESCAN_POINTS, hi, analysis.PRESCAN_POINTS)
    i = int(np.flatnonzero(grid == up)[0])
    assert lo == grid[i - 1] and i < 9
    assert shapes == [(10, 1)] + [(1, 1)] * (i + 1)
    assert _per_lambda(inner, sys_, u0, up, steps) > threshold
    assert all(_per_lambda(inner, sys_, u0, lam, steps) <= threshold for lam in grid[:i])


def _bits(u) -> bytes:
    return np.asarray(u, dtype=float).tobytes()


def _rk_step_run(so, u0, dt, n_steps):
    """(steps completed, state, NonFinite message or None) of n_steps of
    rk_step on the van der Pol 2-vector."""
    u = np.array(u0, dtype=float)
    with np.errstate(all="ignore"):  # a blow-up overflows NumPy scalars
        for k in range(n_steps):
            try:
                u = rk_step(so, spatial.van_der_pol_full, u, dt)
            except NonFinite as e:
                return k, u, str(e)
    return n_steps, u, None


def _rk2_run(so, u0, dt, n_steps):
    try:
        return _bits(analysis._rk2_steps(so, spatial.van_der_pol_rhs, u0, dt, n_steps))
    except NonFinite as e:
        return str(e)


@pytest.mark.parametrize("name", methods.method_names())
def test_two_float_steps_equal_rk_step_bitwise(name):
    so = shu_osher_form(methods.get(name))
    _, want, _ = _rk_step_run(so, (2.0, 0.0), 1e-2, 200)
    assert _rk2_run(so, (2.0, 0.0), 1e-2, 200) == _bits(want)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0),
       dt=st.floats(0.0, 0.05, exclude_min=True),
       name=st.sampled_from(methods.method_names()))
def test_two_float_steps_match_rk_step_from_any_start(x, y, dt, name):
    so = shu_osher_form(methods.get(name))
    _, want, msg = _rk_step_run(so, (x, y), dt, 20)
    assert _rk2_run(so, (x, y), dt, 20) == (msg or _bits(want))


@pytest.mark.parametrize("name", methods.method_names())
def test_two_float_steps_raise_on_rk_steps_stage(name):
    # from (3, 3) every registry method blows up within a few steps at
    # one of these dt; both paths must raise on the same step and stage
    so = shu_osher_form(methods.get(name))
    for dt in (0.5, 1.0, 2.0):
        k, u, msg = _rk_step_run(so, (3.0, 3.0), dt, 50)
        if msg is not None:
            break
    assert msg is not None
    assert _rk2_run(so, (3.0, 3.0), dt, k) == _bits(u)
    with pytest.raises(NonFinite, match=re.escape(msg)):
        analysis._rk2_steps(so, spatial.van_der_pol_rhs, (3.0, 3.0), dt, k + 1)


@pytest.mark.parametrize("u0", [(1e200, 0.0), (1e200, 1.0)])
def test_two_float_steps_treat_an_overflowing_rhs_as_rk_step_does(u0):
    # x ** 2 raises OverflowError on Python floats and gives inf on NumPy
    # scalars; either way the first stage using that slope is non-finite
    so = shu_osher_form(methods.get("eSSPRK(10,4)"))
    with pytest.raises(OverflowError):
        spatial.van_der_pol_rhs(*u0)
    k, _, msg = _rk_step_run(so, u0, 1e-2, 1)
    assert (k, msg) == (0, "stage 1 contains NaN or Inf")
    assert _rk2_run(so, u0, 1e-2, 1) == msg


def test_van_der_pol_reference_is_pinned():
    # the ex1 reference, bitwise as rk_step computed it, and the constant
    # run ex1 reads in its place
    u = analysis.van_der_pol_reference()
    assert [float(v).hex() for v in u] == ["0x1.d674c41aa053cp+0", "-0x1.11ad0ec0f45fep-1"]
    assert _bits(u) == _bits(analysis.VAN_DER_POL_REFERENCE)
    assert cli.van_der_pol_errors is analysis.van_der_pol_errors


def _per_dt_errors(rec, splitting, dts, uref):
    """The reference loop of ``van_der_pol_errors``: each dt integrated on
    its own, as a 2-vector."""
    sys_, u0 = make_problem(spatial.VAN_DER_POL, splitting=splitting)
    out = []
    for dt in dts:
        n = max(1, round(analysis.VAN_DER_POL_T / dt))
        dta = analysis.VAN_DER_POL_T / n
        u = integrators.integrate(ifrk_general_builder(rec)(sys_, dta), u0, n)
        out.append((dta, float(np.abs(u - uref).max())))
    return out


@pytest.mark.parametrize("splitting", ["a", "b"])
@pytest.mark.parametrize("name", methods.method_names())
def test_batched_van_der_pol_errors_equal_the_per_dt_loop(name, splitting):
    # ex1's default dts, the same unsorted, and 0.04 and 0.041, which both
    # take 12 steps; uref = 0 reads max(|x|, |y|) of the state itself, and
    # the dts may come as an iterator, read once
    rec = methods.get(name)
    for dts in ([0.02, 0.04, 0.06, 0.08, 0.10], [0.06, 0.1, 0.02, 0.08, 0.04],
                [0.041, 0.1, 0.04]):
        for uref in (np.array(analysis.VAN_DER_POL_REFERENCE), np.zeros(2)):
            got = analysis.van_der_pol_errors(rec, splitting, iter(dts), uref)
            assert got == _per_dt_errors(rec, splitting, dts, uref)


@pytest.mark.parametrize("bad", [np.nan, -0.3, 0.0, np.inf, 1e-320])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_van_der_pol_errors_check_every_dt_before_any_step(bad, where, monkeypatch):
    def no_step(*args):
        raise AssertionError("a step ran before every dt was checked")

    monkeypatch.setattr(analysis, "integrate", no_step)
    dts = [0.02, 0.04]
    dts.insert(where, bad)
    with pytest.raises(ValueError, match="positive and finite"):
        analysis.van_der_pol_errors(methods.get("eSSPRK+(3,3)"), "a", dts, np.zeros(2))


def test_van_der_pol_errors_share_the_reference_step_rule():
    # a dt above 2T once took round(T / dt) = 0 steps (ZeroDivisionError),
    # NaN failed to convert to a step count and a negative dt reached the plan
    rec, uref = methods.get("eSSPRK+(3,3)"), np.array([2.0, 0.0])
    [(dta, err)] = analysis.van_der_pol_errors(rec, "a", [2.0], uref)
    sys_, u0 = make_problem(spatial.VAN_DER_POL, splitting="a")
    u = integrators.integrate(ifrk_general_builder(rec)(sys_, 0.5), u0, 1)
    assert dta == analysis.VAN_DER_POL_T and err == float(np.abs(u - uref).max())
    for dt in (np.nan, -0.3, 0.0, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            analysis.van_der_pol_errors(rec, "a", [dt], uref)
