import dataclasses
import importlib
import re
from functools import partial

import numpy as np
import pytest

from sspint import methods, spatial
from sspint.analysis import ifrk_builder, max_tv_rise, rk_builder
from sspint.errors import NegativeGap, NonFinite
from sspint.expm import ExpCache, build_cache, expm
from sspint.integrators import (
    SemiDiscretization,
    StepPlan,
    ifrk_step,
    integrate,
    make_general_plan,
    make_plan,
    rk_plan,
    rk_step,
    shu_osher_form,
    spectral,
)
from sspint.methods import FAMILY_PLUS, MethodRecord
from sspint.optimizer import OptimizationSpec, optimize, verify_certificate
from sspint.spatial import (
    ADVECTION_BURGERS_STEP,
    LINEAR_ADVECTION_STEP,
    VAN_DER_POL,
    make_problem,
)
from sspint.ssp_radius import ssp_radius
from sspint.tableau import ButcherTableau


def test_rk_step_scalar_hand_value():
    # u' = u, u0 = 1, dt = 0.1 with a 3rd-order method multiplies by
    # 1 + 0.1 + 0.01/2 + 0.001/6
    rec = methods.get("eSSPRK(3,3)")
    u = rk_step(rec, lambda v: v, np.array([1.0]), 0.1)
    assert u[0] == pytest.approx(1.1051666666666666, abs=1e-15)


def test_spectral_of_a_spectral_system_is_itself():
    # a second real-FFT slice of the symbol would halve it: a wrong operator
    sys_, _ = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    spec = spectral(sys_)
    assert spectral(spec) is spec
    assert spectral(dataclasses.replace(sys_, N=sys_.N.__matmul__)) is None


def test_a_circulant_explicit_term_is_its_own_linear_part():
    grid = spatial.Grid1D(64)
    N = spatial.upwind_operator(grid, 1.0)
    sys_ = SemiDiscretization(n=64, L=spatial.upwind_operator(grid, 2.0), N=N, dx=grid.dx)
    assert sys_.N_linear is N
    u = np.random.default_rng(3).standard_normal((5, 64))
    for v in (u[0], u):
        assert np.array_equal(N(v), N @ v)
    # a callable N has no linear part, whatever it computes
    assert dataclasses.replace(sys_, N=N.__matmul__).N_linear is None


def test_n_linear_is_read_from_n_and_never_set():
    sys_, _ = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    with pytest.raises(TypeError, match="N_linear"):
        SemiDiscretization(n=64, L=sys_.L, N=sys_.N, dx=sys_.dx, N_linear=sys_.N)
    with pytest.raises(ValueError, match="N_linear"):
        dataclasses.replace(sys_, N_linear=None)


def test_rk_step_nonfinite_detection():
    rec = methods.get("eSSPRK(2,2)")
    with pytest.raises(NonFinite):
        rk_step(rec, lambda v: v * np.inf, np.array([1.0]), 0.1)


def test_every_plan_rejects_a_negative_step():
    # make_plan once stepped eSSPRK+(3,3) backward in time without an error,
    # and a NaN or infinite dt built a plan of NaN exponentials whose step
    # failed as NonFinite, so max_tv_rise read a NaN lambda as a blow-up
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    plus, classic = methods.get("eSSPRK+(3,3)"), methods.get("eSSPRK(3,3)")
    so, c = shu_osher_form(classic), classic.tableau.c
    for bad in (-0.01, np.nan, np.inf, -np.inf):
        for dt in (bad, np.array([[0.01], [bad]])):
            u = u0 if np.ndim(dt) == 0 else np.tile(u0, (2, 1))
            for call in (lambda: make_plan(plus, sys_, dt),
                         lambda: make_general_plan(so, c, sys_, dt),
                         lambda: rk_plan(classic, dt),
                         lambda: rk_step(classic, sys_.N, u, dt)):
                with pytest.raises(ValueError, match="dt must be nonnegative and finite"):
                    call()
        for build in (ifrk_builder(plus), rk_builder(classic)):
            with pytest.raises(ValueError, match="dt must be nonnegative and finite"):
                max_tv_rise(build, sys_, u0, bad, 3)


def test_every_plan_rejects_a_step_size_that_is_not_a_column():
    # a (64,) dt once stepped each grid point of a (64,) state with its own
    # step size, with no error; a (2,) dt on a dense L and a (1, 2) row on
    # a circulant failed inside NumPy's reshape and broadcast
    adv, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    vdp, v0 = make_problem(VAN_DER_POL, splitting="a")
    plus, classic = methods.get("eSSPRK+(3,3)"), methods.get("eSSPRK(3,3)")
    so, c = shu_osher_form(classic), classic.tableau.c
    for sys_, u, dt in ((adv, u0, np.linspace(0.001, 0.01, 64)),
                        (vdp, v0, np.array([0.1, 0.2])),
                        (adv, u0, np.array([[0.01, 0.02]]))):
        for call in (lambda: make_plan(plus, sys_, dt),
                     lambda: make_general_plan(so, c, sys_, dt),
                     lambda: rk_plan(classic, dt),
                     lambda: rk_step(classic, sys_.N, u, dt)):
            with pytest.raises(ValueError, match=re.escape(f"got shape {dt.shape}")):
                call()


def test_rk_plan_is_one_group_at_gap_zero_without_a_cache():
    plan = rk_plan(methods.get("eSSPRK(10,4)"), 0.1)
    assert all(len(row) == 1 and row[0][0] == 0.0 for row in plan.rows)
    assert plan.cache is None


@pytest.mark.parametrize("name, applies", [
    ("eSSPRK+(5,4)", 10), ("eSSPRK+(6,4)", 12), ("eSSPRK+(3,3)", 4), ("eSSPRK+(9,3)", 9),
])
def test_ifrk_step_applies_only_nonzero_gaps(name, applies, monkeypatch):
    # each (row, nonzero gap) group costs one exponential; gap-0 groups
    # cost none (an FFT round trip each on a Circulant before)
    gaps = []
    apply = ExpCache.apply
    monkeypatch.setattr(ExpCache, "apply",
                        lambda self, g, u: gaps.append(g) or apply(self, g, u))
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    plan = make_plan(methods.get(name), sys_, 0.5 * sys_.dx)
    ifrk_step(plan, sys_, u0)
    assert len(gaps) == applies and 0.0 not in gaps


def test_every_ifrk_plan_builds_its_cache_through_build_cache(monkeypatch):
    # the one constructor a tracer counts, for general plans too
    integrators = importlib.import_module("sspint.integrators")
    built = []
    monkeypatch.setattr(integrators, "build_cache",
                        lambda *args: built.append(args) or build_cache(*args))
    sys_, _ = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    classic = methods.get("eSSPRK(3,3)")
    make_general_plan(shu_osher_form(classic), classic.tableau.c, sys_, 0.01)
    make_plan(methods.get("eSSPRK+(3,3)"), sys_, 0.01)
    assert len(built) == 2


def test_make_plan_rejects_decreasing_abscissas():
    sys_, _ = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    with pytest.raises(NegativeGap):
        make_plan(methods.get("eSSPRK(3,3)"), sys_, 0.001)


def _drop_record(drop):
    """A plus-family record whose third abscissa lies drop below its second."""
    A = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.25, 0.25 - drop, 0.0]])
    t = ButcherTableau.from_arrays(A, np.full(3, 1 / 3), order=1, name=f"drop {drop:g}")
    return MethodRecord(t, None, ssp_radius(t).radius, FAMILY_PLUS, "synthetic")


@pytest.mark.parametrize("drop", [3e-14, 5e-11])
def test_plan_steps_a_certified_abscissa_drop_as_gap_zero(drop):
    # a drop within the certificate's tolerance is applied as gap 0: a
    # drop of 3e-14 was once keyed by the plan but clamped out of the
    # cache, and one of 5e-11 was refused by the cache
    rec = _drop_record(drop)
    assert verify_certificate(rec).ok
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    dt = 0.5 * sys_.dx
    plan = make_plan(rec, sys_, dt)
    assert 0.0 in [g for g, _ in plan.rows[1]]  # stage 2 to stage 1
    assert min(plan.cache.gaps) > 0.0
    exact = ifrk_step(make_general_plan(shu_osher_form(rec), rec.tableau.c, sys_, dt),
                      sys_, u0)
    assert np.allclose(ifrk_step(plan, sys_, u0), exact, rtol=0, atol=1e-9)


def test_plan_rejects_an_abscissa_drop_beyond_tolerance():
    # the certificate and make_plan refuse the same record, whatever its
    # family; the general plan keeps the negative gap
    rec = _drop_record(1e-9)
    assert not verify_certificate(rec).ok
    sys_, _ = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    with pytest.raises(NegativeGap):
        make_plan(rec, sys_, 0.01)
    plan = make_general_plan(shu_osher_form(rec), rec.tableau.c, sys_, 0.01)
    assert plan.cache.gaps[0] < 0.0


@pytest.mark.parametrize("stages, order, seed",
                         [(3, 2, 0), (4, 3, 0), (5, 3, 3), (3, 2, 1), (4, 3, 1)])
def test_certified_optimizer_records_step(stages, order, seed):
    # these searches end with abscissas that drop by 2e-14 to 1.7e-13
    rec = optimize(OptimizationSpec(stages, order, require_nondecreasing=True,
                                    restarts=5, seed=seed))
    assert verify_certificate(rec).ok
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    u = integrate(ifrk_builder(rec)(sys_, 0.5 * sys_.dx), u0, 2)
    assert np.isfinite(u).all()


def test_plan_caches_only_the_gaps_its_rows_use():
    sys_ = SemiDiscretization(n=4, L=np.zeros((4, 4)), N=lambda u: u, dx=1.0)
    counts = {}
    for name in methods.method_names():
        rec = methods.get(name)
        if rec.nondecreasing:
            plan = make_plan(rec, sys_, 0.1)
        else:
            plan = make_general_plan(shu_osher_form(rec), rec.tableau.c, sys_, 0.1)
        used = {g for row in plan.rows for g, _ in row}
        assert plan.cache.gaps == sorted(used - {0.0}), name  # gap 0 is never cached
        counts[name] = len(used)
    assert counts["eSSPRK+(6,4)"] == 11
    assert counts["eSSPRK+(5,4)"] == 10
    assert counts["eSSPRK+(9,2)"] == 3
    assert counts["eSSPRK(5,4)"] == 10  # general plan: decreasing abscissas
    assert sum(counts.values()) == 83


@pytest.mark.parametrize("dt", [0.02, np.array([[0.01], [0.03]])])
def test_plan_terms_carry_dt_times_beta(dt):
    # the plan multiplies dt * beta once, so the stage loop only combines;
    # a zero beta is None, and a column of step sizes gives a column
    assert "dt" not in {f.name for f in dataclasses.fields(StepPlan)}
    sys_, _ = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    plus, classic, rk = (methods.get(name)
                         for name in ("eSSPRK+(5,4)", "eSSPRK(3,3)", "eSSPRK(10,4)"))
    plans = [(make_plan(plus, sys_, dt), shu_osher_form(plus)),
             (make_general_plan(shu_osher_form(classic), classic.tableau.c, sys_, dt),
              shu_osher_form(classic)),
             (rk_plan(rk, dt), shu_osher_form(rk))]
    zeros = 0
    for plan, so in plans:
        assert len(plan.rows) == len(so.terms)
        for row, terms in zip(plan.rows, so.terms):
            held = {j: (a, db) for _, group in row for j, a, db in group}
            assert len(held) == sum(len(group) for _, group in row) == len(terms)
            for j, a, b in terms:
                assert held[j][0] == a
                if b == 0.0:
                    assert held[j][1] is None
                    zeros += 1
                else:
                    db = held[j][1]
                    assert np.shape(db) == np.shape(dt)
                    assert np.array_equal(db, np.asarray(dt) * b)
    assert zeros > 0


def test_ifrk_telescoping_linear_only():
    # with N = 0 every integrating-factor method reduces to exact
    # propagation by e^(L dt)
    rng = np.random.default_rng(0)
    L = rng.standard_normal((6, 6)) * 0.8
    sys_ = SemiDiscretization(
        n=6, L=L, N=lambda u: np.zeros_like(u), dx=1.0,
    )
    u0 = rng.standard_normal(6)
    exact = expm(0.3 * L) @ u0
    for name in ("eSSPRK+(3,3)", "eSSPRK+(5,4)", "eSSPRK+(9,2)"):
        plan = make_plan(methods.get(name), sys_, 0.3)
        u = ifrk_step(plan, sys_, u0)
        assert np.allclose(u, exact, atol=1e-12), name


def test_ifrk_with_zero_L_equals_plain_rk():
    rec = methods.get("eSSPRK+(4,3)")
    rng = np.random.default_rng(1)
    u0 = rng.standard_normal(16)

    def N(u):
        return -(u**2) * 0.1

    sys_ = SemiDiscretization(n=16, L=np.zeros((16, 16)), N=N, dx=1.0)
    plan = make_plan(rec, sys_, 0.05)
    assert np.allclose(
        ifrk_step(plan, sys_, u0), rk_step(rec, N, u0, 0.05), atol=1e-13
    )


def test_ifrk_general_agrees_with_cached_path():
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=2.0, n=64)
    rec = methods.get("eSSPRK+(3,3)")
    dt = 0.5 * sys_.dx
    plan = make_plan(rec, sys_, dt)
    a = ifrk_step(plan, sys_, u0)
    b = ifrk_step(make_general_plan(rec.shu_osher, rec.tableau.c, sys_, dt), sys_, u0)
    assert np.allclose(a, b, atol=1e-11)


def _dense_system(problem):
    if problem == "van der Pol":
        return make_problem(VAN_DER_POL, splitting="a")
    L = np.array([[0.0, 1.0], [-1.0, 1.0]])
    sys_ = SemiDiscretization(n=2, L=L, N=lambda u: 0.1 * u, dx=float("nan"))
    return sys_, np.array([2.0, 0.0])


@pytest.mark.parametrize("form", ["column", "scalar"])
@pytest.mark.parametrize("stepper", ["general", "rk"])
@pytest.mark.parametrize("problem", ["linear", "van der Pol"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dense_plan_steps_each_row_of_a_step_size_column_as_its_own_step(problem, k, stepper,
                                                                         form):
    # a dense cache once formed expm(g * dt * L) with dt of shape (k, 1): at
    # k = 2 that broadcast into one 2x2 matrix whose rows carried different
    # step sizes (rows (2.0441, 0.0) and (2.0073, 0.0) here on the linear
    # system, against (2.0036, -0.0405) and (2.0064, -0.0819)), at k = 1 and
    # k >= 3 NumPy refused the shapes.  rk_builder's L u and a plan with one
    # step size for every row once multiplied the batch as columns: wrong
    # rows at k = 2 and NumPy's matmul error at any other k
    rec = methods.get("eSSPRK+(3,3)")
    so, c = shu_osher_form(rec), rec.tableau.c
    build = {"general": lambda sys_, dt: partial(ifrk_step, make_general_plan(so, c, sys_, dt),
                                                 sys_),
             "rk": rk_builder(rec)}[stepper]
    sys_, u0 = _dense_system(problem)
    dts = np.array([0.02, 0.04, 0.03])[:k] if form == "column" else np.full(k, 0.02)
    rows = u0 + np.array([[0.0, 0.0], [0.0, 0.0], [-0.5, 0.3]])[:k]
    batch = build(sys_, dts[:, None] if form == "column" else 0.02)(rows)
    assert batch.shape == rows.shape
    for row, dt, got in zip(rows, dts, batch):
        one = build(sys_, dt)(row)
        assert one.tobytes() == got.tobytes()


def test_ifrk_ssp_guarantee_under_predicted_step():
    # TV never rises when lambda <= 0.99 C, for zero and nonzero wavespeed
    rec = methods.get("eSSPRK+(4,3)")
    lam = 0.99 * rec.claimed_C
    for a in (0.0, 10.0):
        sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=a, n=200)
        rise = max_tv_rise(ifrk_builder(rec), sys_, u0, lam, 5)
        assert rise <= 1e-10, f"a={a}"


def test_integrate_observer_sequence():
    rec = methods.get("eSSPRK+(3,3)")
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    plan = make_plan(rec, sys_, 0.5 * sys_.dx)
    seen = []

    integrate(lambda u, o: ifrk_step(plan, sys_, u, o), u0, 3, seen.append)
    assert np.array_equal(seen[0], u0)
    assert len(seen) == 1 + 3 * rec.stages


def test_integrate_zero_steps_returns_initial_state():
    u0 = np.arange(4.0)
    out = integrate(lambda u, o: u + 1, u0, 0)
    assert np.array_equal(out, u0)


def test_integrate_rejects_a_negative_step_count():
    seen = []
    with pytest.raises(ValueError, match="n_steps must be nonnegative"):
        integrate(lambda u, o: u + 1, np.arange(4.0), -1, seen.append)
    assert seen == []


def test_semi_discretization_refuses_an_n_that_disagrees_with_its_operators():
    # the spectral path reads n: at n = 48 with n = 64 operators,
    # eSSPRK+(3,3) read TV rises of 0.0516 and 0.0237 at lambda = 0.5 and
    # 1.5 (8.9e-16 and 0.0 at n = 64), and an observed TVD limit of
    # 0.0003125 against 1.5003125
    sys_, _ = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    with pytest.raises(ValueError, match=r"L must be n x n for n = 48, got \(64, 64\)"):
        dataclasses.replace(sys_, n=48)
    other = spatial.upwind_operator(spatial.Grid1D(48), 1.0)
    with pytest.raises(ValueError, match=r"N_linear must be n x n for n = 64, got \(48, 48\)"):
        dataclasses.replace(sys_, N=other)
    with pytest.raises(ValueError, match=r"L must be n x n for n = 3, got \(2, 2\)"):
        SemiDiscretization(n=3, L=np.zeros((2, 2)), N=lambda u: u, dx=1.0)


def test_shu_osher_form_resolved_once_per_build(monkeypatch):
    # optimizer outputs carry no Shu-Osher form; each record derives it
    # from the SSP radius once, however many builders, plans or steps use it
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    dt = 0.5 * sys_.dx
    rec = dataclasses.replace(methods.get("eSSPRK(3,3)"), shu_osher=None)
    plus = dataclasses.replace(methods.get("eSSPRK+(3,3)"), shu_osher=None)
    calls = []
    radius = methods.ssp_radius

    def counting(t, *args, **kwargs):
        calls.append(t)
        return radius(t, *args, **kwargs)

    monkeypatch.setattr(methods, "ssp_radius", counting)
    u = integrate(rk_builder(rec)(sys_, dt), u0, 10)
    assert np.array_equal(integrate(rk_builder(rec)(sys_, dt), u0, 10), u)
    v = u0
    for _ in range(10):
        v = rk_step(rec, lambda w: sys_.L @ w + sys_.N(w), v, dt)
    assert np.array_equal(u, v)
    assert calls == [rec.tableau]

    calls.clear()
    integrate(ifrk_builder(plus)(sys_, dt), u0, 10)
    integrate(rk_builder(plus)(sys_, dt), u0, 10)
    assert calls == [plus.tableau]


def _rk_step_per_entry(so, F, u, dt):
    """The Shu-Osher stage loop calling F once per nonzero beta entry."""
    s = so.alpha.shape[0] - 1
    stages = [np.asarray(u, dtype=float)]
    for i in range(1, s + 1):
        acc = np.zeros_like(stages[0])
        for j in range(i):
            a, b = so.alpha[i, j], so.beta[i, j]
            if a == 0.0 and b == 0.0:
                continue
            term = a * stages[j] if a != 0.0 else 0.0
            if b != 0.0:
                term = term + dt * b * F(stages[j])
            acc = acc + term
        stages.append(acc)
    return stages[-1]


def _counting(fn, calls):
    def wrapped(u):
        calls.append(1)
        return fn(u)

    return wrapped


@pytest.mark.parametrize("name, calls", [
    ("eSSPRK+(5,4)", 5), ("eSSPRK+(6,4)", 6), ("eSSPRK+(3,3)", 3),
])
def test_ifrk_step_evaluates_N_once_per_used_stage(name, calls):
    rec = methods.get(name)
    sys_, u0 = make_problem(ADVECTION_BURGERS_STEP, a=10.0, n=64)
    seen = []
    counted = dataclasses.replace(sys_, N=_counting(sys_.N, seen))
    dt = 0.8 * sys_.dx
    got = ifrk_step(make_plan(rec, counted, dt), counted, u0)
    assert len(seen) == calls
    assert np.array_equal(got, ifrk_step(make_plan(rec, sys_, dt), sys_, u0))


@pytest.mark.parametrize("name, calls", [
    # F runs once per stage whose beta column has a nonzero entry
    (name, int(np.count_nonzero(shu_osher_form(methods.get(name)).beta.any(axis=0))))
    for name in methods.method_names()
])
def test_rk_step_evaluates_F_once_per_used_stage(name, calls):
    # bitwise equal to the loop evaluating F at every nonzero beta entry
    so = shu_osher_form(methods.get(name))
    sys_, u0 = make_problem(ADVECTION_BURGERS_STEP, a=10.0, n=64)

    def F(u):
        return sys_.L @ u + sys_.N(u)

    seen = []
    dt = 0.4 * sys_.dx
    got = rk_step(so, _counting(F, seen), u0, dt)
    assert len(seen) == calls
    assert np.array_equal(got, _rk_step_per_entry(so, F, u0, dt))


@pytest.mark.parametrize("name", ["eSSPRK(10,4)", "eSSPRK+(5,4)"])
def test_rk_step_column_dt_matches_per_row_steps(name):
    rec = methods.get(name)
    sys_, u0 = make_problem(ADVECTION_BURGERS_STEP, a=10.0, n=64)

    def F(u):
        return sys_.L @ u + sys_.N(u)

    dts = np.array([0.0, 0.1, 0.3, 0.5])[:, None] * sys_.dx
    rows = np.stack([u0, np.roll(u0, 5), u0, -u0])
    batch = rk_step(rec, F, rows, dts)
    for row, dt, got in zip(rows, dts[:, 0], batch):
        assert np.array_equal(rk_step(rec, F, row, dt), got)
    with pytest.raises(ValueError):
        rk_step(rec, F, rows, -dts)
