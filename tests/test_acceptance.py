"""Acceptance suite: re-derives the headline quantitative results at their
stated tolerances. Each criterion prints a single PASS/FAIL line (visible
with ``pytest -s`` and in the failure report) and then asserts, so a
criterion that the implementation genuinely cannot reach fails loudly
instead of being weakened.
"""

import functools

import numpy as np
import pytest

import sspint as sp
from sspint import methods
from sspint.analysis import (
    VAN_DER_POL_REFERENCE,
    ifrk_builder,
    ifrk_general_builder,
    lambda_sweep,
    max_tv_rise,
    observed_tvd_lambda,
    rk_builder,
)
from sspint.cli import van_der_pol_errors
from sspint.expm import expm
from sspint.integrators import SemiDiscretization, ifrk_step, integrate, make_plan
from sspint.optimizer import OptimizationSpec, optimize, verify_certificate
from sspint.spatial import (
    LINEAR_ADVECTION_STEP,
    ADVECTION_BURGERS_STEP,
    Grid1D,
    make_problem,
    upwind_matrix,
)
from sspint.ssp_radius import observed_l2_cfl, ssp_radius
from sspint.tableau import (
    _ORDER_CONDITIONS,
    butcher_to_canonical_shu_osher,
    order_residuals,
    shu_osher_to_butcher,
)

TABLE6_SET = (
    "eSSPRK+(2,2)",
    "eSSPRK+(9,2)",
    "eSSPRK+(3,3)",
    "eSSPRK+(4,3)",
    "eSSPRK+(9,3)",
    "eSSPRK+(5,4)",
    "eSSPRK+(6,4)",
)


def report(number, ok, detail):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@functools.lru_cache(maxsize=None)
def opt(stages, order, restarts=10):
    return optimize(
        OptimizationSpec(stages=stages, order=order, restarts=restarts, seed=0)
    )


@functools.lru_cache(maxsize=None)
def ex4_rises(method, stepper, lambdas, n=400, a=10.0, steps=25):
    sys_, u0 = make_problem(ADVECTION_BURGERS_STEP, a=a, n=n)
    rec = methods.get(method)
    build = {"ifrk": ifrk_builder, "rk": rk_builder,
             "ifrk-general": ifrk_general_builder}[stepper](rec)
    return tuple(r.max_rise for r in lambda_sweep(build, sys_, u0, lambdas, steps))


def first_crossing(lambdas, rises, threshold):
    for lam, r in zip(lambdas, rises):
        if r > threshold:
            return lam
    return None


def test_criterion_01_ssp_radii():
    expected = {
        "eSSPRK(2,2)": 1.0,
        "eSSPRK(3,3)": 1.0,
        "eSSPRK(5,4)": 1.508,
        "eSSPRK(10,4)": 6.0,
        "eSSPRK+(3,3)": 0.75,
        "eSSPRK+(4,3)": 20.0 / 11.0,
        "eSSPRK+(9,3)": 6.0,
        "eSSPRK+(5,4)": 1.3466,
        "eSSPRK+(6,4)": 2.2738,
    }
    for s in range(2, 11):
        expected[f"eSSPRK+({s},2)"] = s - 1.0
    bad = []
    for name, C in expected.items():
        r = ssp_radius(methods.get(name).tableau).radius
        if abs(r - C) > 1e-3:
            bad.append(f"{name}: {r:.4f} vs {C:.4f}")
    report(1, not bad, f"{len(expected)} radii within 1e-3"
           + (f"; misses: {bad}" if bad else ""))


def test_criterion_02_order_verification():
    bad = []
    for rec in methods.list_methods():
        rep = order_residuals(rec.tableau)
        relevant = {t for t, o, _ in _ORDER_CONDITIONS if o <= rec.order}
        worst = max(abs(v) for tag, v in rep.residuals.items() if tag in relevant)
        if rep.achieved_order < rec.order or worst > 1e-10:
            bad.append(f"{rec.name}: order {rep.achieved_order}, res {worst:.1e}")
    report(2, not bad, "all built-in methods reach claimed order, residuals <= 1e-10"
           + (f"; misses: {bad}" if bad else ""))


def test_criterion_03_linear_tvd_sharpness_table():
    # observed TVD coefficients, n = 1000, 10 steps, detection threshold
    # 1e-12 (the library default is 1e-10). The first oscillation of
    # eSSPRK+(5,4) sits inside a stage, and the upwind factor e^(L tau)
    # damps it more as a grows: at a = 20 the stage rise stays near 1e-13
    # up to lambda = 2.19 and reaches 7e-12 only at 2.20, and a long-double
    # recomputation gives a flat 1.2e-14 there. So no threshold at or above
    # 1e-14 finds 2.158 for that cell; it fails (see README, Tests).
    def expectation(name, a, C):
        if name == "eSSPRK+(3,3)":
            return (1.0, 0.01) if a == 0 else (1.5, 0.02)
        if name == "eSSPRK+(5,4)":
            return (1.5594, 0.02) if a == 0 else (2.158, 0.03)
        return (C, 0.01)

    bad = []
    for name in TABLE6_SET:
        rec = methods.get(name)
        hi = 1.5 * rec.claimed_C + 0.75
        for a in (0.0, 1.0, 10.0, 20.0):
            sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=a, n=1000)
            obs = observed_tvd_lambda(
                ifrk_builder(rec), sys_, u0, hi, 10, threshold=1e-12
            )
            target, tol = expectation(name, a, rec.claimed_C)
            if abs(obs.lambda_obs - target) > tol:
                bad.append(
                    f"{name} a={a:g}: {obs.lambda_obs:.4f} vs {target}+-{tol}"
                )
    report(3, not bad, "observed TVD coefficients match the predicted table"
           + (f"; misses: {bad}" if bad else ""))


def test_criterion_04_plain_rk_wavespeed_degradation():
    rec = methods.get("eSSPRK(4,3)")
    bad = []
    for a in (0.0, 1.0, 2.0, 10.0, 20.0):
        sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=a, n=1000)
        obs = observed_tvd_lambda(rk_builder(rec), sys_, u0, 2.5, 10)
        target = 2.0 / (a + 1.0)
        if abs(obs.lambda_obs - target) > 0.01:
            bad.append(f"a={a:g}: {obs.lambda_obs:.4f} vs {target:.4f}")
    report(4, not bad, "plain RK observed coefficient = 2/(a+1)"
           + (f"; misses: {bad}" if bad else ""))


def test_criterion_05_decreasing_abscissa_counterexample():
    lams = tuple(np.round(np.arange(0.05, 1.21, 0.05), 10))
    soif = ex4_rises("eSSPRK(3,3)", "ifrk-general", lams)
    plus = ex4_rises("eSSPRK+(3,3)", "ifrk", lams)

    clause1 = soif[0] > 1e-3
    low = [r for lam, r in zip(lams, plus) if lam <= 0.75]
    clause2 = max(low) <= 1e-10
    transition = first_crossing(lams, plus, 1e-10)
    clause3 = transition is not None and 0.7 <= transition <= 0.9
    ok = clause1 and clause2 and clause3
    report(
        5,
        ok,
        f"decreasing-abscissa rise at lambda=0.05: {soif[0]:.2e} (want >1e-3); "
        f"nondecreasing max rise for lambda<=0.75: {max(low):.2e} (want <=1e-10); "
        f"transition: {transition} (want in [0.7, 0.9])",
    )


def test_criterion_06_nonlinear_sharpness_transitions():
    cases = (
        ("eSSPRK(10,4)", "rk", np.arange(0.40, 0.71, 0.02), 0.58),
        ("eSSPRK+(5,4)", "ifrk", np.arange(0.80, 1.45, 0.05), 1.06),
        ("eSSPRK+(6,4)", "ifrk", np.arange(0.90, 1.60, 0.05), 1.21),
    )
    bad = []
    for name, stepper, grid, target in cases:
        lams = tuple(np.round(grid, 10))
        rises = ex4_rises(name, stepper, lams)
        transition = first_crossing(lams, rises, 1e-2)
        lo, hi = 0.9 * target, 1.1 * target
        if transition is None or not lo <= transition <= hi:
            bad.append(f"{name}: transition {transition} vs [{lo:.3f}, {hi:.3f}]")
    report(6, not bad, "TV-rise transitions on advection-Burgers"
           + (f"; misses: {bad}" if bad else ""))


def test_criterion_07_van_der_pol_convergence():
    # The design order is an asymptotic (dt -> 0) property, so the fit uses
    # the ex1 grid halved. On the ex1 grid 0.02..0.10 itself, eSSPRK(2,2)
    # on splitting a is pre-asymptotic: e(0.10)/e(0.02) = 45 instead of 25,
    # a dt^3 term about 12 dt times the dt^2 term, and the slope is 2.36.
    # Every error must stay >= 1e-11 so that the fit measures the method,
    # not the ~3e-12 accuracy of the reference, van_der_pol_reference() as
    # pinned in VAN_DER_POL_REFERENCE.
    uref = np.array(VAN_DER_POL_REFERENCE)
    dts = [0.01, 0.02, 0.03, 0.04, 0.05]
    bad = []
    for rec in methods.list_methods():
        for split in ("a", "b"):
            errs = van_der_pol_errors(rec, split, dts, uref)
            slope = sp.convergence_slope(errs)
            if abs(slope - rec.order) > 0.35:
                bad.append(f"{rec.name}/{split}: {slope:.3f} vs p={rec.order}")
            smallest = min(err for _, err in errs)
            if smallest < 1e-11:
                bad.append(f"{rec.name}/{split}: error {smallest:.1e} < 1e-11")
    report(7, not bad, "fitted slopes within +-0.35 of the design order, "
           "errors >= 1e-11" + (f"; misses: {bad}" if bad else ""))


def test_criterion_08_linear_l2_cfl():
    grid = Grid1D(1000)
    M = upwind_matrix(grid, 11.0) * grid.dx
    notes, bad = [], []

    v33 = observed_l2_cfl(methods.get("eSSPRK(3,3)").tableau, M, 0.2)
    notes.append(f"eSSPRK(3,3): {v33:.4f}")
    if abs(v33 - 0.114) > 0.01:
        bad.append(f"eSSPRK(3,3) L2 CFL {v33:.4f} vs 0.114+-0.01")

    rec53 = opt(5, 3)
    if rec53.claimed_C >= 0.95 * 2.6351:
        v53 = observed_l2_cfl(rec53.tableau, M, 0.4)
        notes.append(f"optimized (5,3): C={rec53.claimed_C:.4f}, CFL {v53:.4f}")
        if abs(v53 - 0.260) > 0.01:
            bad.append(f"(5,3) L2 CFL {v53:.4f} vs 0.260+-0.01")
    else:
        notes.append(f"optimized (5,3) below 95% target "
                     f"(C={rec53.claimed_C:.4f}); CFL check skipped")

    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=10.0, n=1000)
    n0 = np.linalg.norm(u0)
    for name in TABLE6_SET:
        rec = methods.get(name)
        build = ifrk_builder(rec)
        u = integrate(build(sys_, 27.0 * sys_.dx), u0, 10)
        if not np.isfinite(u).all() or np.linalg.norm(u) > n0 * (1 + 1e-10):
            bad.append(f"{name} unstable at lambda=27")
    report(8, not bad, "; ".join(notes) + "; IFRK methods stable at lambda=27"
           + (f"; misses: {bad}" if bad else ""))


def test_criterion_09_optimizer_recovery():
    bad = []
    targets = ((3, 2, 2.0 - 1e-3), (3, 3, 0.75 - 1e-3), (4, 3, 20.0 / 11.0 * 0.99))
    for s, p, floor in targets:
        rec = opt(s, p)
        if rec.claimed_C < floor:
            bad.append(f"({s},{p}): C={rec.claimed_C:.4f} < {floor:.4f}")
        cert = verify_certificate(rec)
        if not cert.ok:
            bad.append(f"({s},{p}): certificate violations {cert.violations}")

    # best-effort rows: reported, non-blocking
    rec53 = opt(5, 3)
    print(f"  best-effort (5,3): C={rec53.claimed_C:.4f} "
          f"({100 * rec53.claimed_C / 2.6351:.1f}% of 2.6351)")
    rec64 = opt(6, 4, restarts=4)
    print(f"  best-effort (6,4): C={rec64.claimed_C:.4f} "
          f"({100 * rec64.claimed_C / 2.2738:.1f}% of 2.2738)")
    report(9, not bad, "blocking recoveries (3,2), (3,3), (4,3)"
           + (f"; misses: {bad}" if bad else ""))


def test_criterion_10_property_suite():
    bad = []
    rng = np.random.default_rng(11)

    # exponential oracle + semigroup
    M = rng.standard_normal((4, 4))
    series = np.eye(4)
    term = np.eye(4)
    for k in range(120):
        term = term @ M / (k + 1)
        series = series + term
    if not np.allclose(expm(M), series, atol=1e-11):
        bad.append("expm Taylor oracle")
    if not np.allclose(expm(M / 2) @ expm(M / 2), expm(M), atol=1e-10):
        bad.append("expm semigroup")

    # TV contraction of the upwind exponential
    grid = Grid1D(64)
    L = upwind_matrix(grid, 3.0)
    for tau in (0.01, 0.1):
        E = expm(tau * L)
        for _ in range(5):
            u = rng.standard_normal(64)
            if sp.total_variation(E @ u) > sp.total_variation(u) + 1e-12:
                bad.append(f"TV contraction at tau={tau}")

    # representation round trips
    for rec in methods.list_methods():
        r = ssp_radius(rec.tableau).radius
        t2 = shu_osher_to_butcher(butcher_to_canonical_shu_osher(rec.tableau, r))
        if not (np.allclose(t2.A, rec.tableau.A, atol=1e-8)
                and np.allclose(t2.b, rec.tableau.b, atol=1e-8)):
            bad.append(f"round trip {rec.name}")

    # telescoping: N = 0 reduces the IF step to exact propagation
    Ld = rng.standard_normal((5, 5)) * 0.5
    sys_ = SemiDiscretization(n=5, L=Ld, N=lambda u: np.zeros_like(u), dx=1.0)
    u0 = rng.standard_normal(5)
    plan = make_plan(methods.get("eSSPRK+(5,4)"), sys_, 0.2)
    if not np.allclose(ifrk_step(plan, sys_, u0), expm(0.2 * Ld) @ u0, atol=1e-12):
        bad.append("telescoping")

    # no step, no rise
    adv, ua = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    if max_tv_rise(ifrk_builder(methods.get("eSSPRK+(2,2)")), adv, ua, 0.0, 5) != 0.0:
        bad.append("TV(lambda=0)")

    report(10, not bad, "expm oracle/semigroup, TV contraction, round trips, "
           "telescoping, zero-step rise" + (f"; misses: {bad}" if bad else ""))
