import dataclasses
import importlib

import numpy as np
import pytest

from sspint import methods
from sspint.analysis import ifrk_builder, max_tv_rise, rk_builder, total_variation
from sspint.errors import NegativeGap, NonFinite
from sspint.expm import expm
from sspint.integrators import (
    SemiDiscretization,
    ifrk_step,
    ifrk_step_general,
    integrate,
    make_plan,
    rk_step,
)
from sspint.spatial import LINEAR_ADVECTION_STEP, make_problem


def test_rk_step_scalar_hand_value():
    # u' = u, u0 = 1, dt = 0.1 with a 3rd-order method multiplies by
    # 1 + 0.1 + 0.01/2 + 0.001/6
    rec = methods.get("eSSPRK(3,3)")
    u = rk_step(rec, lambda v: v, np.array([1.0]), 0.1)
    assert u[0] == pytest.approx(1.1051666666666666, abs=1e-15)


def test_rk_step_nonfinite_detection():
    rec = methods.get("eSSPRK(2,2)")
    with pytest.raises(NonFinite):
        rk_step(rec, lambda v: v * np.inf, np.array([1.0]), 0.1)


def test_make_plan_rejects_decreasing_abscissas():
    sys_, _ = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    with pytest.raises(NegativeGap):
        make_plan(methods.get("eSSPRK(3,3)"), sys_, 0.001)


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
    b = ifrk_step_general(rec.shu_osher, rec.tableau.c, sys_, u0, dt)
    assert np.allclose(a, b, atol=1e-11)


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

    def obs(k, i, u):
        seen.append((k, i, total_variation(u)))

    integrate(lambda u, o, k: ifrk_step(plan, sys_, u, o, k), u0, 3, obs)
    assert seen[0][:2] == (0, 0)
    assert len(seen) == 1 + 3 * rec.stages
    assert [ki for ki, _, _ in seen[1:4]] == [0, 0, 0]


def test_integrate_zero_steps_returns_initial_state():
    u0 = np.arange(4.0)
    out = integrate(lambda u, o, k: u + 1, u0, 0)
    assert np.array_equal(out, u0)


def test_shu_osher_form_resolved_once_per_build(monkeypatch):
    # optimizer outputs carry no Shu-Osher form; it is derived from the
    # SSP radius once per builder or plan, not once per step
    calls = []
    radius_module = importlib.import_module("sspint.ssp_radius")
    radius = radius_module.ssp_radius

    def counting(t, *args, **kwargs):
        calls.append(t)
        return radius(t, *args, **kwargs)

    monkeypatch.setattr(radius_module, "ssp_radius", counting)
    monkeypatch.setattr(importlib.import_module("sspint.integrators"),
                        "ssp_radius", counting, raising=False)
    sys_, u0 = make_problem(LINEAR_ADVECTION_STEP, a=1.0, n=64)
    dt = 0.5 * sys_.dx

    rec = dataclasses.replace(methods.get("eSSPRK(3,3)"), shu_osher=None)
    u = integrate(rk_builder(rec)(sys_, dt), u0, 10)
    assert len(calls) == 1
    v = u0
    for _ in range(10):
        v = rk_step(rec, lambda w: sys_.L @ w + sys_.N(w), v, dt)
    assert np.array_equal(u, v)

    calls.clear()
    plus = dataclasses.replace(methods.get("eSSPRK+(3,3)"), shu_osher=None)
    integrate(ifrk_builder(plus)(sys_, dt), u0, 10)
    assert len(calls) == 1
