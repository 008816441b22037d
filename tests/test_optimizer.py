import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import sspint
from sspint import methods, optimizer
from sspint.errors import SingularTransform
from sspint.methods import FAMILY_PLUS, MethodRecord
from sspint.optimizer import OptimizationSpec, optimize, verify_certificate
from sspint.ssp_radius import linear_bound
from sspint.tableau import _ORDER_CONDITIONS, ButcherTableau


def test_spec_validation():
    with pytest.raises(ValueError):
        OptimizationSpec(stages=4, order=4)  # no 4-stage 4th-order method
    with pytest.raises(ValueError):
        OptimizationSpec(stages=2, order=3)
    with pytest.raises(ValueError):
        OptimizationSpec(stages=3, order=5)
    with pytest.raises(ValueError):
        OptimizationSpec(stages=3, order=3, restarts=0)


def test_certified_is_none_when_the_radius_meets_a_singular_transform(monkeypatch):
    # SSPRK(3,3) below the diagonal of [[A, 0], [b^T, 0]], row by row; its
    # abscissas (0, 1, 1/2) decrease, so the search is the classic one
    spec = OptimizationSpec(stages=3, order=3, require_nondecreasing=False)
    theta = np.array([1.0, 0.25, 0.25, 1 / 6, 1 / 6, 2 / 3])
    assert optimizer._certified(spec, theta) is not None

    def singular(t):
        raise SingularTransform("I + rS is singular")

    monkeypatch.setattr(optimizer, "ssp_radius", singular)
    assert optimizer._certified(spec, theta) is None


def test_optimize_recovers_three_stage_second_order():
    rec = optimize(OptimizationSpec(stages=3, order=2, seed=0))
    assert rec.claimed_C >= 2.0 - 1e-3
    assert verify_certificate(rec).ok


@pytest.mark.parametrize("seed", range(20))
def test_optimize_three_stage_second_order_certifies_for_every_seed(seed):
    rec = optimize(OptimizationSpec(stages=3, order=2, seed=seed))
    assert rec.claimed_C >= 2.0 - 1e-3
    assert verify_certificate(rec).ok


@pytest.mark.parametrize("stages, order, nondecreasing, floor", [
    (5, 3, True, 0.999 * 2.6351),
    (6, 4, True, 0.999 * 2.2738),
    (4, 3, False, 2.0 - 1e-3),
    (5, 4, False, 1.508 - 1e-3),
])
def test_optimize_reaches_known_optima(stages, order, nondecreasing, floor):
    rec = optimize(OptimizationSpec(stages, order, require_nondecreasing=nondecreasing))
    assert rec.claimed_C >= floor
    assert verify_certificate(rec).ok


@pytest.mark.parametrize("stages, order, nondecreasing", [
    pytest.param(5, 4, True, id="True"),
    pytest.param(5, 4, False, id="False"),
    pytest.param(3, 3, True, id="3-3-plus"),
    pytest.param(10, 4, False, id="10-4-classic"),
])
def test_constraint_jacobians_match_central_differences(stages, order, nondecreasing):
    spec = OptimizationSpec(stages, order, require_nondecreasing=nondecreasing)
    _, _, constraints, _ = optimizer._problem(spec)
    n = stages * (stages + 1) // 2
    x = np.append(np.random.default_rng(1).uniform(0.0, 1.0, n), 0.7)
    h = 1e-6
    for con in constraints:
        fd = np.column_stack([(con["fun"](x + h * e) - con["fun"](x - h * e)) / (2 * h)
                              for e in np.eye(len(x))])
        assert np.abs(con["jac"](x) - fd).max() <= 1e-7 * max(1.0, np.abs(fd).max())


def _reference_constraints(spec):
    """The constraints as written before their layouts were hoisted: A and
    b unpacked from theta and restacked on every call."""
    s = spec.stages
    conditions = [fn for _, order, fn in _ORDER_CONDITIONS if order <= spec.order]
    K, L = np.tril_indices(s + 1, -1)
    n = len(K)

    def unpack(theta):
        A = np.zeros((s, s), dtype=theta.dtype)
        A[np.tril_indices(s, -1)] = theta[:-s]
        return A, theta[-s:]

    def stacked(A, b):
        S = np.zeros((s + 1, s + 1))
        S[:s, :s] = A
        S[s, :s] = b
        return S

    def order_conditions(x):
        A, b = unpack(x[:-1])
        return np.array([fn(A, b, A.sum(axis=1)) for fn in conditions])

    def order_jacobian(x):
        steps = x + 1e-30j * np.eye(n + 1)
        return np.column_stack([order_conditions(y).imag for y in steps]) / 1e-30

    def transform(x):
        r, S = x[-1], stacked(*unpack(x[:-1]))
        R = np.linalg.inv(np.eye(s + 1) + r * S)
        return r, R, R @ S

    def monotonicity(x):
        r, R, RS = transform(x)
        return np.concatenate([R.sum(axis=1), r * RS[K, L]])

    def monotonicity_jacobian(x):
        r, R, RS = transform(x)
        v = R.sum(axis=1)
        dv = np.column_stack([-r * R[:, K] * v[L], -RS @ v])
        dP = np.column_stack([r * R[np.ix_(K, K)] * R[np.ix_(L, L)].T, (RS @ R)[K, L]])
        return np.vstack([dv, dP])

    dc = np.eye(s + 1)[:s, np.append(K, s)]
    G = np.vstack([np.diff(dc, axis=0), -dc[-1:], dc])
    g = np.eye(len(G))[s - 1]
    return [(order_conditions, order_jacobian), (monotonicity, monotonicity_jacobian),
            (lambda x: G @ x + g, lambda x: G)][:3 if spec.require_nondecreasing else 2]


@pytest.mark.parametrize("stages, order, nondecreasing", [
    (3, 2, True), (4, 3, True), (6, 4, True), (5, 4, False), (10, 4, False)])
def test_constraints_match_the_unhoisted_reference_bitwise(stages, order, nondecreasing):
    spec = OptimizationSpec(stages, order, require_nondecreasing=nondecreasing)
    _, _, constraints, _ = optimizer._problem(spec)
    reference = _reference_constraints(spec)
    assert len(constraints) == len(reference)
    rng = np.random.default_rng(stages * 10 + order)
    n = stages * (stages + 1) // 2
    for x in [np.append(rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 2.0 * stages))
              for _ in range(5)] + [np.append(optimizer._start(rng, stages), 0.1)]:
        for con, (fun, jac) in zip(constraints, reference):
            for got, want in ((con["fun"](x), fun(x)), (con["jac"](x), jac(x))):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def test_a_start_with_a_nonfinite_entry_is_uncertified(monkeypatch):
    spec = OptimizationSpec(3, 2, restarts=2)
    theta = np.array([np.nan, 0.5, 0.5, 0.25, 0.25, 0.5])  # sum(b) = 1
    assert optimizer._certified(spec, theta) is None
    # a start that ends there counts as failed; the other start still wins
    real, calls = optimizer.minimize, []

    def first_start_fails(*args, **kwargs):
        sol = real(*args, **kwargs)
        if not calls:
            sol.x = np.append(theta, sol.x[-1])
        calls.append(sol)
        return sol

    monkeypatch.setattr(optimizer, "minimize", first_start_fails)
    rec = optimize(spec)
    assert len(calls) == 2 and rec.claimed_C >= 2.0 - 1e-3
    assert verify_certificate(rec).ok


def test_a_start_with_sum_b_unmet_is_uncertified(monkeypatch):
    # ButcherTableau's sum(b) = 1 rule is the one that judges a start
    spec = OptimizationSpec(3, 2)
    solves = _recorded_solves(monkeypatch)
    optimize(spec)
    theta = solves[0].x[:-1]
    assert optimizer._certified(spec, theta) is not None
    theta = theta.copy()
    theta[-1] += 1e-12  # b_3 raised: sum(b) = 1 + 1e-12, every order residual below 1e-10
    assert optimizer._certified(spec, theta) is None


def _recorded_solves(monkeypatch):
    """The list that every later SLSQP solve of the optimizer appends to."""
    real, solves = optimizer.minimize, []

    def recording(*args, **kwargs):
        solves.append(real(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(optimizer, "minimize", recording)
    return solves


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("stages, order, nondecreasing", [
    (3, 2, True), (3, 3, True), (4, 3, True), (6, 4, True), (5, 4, False)])
def test_pruned_certification_matches_full_certification(stages, order, nondecreasing,
                                                         seed, monkeypatch):
    spec = OptimizationSpec(stages, order, require_nondecreasing=nondecreasing, seed=seed)
    solves = _recorded_solves(monkeypatch)
    rec = optimize(spec)
    want = None  # the reference: every start certified in full, the best strictly wins
    for sol in solves:
        full = optimizer._certified(spec, sol.x[:-1])
        if full is not None and (want is None or full.claimed_C > want.claimed_C):
            want = full
    assert rec.tableau.A.tobytes() == want.tableau.A.tobytes()
    assert rec.tableau.b.tobytes() == want.tableau.b.tobytes()
    assert rec.claimed_C.hex() == want.claimed_C.hex()


def test_only_a_start_that_can_win_is_certified_in_full(monkeypatch):
    solves = _recorded_solves(monkeypatch)
    real, radii = optimizer.ssp_radius, []
    monkeypatch.setattr(optimizer, "ssp_radius", lambda t: radii.append(t) or real(t))
    optimize(OptimizationSpec(4, 3))
    assert len(solves) == 10 and 1 <= len(radii) < 10


@pytest.mark.parametrize("stages, order, nondecreasing, bound", [
    (3, 2, True, 2.0), (3, 3, False, 1.0)])
def test_a_search_that_reaches_the_linear_bound_stops(stages, order, nondecreasing, bound,
                                                      monkeypatch):
    solves = _recorded_solves(monkeypatch)
    rec = optimize(OptimizationSpec(stages, order, require_nondecreasing=nondecreasing))
    assert linear_bound(stages, order) == pytest.approx(bound, abs=1e-9)
    assert len(solves) == 1 and rec.claimed_C >= linear_bound(stages, order) - 1e-9


def test_a_start_whose_inverse_raises_is_uncertified(monkeypatch):
    # LAPACK may call I + rS singular in an SLSQP callback; that start fails
    real_inv, real_minimize, starts = np.linalg.inv, optimizer.minimize, []
    monkeypatch.setattr(optimizer, "minimize",
                        lambda *a, **k: starts.append(None) or real_minimize(*a, **k))

    def inv(M):
        if len(starts) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_inv(M)

    monkeypatch.setattr(np.linalg, "inv", inv)
    rec = optimize(OptimizationSpec(3, 2, restarts=2))
    assert len(starts) == 2 and rec.claimed_C >= 2.0 - 1e-3 and verify_certificate(rec).ok


def test_optimize_is_deterministic():
    spec = OptimizationSpec(stages=3, order=2, seed=42, restarts=3)
    a = optimize(spec)
    b = optimize(spec)
    assert np.array_equal(a.tableau.A, b.tableau.A)
    assert np.array_equal(a.tableau.b, b.tableau.b)
    assert a.claimed_C == b.claimed_C


def test_certificate_passes_for_registry_methods():
    for name in ("eSSPRK+(3,3)", "eSSPRK+(6,4)", "eSSPRK(5,4)"):
        assert verify_certificate(methods.get(name)).ok, name


def test_certificate_detects_corrupted_weights():
    base = methods.get("eSSPRK(3,3)")
    b = base.tableau.b.copy()
    b[0] += 1e-3
    b[2] -= 1e-3  # keep consistency so only higher conditions break
    bad = MethodRecord(
        tableau=ButcherTableau.from_arrays(base.tableau.A, b, order=3),
        shu_osher=None,
        claimed_C=1.0,
        family=base.family,
        citation="corrupted",
    )
    report = verify_certificate(bad)
    assert not report.ok
    assert any("order" in v for v in report.violations)


def test_certificate_detects_decreasing_abscissas():
    rec = dataclasses.replace(methods.get("eSSPRK(3,3)"), family=FAMILY_PLUS)
    report = verify_certificate(rec)
    assert not report.ok
    assert any("abscissa" in v for v in report.violations)


def test_optimize_writes_the_same_bytes_under_any_blas_thread_setting(tmp_path):
    # SLSQP's subproblems run on SciPy's bundled OpenBLAS; this search once
    # wrote other A and b bits (the same C) at two threads than at one, and
    # optimize now runs its starts at one thread, whatever the caller's setting
    src = os.path.dirname(os.path.dirname(os.path.abspath(sspint.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        subprocess.run([sys.executable, "-m", "sspint.cli", "optimize", "--stages", "3",
                        "--order", "3", "--nondecreasing", "--seed", "0", "--out", str(out)],
                       env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
                       check=True, capture_output=True)
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_optimize_restores_the_callers_blas_thread_count():
    threads = optimizer._scipy_blas_threads()
    assert threads is not None  # SciPy's wheels bundle OpenBLAS with both calls
    get, set_ = threads
    before = get()
    try:
        set_(2)
        seen = []
        with optimizer._one_blas_thread():
            seen.append(get())
        assert seen == [1] and get() == 2
        with pytest.raises(RuntimeError), optimizer._one_blas_thread():
            raise RuntimeError
        assert get() == 2
    finally:
        set_(before)
