import dataclasses

import numpy as np
import pytest

from sspint import methods, optimizer
from sspint.methods import FAMILY_PLUS, MethodRecord
from sspint.optimizer import OptimizationSpec, optimize, verify_certificate
from sspint.tableau import ButcherTableau


def test_spec_validation():
    with pytest.raises(ValueError):
        OptimizationSpec(stages=4, order=4)  # no 4-stage 4th-order method
    with pytest.raises(ValueError):
        OptimizationSpec(stages=2, order=3)
    with pytest.raises(ValueError):
        OptimizationSpec(stages=3, order=5)
    with pytest.raises(ValueError):
        OptimizationSpec(stages=3, order=3, restarts=0)


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


@pytest.mark.parametrize("nondecreasing", [True, False])
def test_constraint_jacobians_match_central_differences(nondecreasing):
    spec = OptimizationSpec(5, 4, require_nondecreasing=nondecreasing)
    _, _, constraints, _ = optimizer._problem(spec)
    x = np.append(np.random.default_rng(1).uniform(0.0, 1.0, 15), 0.7)
    h = 1e-6
    for con in constraints:
        fd = np.column_stack([(con["fun"](x + h * e) - con["fun"](x - h * e)) / (2 * h)
                              for e in np.eye(len(x))])
        assert np.abs(con["jac"](x) - fd).max() <= 1e-7 * max(1.0, np.abs(fd).max())


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
