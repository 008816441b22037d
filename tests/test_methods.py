import dataclasses

import numpy as np
import pytest

from sspint import methods
from sspint.errors import UnknownMethod
from sspint.ssp_radius import ssp_radius
from sspint.tableau import order_residuals, shu_osher_to_butcher


def test_registry_size():
    assert len(methods.method_names()) >= 12


def test_unknown_method_lists_available():
    with pytest.raises(UnknownMethod) as exc:
        methods.get("nope")
    assert "eSSPRK(3,3)" in str(exc.value)


def test_generate_second_order_radius():
    for s in (2, 5, 7):
        rec = methods.generate_second_order(s)
        assert ssp_radius(rec.tableau).radius == pytest.approx(s - 1.0, abs=1e-6)
        assert rec.nondecreasing
        assert order_residuals(rec.tableau).achieved_order >= 2


def test_generate_second_order_rejects_single_stage():
    with pytest.raises(ValueError):
        methods.generate_second_order(1)


def test_stored_shu_osher_matches_tableau():
    for rec in methods.list_methods():
        assert rec.shu_osher is not None
        t = shu_osher_to_butcher(rec.shu_osher)
        assert np.allclose(t.A, rec.tableau.A, atol=1e-13)
        assert np.allclose(t.b, rec.tableau.b, atol=1e-13)


def test_claimed_orders_achieved():
    for rec in methods.list_methods():
        assert order_residuals(rec.tableau).achieved_order >= rec.order, rec.name


def test_plus_family_has_nondecreasing_abscissas():
    for rec in methods.list_methods():
        if rec.family == methods.FAMILY_PLUS:
            assert rec.nondecreasing, rec.name


def test_classic_33_has_decreasing_abscissas():
    rec = methods.get("eSSPRK(3,3)")
    assert not rec.nondecreasing
    assert np.allclose(rec.tableau.c, [0.0, 1.0, 0.5])


def test_shu_osher_forms_are_ssp_admissible():
    for rec in methods.list_methods():
        assert rec.shu_osher.is_ssp_admissible(), rec.name


def test_certificate_names_the_broken_claim():
    plus43, classic33 = methods.get("eSSPRK+(4,3)"), methods.get("eSSPRK(3,3)")
    t = plus43.tableau
    assert methods.verify_certificate(plus43).violations == ()
    cases = [
        (dataclasses.replace(plus43, claimed_C=1.9), "absolute_monotonicity"),
        (dataclasses.replace(plus43, tableau=dataclasses.replace(t, order=4)), "order"),
        (dataclasses.replace(classic33, family=methods.FAMILY_PLUS),
         "nondecreasing_abscissas"),
    ]
    for rec, broken in cases:
        violations = methods.verify_certificate(rec).violations
        assert len(violations) == 1 and violations[0].startswith(broken + ": "), violations


def test_registry_self_check_names_a_corrupted_record(monkeypatch):
    # every start certifies the registry; an over-claimed C must stop it
    reg = methods._build_registry()
    reg["eSSPRK(5,4)"] = dataclasses.replace(reg["eSSPRK(5,4)"], claimed_C=1.6)
    monkeypatch.setattr(methods, "_build_registry", lambda: reg)
    monkeypatch.setattr(methods, "_REGISTRY", None)
    with pytest.raises(AssertionError, match=r"eSSPRK\(5,4\): .*absolute_monotonicity"):
        methods._registry()
    assert methods._REGISTRY is None
