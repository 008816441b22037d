import dataclasses
import hashlib

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


#: per record, the SHA-256 of its A, b, c, alpha and beta bytes and of
#: claimed_C.hex(), as the registry built them before eSSPRK+(5,4) and
#: (6,4) were entered in canonical form
_REGISTRY_DIGESTS = {
    "eSSPRK(10,4)": "a4614264d035b8198262acdc9c356e65e3768427c1eb39305131f5017d8f336d",
    "eSSPRK(2,2)": "2791105f1464c2048f514940cbbac71ac3bb758f565635b3ccc90d9a11edce9d",
    "eSSPRK(3,3)": "482eef6bf835adcdbd1969bef3311ebf7834517c82b34f13a600ca91f965a8a2",
    "eSSPRK(4,3)": "d4979048390d4aaac13f528fc68ba9698163a4fb8f65a7c9ce0eb087527c8f35",
    "eSSPRK(5,4)": "32e371a3e32cca7ae9f5b20b7e6eeb2d4e1f806a35e4a75f4e6e34dc5e732e8d",
    "eSSPRK+(10,2)": "0f7ced139bd7f669ea32742a78d6c00607e9fa8509aae1323118c132485319ef",
    "eSSPRK+(2,2)": "2791105f1464c2048f514940cbbac71ac3bb758f565635b3ccc90d9a11edce9d",
    "eSSPRK+(3,2)": "fd591876bb5b8b950b86f2cd1fd24a6b3faf73ab304f014dd2b6f6c0500196eb",
    "eSSPRK+(3,3)": "b21da18ba8b23eb6975084cf76106b8a543714ade19f4e51c1766e4f43822753",
    "eSSPRK+(4,2)": "40881c4215d87d60626eace9615011c1240fe99f9cc7f6e4baf271c3d6f5e02e",
    "eSSPRK+(4,3)": "6d7190ba6a636c34cac166862a2a780ea9620c5d0af83dc5a24207fc327c8a23",
    "eSSPRK+(5,2)": "62cf89343b7809e8054bbd166893e3597b28697fa5a43aa2c0058eec0abd0700",
    "eSSPRK+(5,4)": "038c61bf3bb3675ed41aa658a03afb680fbde8442c32ad43c65eb86a25f7d03c",
    "eSSPRK+(6,2)": "aa6367361fceb9b2dfcef1236a7f44ca5dbfe30130f9743536b6e21178891a97",
    "eSSPRK+(6,4)": "afd4b9954a252691e2feebb6c6182c779475d5b0e8b1364e3c4ed2671285d5ca",
    "eSSPRK+(7,2)": "7bfaea2414ade5639f7ab5e44f9e93691531c0a3700f9068c9cad7452f944157",
    "eSSPRK+(8,2)": "29ae31c67e84669dae81957ad5e3133745d5124e751233617540cceea29e3e68",
    "eSSPRK+(9,2)": "c00e4ddf85ac3685f119043d6aec9aab7ba421b2bd20505a8ab45c5d36eaafa9",
    "eSSPRK+(9,3)": "39c8c8e713612fb3b6d226f27f226d3007d1deabd95e349ed84d0f98df14b02d",
}


@pytest.mark.parametrize("name", sorted(_REGISTRY_DIGESTS))
def test_registry_record_keeps_its_bits(name):
    rec = methods.get(name)
    h = hashlib.sha256()
    for x in (rec.tableau.A, rec.tableau.b, rec.tableau.c,
              rec.shu_osher_form.alpha, rec.shu_osher_form.beta):
        h.update(x.tobytes())
    h.update(rec.claimed_C.hex().encode())
    assert h.hexdigest() == _REGISTRY_DIGESTS[name]
