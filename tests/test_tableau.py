import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspint import methods
from sspint.ssp_radius import canonical_form, ssp_radius
from sspint.tableau import (
    _ORDER_CONDITIONS,
    ButcherTableau,
    ShuOsherForm,
    abscissas_nondecreasing,
    butcher_to_canonical_shu_osher,
    order_residuals,
    parse_coefficient,
    shu_osher_to_butcher,
)


def classic_33_so():
    return ShuOsherForm.from_entries(
        3,
        {(1, 0): 1, (2, 0): "3/4", (2, 1): "1/4", (3, 0): "1/3", (3, 2): "2/3"},
        {(1, 0): 1, (2, 1): "1/4", (3, 2): "2/3"},
    )


def test_parse_coefficient():
    assert parse_coefficient("1/3") == pytest.approx(1.0 / 3.0, abs=0)
    assert parse_coefficient("0.25") == 0.25
    assert parse_coefficient(2) == 2.0
    # exact rational parsing: 1/3 as a Fraction rounds once, not twice
    assert parse_coefficient("2/6") == parse_coefficient("1/3")


def test_tableau_rejects_nonexplicit_A():
    A = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError):
        ButcherTableau.from_arrays(A, [0.5, 0.5])


def test_tableau_rejects_bad_weights():
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        ButcherTableau.from_arrays(A, [0.5, 0.6])


def test_tableau_rejects_inconsistent_c():
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        ButcherTableau.from_arrays(A, [0.5, 0.5], c=[0.0, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tableau_rejects_nonfinite_entries(bad):
    cases = [([[0, 0], [bad, 0]], [0.5, 0.5], [0, bad]),
             ([[0, 0], [1, 0]], [bad, 0.5], None),
             ([[0, 0], [1, 0]], [0.5, 0.5], [0, bad])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A, b, c in cases:
            with pytest.raises(ValueError, match="finite"):
                ButcherTableau.from_arrays(A, b, c=c)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_shu_osher_form_rejects_nonfinite_entries(bad):
    # a NaN alpha would pass the row-sum check and read as SSP-admissible
    cases = [({(1, 0): bad, (2, 1): 1}, {(1, 0): 1, (2, 1): 0.5}),
             ({(1, 0): 1, (2, 1): 1}, {(1, 0): 1, (2, 1): bad})]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, beta in cases:
            with pytest.raises(ValueError, match="finite"):
                ShuOsherForm.from_entries(2, alpha, beta)


def test_tableau_c_defaults_to_row_sums():
    A = [[0, 0], [1, 0]]
    t = ButcherTableau.from_arrays(A, ["1/2", "1/2"])
    assert np.allclose(t.c, [0.0, 1.0])
    assert t.stages == 2


def test_tableau_freezes_copies_not_the_callers_arrays():
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([0.5, 0.5])
    c = np.array([0.0, 1.0])
    t = ButcherTableau(A=A, b=b, c=c)
    assert A.flags.writeable and b.flags.writeable and c.flags.writeable
    assert not (t.A.flags.writeable or t.b.flags.writeable or t.c.flags.writeable)
    A[1, 0] = 2.0
    assert t.A[1, 0] == 1.0


def test_shu_osher_form_freezes_copies_not_the_callers_arrays():
    # a registry form was writeable: one assignment changed every later get
    so = methods.get("eSSPRK(3,3)").shu_osher
    for M in (so.alpha, so.beta):
        with pytest.raises(ValueError):
            M[1, 0] = 0.5
    assert methods.get("eSSPRK(3,3)").shu_osher.alpha[1, 0] == 1.0
    alpha, beta = np.array(so.alpha), np.array(so.beta)
    so2 = ShuOsherForm(alpha=alpha, beta=beta)
    assert alpha.flags.writeable and beta.flags.writeable
    alpha[1, 0] = 0.5
    assert so2.alpha[1, 0] == 1.0


@pytest.mark.parametrize("name", ["eSSPRK(3,3)", "eSSPRK+(6,4)", "eSSPRK(10,4)"])
def test_stacked_is_one_read_only_matrix_per_tableau(name):
    t = methods.get(name).tableau
    s = t.stages
    want = np.zeros((s + 1, s + 1))
    want[:s, :s] = t.A
    want[s, :s] = t.b
    assert t.stacked.tobytes() == want.tobytes() and t.stacked.shape == want.shape
    assert not t.stacked.flags.writeable
    with pytest.raises(ValueError):
        t.stacked[1, 0] = 0.0
    # built once: every canonical probe of the tableau shares the same array
    assert t.stacked is t.stacked
    assert all(canonical_form(t, r).S is t.stacked for r in (0.0, 0.5, 1.0))


def test_tableau_json_round_trip():
    t = methods.get("eSSPRK+(5,4)").tableau
    t2 = ButcherTableau.from_json_dict(json.loads(json.dumps(t.to_json_dict())))
    assert np.array_equal(t.A, t2.A)
    assert np.array_equal(t.b, t2.b)
    assert np.array_equal(t.c, t2.c)
    assert t2.name == t.name and t2.order == t.order


def test_shu_osher_row_sums_enforced():
    with pytest.raises(ValueError):
        ShuOsherForm.from_entries(2, {(1, 0): 0.9, (2, 1): 1.0}, {(1, 0): 0.5})


def test_shu_osher_admissibility():
    so = classic_33_so()
    assert so.is_ssp_admissible()
    bad = ShuOsherForm.from_entries(
        2, {(1, 0): 1.0, (2, 0): 1.5, (2, 1): -0.5}, {(1, 0): 1.0, (2, 1): 0.5}
    )
    assert not bad.is_ssp_admissible()


def test_shu_osher_to_butcher_classic_33():
    t = shu_osher_to_butcher(classic_33_so())
    assert np.allclose(t.A, [[0, 0, 0], [1, 0, 0], [0.25, 0.25, 0]], atol=1e-15)
    assert np.allclose(t.b, [1 / 6, 1 / 6, 2 / 3], atol=1e-15)
    assert np.allclose(t.c, [0.0, 1.0, 0.5], atol=1e-15)


def test_canonical_round_trip_at_radius():
    for name, r in (("eSSPRK(3,3)", 1.0), ("eSSPRK+(4,3)", 20.0 / 11.0),
                    ("eSSPRK+(5,4)", 1.3465)):
        t = methods.get(name).tableau
        so = butcher_to_canonical_shu_osher(t, r)
        t2 = shu_osher_to_butcher(so)
        assert np.allclose(t.A, t2.A, atol=1e-10)
        assert np.allclose(t.b, t2.b, atol=1e-10)


def _canonical_by_entries(t, r):
    """Reference: the canonical (alpha, beta) written entry by entry; at
    r = 0, alpha[i,0] = 1 and the beta rows are the Butcher rows."""
    can = canonical_form(t, r)
    s = t.stages
    alpha = np.zeros((s + 1, s + 1))
    beta = np.zeros((s + 1, s + 1))
    if r == 0:
        rows = np.vstack([t.A, t.b])
        for i in range(1, s + 1):
            alpha[i, 0] = 1.0
            beta[i, :i] = rows[i, :i]
        return alpha, beta
    for i in range(1, s + 1):
        alpha[i, 0] = can.v[i] + can.P[i, 0]
        beta[i, 0] = can.P[i, 0] / r
        for j in range(1, i):
            alpha[i, j] = can.P[i, j]
            beta[i, j] = can.P[i, j] / r
    return alpha, beta


#: negative entries off column 0, so C = 0, and at r = 0 the reference's
#: alpha holds +0.0 where 0 * S is -0.0.
NEGATIVE = ButcherTableau.from_arrays([[0, 0, 0], [0.5, 0, 0], [1.5, -0.5, 0]],
                                      [0.5, 0.75, -0.25], name="negative")


@pytest.mark.parametrize("name", methods.method_names() + ["negative"])
def test_canonical_form_matches_entrywise_reference_bitwise(name):
    t = NEGATIVE if name == "negative" else methods.get(name).tableau
    C = ssp_radius(t).radius
    for r in (0.0, C / 2, C, 2 * C):
        so = butcher_to_canonical_shu_osher(t, r)
        alpha, beta = _canonical_by_entries(t, r)
        assert so.alpha.tobytes() == alpha.tobytes(), (name, r)
        assert so.beta.tobytes() == beta.tobytes(), (name, r)


def test_canonical_round_trip_r_zero():
    t = methods.get("eSSPRK(3,3)").tableau
    so = butcher_to_canonical_shu_osher(t, 0.0)
    t2 = shu_osher_to_butcher(so)
    assert np.allclose(t.A, t2.A, atol=1e-14)
    assert np.allclose(t.b, t2.b, atol=1e-14)


def test_canonical_at_one_recovers_classic_33_coefficients():
    t = methods.get("eSSPRK(3,3)").tableau
    so = butcher_to_canonical_shu_osher(t, 1.0)
    ref = classic_33_so()
    assert np.allclose(so.alpha, ref.alpha, atol=1e-13)
    assert np.allclose(so.beta, ref.beta, atol=1e-13)


def test_order_residuals_classic():
    rep = order_residuals(methods.get("eSSPRK(3,3)").tableau)
    assert rep.achieved_order == 3
    assert abs(rep.residuals["b.e"]) <= 1e-14
    assert abs(rep.residuals["bAc"]) <= 1e-14
    rep2 = order_residuals(methods.get("eSSPRK(2,2)").tableau)
    assert rep2.achieved_order == 2


#: the order conditions as written for one tableau at a time, the
#: reference the batch-aware table is compared against.
_SCALAR_CONDITIONS = (
    lambda A, b, c: b.sum() - 1.0,
    lambda A, b, c: b @ c - 1.0 / 2.0,
    lambda A, b, c: b @ (c * c) - 1.0 / 3.0,
    lambda A, b, c: b @ (A @ c) - 1.0 / 6.0,
    lambda A, b, c: b @ (c * c * c) - 1.0 / 4.0,
    lambda A, b, c: b @ (c * (A @ c)) - 1.0 / 8.0,
    lambda A, b, c: b @ (A @ (c * c)) - 1.0 / 12.0,
    lambda A, b, c: b @ (A @ (A @ c)) - 1.0 / 24.0,
)


@settings(max_examples=200, deadline=None)
@given(s=st.integers(1, 10), batch=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       complex_step=st.booleans())
def test_batched_order_conditions_match_the_scalar_table_bitwise(s, batch, seed,
                                                                 complex_step):
    # a batch of tableaux that share a real part, as the rows of a
    # complex-step Jacobian do, or independent real tableaux
    rng = np.random.default_rng(seed)
    A = np.tril(rng.uniform(-1.0, 1.0, (batch, s, s)), -1)
    b = rng.uniform(-1.0, 1.0, (batch, s))
    if complex_step:
        A = A[0] + 1e-30j * np.tril(rng.uniform(-1.0, 1.0, (batch, s, s)), -1)
        b = b[0] + 1e-30j * rng.uniform(-1.0, 1.0, (batch, s))
    c = A.sum(axis=-1)
    assert len(_ORDER_CONDITIONS) == len(_SCALAR_CONDITIONS)
    for (_, _, fn), ref in zip(_ORDER_CONDITIONS, _SCALAR_CONDITIONS):
        want = np.array([ref(A[i], b[i], c[i]) for i in range(batch)])
        rows = np.array([fn(A[i], b[i], c[i]) for i in range(batch)])
        got = fn(A, b, c)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes() == rows.tobytes()


def test_order_residuals_match_the_scalar_table_bitwise():
    for name in methods.method_names():
        t = methods.get(name).tableau
        got = order_residuals(t).residuals
        want = [float(ref(t.A, t.b, t.c)) for ref in _SCALAR_CONDITIONS]
        assert [x.hex() for x in got.values()] == [x.hex() for x in want], name


def test_abscissas_nondecreasing_flag():
    assert not abscissas_nondecreasing(methods.get("eSSPRK(3,3)").tableau)
    assert abscissas_nondecreasing(methods.get("eSSPRK+(3,3)").tableau)
