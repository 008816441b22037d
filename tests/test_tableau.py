import ast
import graphlib
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sspint
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


def test_tableau_rejects_a_non_square_A():
    with pytest.raises(ValueError, match=r"A must be 2x2, got \(2, 3\)"):
        ButcherTableau(A=np.zeros((2, 3)), b=[0.5, 0.5], c=[0.0, 0.0])


@pytest.mark.parametrize("alpha, beta, message", [
    (np.zeros((3, 3)), np.zeros((2, 2)), "equal shape"),
    ([[0, 0, 0], [0.5, 0.5, 0], [0, 1, 0]], np.zeros((3, 3)), "strictly lower"),
    ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 0, 0], [1, 0, 0], [0, 0, 0.5]],
     "strictly lower"),
    ([0.0, 1.0], [0.0, 1.0], "square"),  # once a raw IndexError
], ids=["unequal-shapes", "alpha-diagonal", "beta-diagonal", "one-dimensional"])
def test_shu_osher_form_rejects_a_malformed_pair(alpha, beta, message):
    with pytest.raises(ValueError, match=message):
        ShuOsherForm(alpha=alpha, beta=beta)


@pytest.mark.parametrize("b, c", [
    ([[0.5], [0.5]], [0.0, 1.0]),
    ([0.5, 0.5], [[0.0, 1.0]]),
    (1.0, [0.0, 1.0]),
], ids=["column-b", "row-c", "scalar-b"])
def test_tableau_rejects_b_or_c_that_is_not_a_vector_of_s_entries(b, c):
    # a (2, 1) b and a (1, 2) c were once accepted
    with pytest.raises(ValueError, match="b and c must be 1-D of equal length"):
        ButcherTableau(A=[[0.0, 0.0], [1.0, 0.0]], b=b, c=c)


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


#: per record, the SHA-256 of the v and P bytes of canonical_form at
#: r = claimed_C / 2 and r = claimed_C, as computed when the canonical
#: transform lived in ssp_radius
_CANONICAL_DIGESTS = {
    "eSSPRK(10,4)": ("88384af18e5497bd415ad4ad8e31bc39b97ff690c21f9e3a167f45ecf09daf40",
                      "65e276487748f60ca3785f308f54528aff718b0974fbe396f92cbd4ac5f47989"),
    "eSSPRK(2,2)": ("9c900976e714e769efdb33f3002fcc95f06b80dab4b3d3418b09f8dfed0144da",
                     "febe2f6b3b1707d09d56c538aa9880db89e86546c4d93d672b8cccd049149d06"),
    "eSSPRK(3,3)": ("48e51ca50567c374a4625985da9c35291bc1b41b16bc705221d783988f143735",
                     "dfb86d190ab4f8c0b16407ed59a145e5c3737eb9afa97d0900b1c19f031e6b6f"),
    "eSSPRK(4,3)": ("f0f93b0e748399ea56dec1128d43a605861d27cafec29faf9c03cea3cacf388a",
                     "bb2f4ddbf6047ad46f8ea6f8c42b8a84e55fb22fe802e41d99b5834305fd016e"),
    "eSSPRK(5,4)": ("c1c448b7b2800769896fb259d2182045ecdcb4a96cf30aca159f9e7c946b8b81",
                     "06a8dec35f1db852168f3aaa0f959cfee6f634f488b06f0d9a24fdf73469d15a"),
    "eSSPRK+(10,2)": ("5248cd533157027060f52d81b16d7f99500e7ca5f28ce6224c3719af38d91e2f",
                       "fa9a1a59e6fd479e4c2d9fad2479a4e9d50773d5e49490a8533af751cf6b3ca9"),
    "eSSPRK+(2,2)": ("9c900976e714e769efdb33f3002fcc95f06b80dab4b3d3418b09f8dfed0144da",
                      "febe2f6b3b1707d09d56c538aa9880db89e86546c4d93d672b8cccd049149d06"),
    "eSSPRK+(3,2)": ("7f5fbc93c1f05272d9d09f2abe6a60e6f5291f64b2e4ffd5cd0ac11cb810bfc9",
                      "58390bd121bdcfb0b75c65552218c00583956a05def21154b24e0c53240fe500"),
    "eSSPRK+(3,3)": ("47ce1009f7038c594b7217a89949288ade4d59a7d8b4403829134ae6fa77b06a",
                      "24cac6ddd73384254132c9f4f2ec3afe218e25a633f085520c37ef285e66f6f7"),
    "eSSPRK+(4,2)": ("591059fbe2b0b778f68f0445f3634888d68f7e5d8d6efa350b7addb8f7011c33",
                      "17c4f210168853af297571a3515b2a00bf17d70c25b5ef3724053d79f1a1f31a"),
    "eSSPRK+(4,3)": ("26e61ccd11cfa843f4311401781b5c751c68e6c7ec64ac10199c0be2244c493f",
                      "83575dcb6ce2f9f03a08bd265f749155f8da07dfb313f81e7213c9b8ed2238fe"),
    "eSSPRK+(5,2)": ("8097744b391131c8224ecc188af78cf621013d166c13e5a45467e1cbc9f1b945",
                      "51ac3284db67ab0bf5cbd42dace6baa6008e1362eecf6cfbde084c85de129684"),
    "eSSPRK+(5,4)": ("1176d0ccfc0906d7486b8e9acae1801d8cea01e309d18673fe1c056c923aa2c2",
                      "fea1275205bc2e5a8a062b69532155f464149667d1ad6ea0f192aab8cc0bf1f8"),
    "eSSPRK+(6,2)": ("75325e9ee5df75bf56d482faf33ad0221a73bb75d8f28e38a9516c2d44146441",
                      "6331f0edfdf10297f2777090d7af51982a644a39b555959f48970db46556c7c7"),
    "eSSPRK+(6,4)": ("8ca9c99eb52615d938acc5463572b63952a5b95f97c2ff444bac0896f0d3f79a",
                      "65b8011c028f96fc9062a923638e0b4c0723bd3d597df8b70cd0267ec425a3a9"),
    "eSSPRK+(7,2)": ("4cc092bed2de3ebc740707347ed76075e2d4dd830883d55139aa153911663da9",
                      "14ba079dc7f57d50b0cd5b09642bcbc789e2073ca0c533e85d0f0914c5d7104d"),
    "eSSPRK+(8,2)": ("530b1b5e00867a5c2ca6c8a4997b6ae04202684fa1a17d21419ae36f35c3933f",
                      "62bb5c0ffff1523e0ef162568ba835ee921f2a12f2d00c706db2c02cec848f89"),
    "eSSPRK+(9,2)": ("709e128e7099713cf8d9060474a70da667aafbde8ae928dc704521527bb5db08",
                      "428e75feda26872fe0ec9a5993c904a6bbadf0be6100275f54bc74e64d00d420"),
    "eSSPRK+(9,3)": ("03f4aca51c0fe505f81a5636d9fe73363b71d1aa513e9c52389360a7f05f8024",
                      "f49ae9913cb84607a9a8d4f002a9b9b41abb011ff23beaa674326d57d9bc13c5"),
}


@pytest.mark.parametrize("name", sorted(_CANONICAL_DIGESTS))
def test_canonical_form_keeps_its_bits(name):
    rec = methods.get(name)
    got = []
    for r in (rec.claimed_C / 2, rec.claimed_C):
        can = canonical_form(rec.tableau, r)
        got.append(hashlib.sha256(can.v.tobytes() + can.P.tobytes()).hexdigest())
    assert tuple(got) == _CANONICAL_DIGESTS[name]


def test_the_package_imports_form_no_cycle():
    # every import within sspint, at module level or inside a function, is
    # an edge; `from . import X` names module X, or the package for a name
    # such as __version__
    src = Path(sspint.__file__).parent
    modules = {p.stem for p in src.glob("*.py")}
    graph = {}
    for module in modules:
        deps = graph[module] = set()
        for node in ast.walk(ast.parse((src / f"{module}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["sspint" if node.level else "", node.module]))
                names = [base] if base != "sspint" else [f"sspint.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            deps.update(x if x in modules else "__init__"
                        for x in (n.split(".")[1] for n in names if n.startswith("sspint.")))
    assert "tableau" in graph["ssp_radius"] and "__init__" in graph["cli"]
    list(graphlib.TopologicalSorter(graph).static_order())  # a CycleError otherwise


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
