"""Registry of built-in SSP Runge-Kutta methods.

Coefficients are entered exactly as printed in their sources: rationals as
``"p/q"`` strings and decimals with all published digits.  Methods whose
abscissas are non-decreasing (family ``eSSPRKplus``) are suitable for the
integrating-factor construction; the classical methods are kept for plain
Runge-Kutta stepping and for the decreasing-abscissa counterexample.
``verify_certificate`` is the one judge of a record's claims: the registry
certifies every record when it is first built, and the optimizer each
tableau it finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import UnknownMethod
from .ssp_radius import is_absolutely_monotonic, ssp_radius
from .tableau import (
    ButcherTableau,
    ShuOsherForm,
    _from_entries,
    abscissas_nondecreasing,
    butcher_to_canonical_shu_osher,
    order_residuals,
    shu_osher_to_butcher,
)

FAMILY_CLASSIC = "eSSPRK"
FAMILY_PLUS = "eSSPRKplus"


@dataclass(frozen=True)
class MethodRecord:
    tableau: ButcherTableau
    shu_osher: Optional[ShuOsherForm]
    claimed_C: float
    family: str
    citation: str

    @property
    def name(self) -> str:
        return self.tableau.name

    @property
    def stages(self) -> int:
        return self.tableau.stages

    @property
    def order(self) -> int:
        return self.tableau.order

    @property
    def nondecreasing(self) -> bool:
        return abscissas_nondecreasing(self.tableau)

    @cached_property
    def shu_osher_form(self) -> ShuOsherForm:
        """The stored Shu-Osher form, or else (every optimizer output) the
        canonical one at the SSP radius, derived once per record."""
        t = self.tableau
        return self.shu_osher or butcher_to_canonical_shu_osher(t, ssp_radius(t).radius)


@dataclass(frozen=True)
class CertificateReport:
    checks: Tuple[Tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    @property
    def violations(self) -> Tuple[str, ...]:
        return tuple(
            f"{name}: {detail}" for name, passed, detail in self.checks if not passed
        )


def verify_certificate(record: MethodRecord) -> CertificateReport:
    """Independently re-check a method record's claims from its tableau:
    order conditions, absolute monotonicity just below the claimed
    coefficient (at C - 1e-6), and, in the plus family, non-decreasing
    abscissas.  The one judge of a record, printed or optimized."""
    t = record.tableau
    rep = order_residuals(t)
    r_probe = max(record.claimed_C - 1e-6, 0.0)
    checks = [
        ("order", rep.achieved_order >= record.order,
         f"achieved order {rep.achieved_order}, claimed {record.order}"),
        ("absolute_monotonicity", is_absolutely_monotonic(t, r_probe),
         f"claimed coefficient {record.claimed_C:.6f}, probed at {r_probe:.6f}"),
    ]
    if record.family == FAMILY_PLUS:
        # the rule make_plan applies, so a certified record can be stepped
        checks.append(("nondecreasing_abscissas", abscissas_nondecreasing(t),
                       f"c = {np.round(t.c, 6).tolist()}"))
    return CertificateReport(tuple(checks))


def _record(name, order, alpha, beta, claimed_C, family, citation):
    so = ShuOsherForm.from_entries(max(i for i, _ in alpha), alpha, beta)
    t = shu_osher_to_butcher(so, name=name, order=order)
    return MethodRecord(
        tableau=t, shu_osher=so, claimed_C=claimed_C, family=family, citation=citation
    )


def _canonical_record(name, r, v, P, citation):
    """A fourth-order plus-family record with C = r, entered as its
    canonical Shu-Osher data at r: v = (I + rS)^(-1) e and the nonzero
    entries {(i, j): P_ij} of P = r (I + rS)^(-1) S."""
    so = ShuOsherForm.canonical(np.array(v), _from_entries(len(v), P), r)
    t = shu_osher_to_butcher(so, name=name, order=4)
    return MethodRecord(tableau=t, shu_osher=so, claimed_C=r, family=FAMILY_PLUS,
                        citation=citation)


def generate_second_order(s: int) -> MethodRecord:
    """Second-order family with C = s - 1 and equally spaced, increasing
    abscissas: A_ij = 1/(s-1) for j < i, b = e/s."""
    if s < 2:
        raise ValueError("second-order family requires s >= 2")
    alpha, beta = {}, {}
    for i in range(1, s):
        alpha[(i, i - 1)] = 1.0
        beta[(i, i - 1)] = 1.0 / (s - 1)
    alpha[(s, 0)] = 1.0 / s
    alpha[(s, s - 1)] = (s - 1.0) / s
    beta[(s, s - 1)] = 1.0 / s
    return _record(f"eSSPRK+({s},2)", 2, alpha, beta, float(s - 1), FAMILY_PLUS,
                   "second-order family with non-decreasing abscissas")


def _build_registry():
    recs = []

    # --- classical methods -------------------------------------------------
    recs.append(
        _record(
            "eSSPRK(2,2)",
            2,
            {(1, 0): 1, (2, 0): "1/2", (2, 1): "1/2"},
            {(1, 0): 1, (2, 1): "1/2"},
            1.0,
            FAMILY_CLASSIC,
            "classical two-stage second-order SSP method",
        )
    )
    recs.append(
        _record(
            "eSSPRK(3,3)",
            3,
            {(1, 0): 1, (2, 0): "3/4", (2, 1): "1/4", (3, 0): "1/3", (3, 2): "2/3"},
            {(1, 0): 1, (2, 1): "1/4", (3, 2): "2/3"},
            1.0,
            FAMILY_CLASSIC,
            "classical three-stage third-order SSP method",
        )
    )
    recs.append(
        _record(
            "eSSPRK(4,3)",
            3,
            {(1, 0): 1, (2, 1): 1, (3, 0): "2/3", (3, 2): "1/3", (4, 3): 1},
            {(1, 0): "1/2", (2, 1): "1/2", (3, 2): "1/6", (4, 3): "1/2"},
            2.0,
            FAMILY_CLASSIC,
            "classical four-stage third-order SSP method",
        )
    )
    recs.append(
        _record(
            "eSSPRK(5,4)",
            4,
            {
                (1, 0): 1,
                (2, 0): "0.444370493651235",
                (2, 1): "0.555629506348765",
                (3, 0): "0.620101851488403",
                (3, 2): "0.379898148511597",
                (4, 0): "0.178079954393132",
                (4, 3): "0.821920045606868",
                (5, 2): "0.517231671970585",
                (5, 3): "0.096059710526147",
                (5, 4): "0.386708617503268",
            },
            {
                (1, 0): "0.391752226571890",
                (2, 1): "0.368410593050371",
                (3, 2): "0.251891774271694",
                (4, 3): "0.544974750228521",
                (5, 3): "0.063692468666290",
                (5, 4): "0.226007483236906",
            },
            1.508,
            FAMILY_CLASSIC,
            "optimized five-stage fourth-order SSP method",
        )
    )
    a104, b104 = {}, {}
    for i in list(range(1, 5)) + list(range(6, 10)):
        a104[(i, i - 1)] = 1
        b104[(i, i - 1)] = "1/6"
    a104[(5, 0)] = "3/5"
    a104[(5, 4)] = "2/5"
    b104[(5, 4)] = "1/15"
    a104[(10, 0)] = "1/25"
    a104[(10, 4)] = "9/25"
    b104[(10, 4)] = "3/50"
    a104[(10, 9)] = "3/5"
    b104[(10, 9)] = "1/10"
    recs.append(
        _record(
            "eSSPRK(10,4)",
            4,
            a104,
            b104,
            6.0,
            FAMILY_CLASSIC,
            "low-storage ten-stage fourth-order SSP method",
        )
    )

    # --- non-decreasing-abscissa methods ----------------------------------
    for s in range(2, 11):
        recs.append(generate_second_order(s))
    recs.append(
        _record(
            "eSSPRK+(3,3)",
            3,
            {(1, 0): 1, (2, 0): "2/3", (2, 1): "1/3", (3, 0): "74/128", (3, 2): "27/64"},
            {(1, 0): "2/3", (2, 1): "4/9", (3, 0): "5/32", (3, 2): "9/16"},
            0.75,
            FAMILY_PLUS,
            "optimal three-stage third-order method with non-decreasing abscissas",
        )
    )
    recs.append(
        _record(
            "eSSPRK+(4,3)",
            3,
            {
                (1, 0): 1,
                (2, 0): "3/8",
                (2, 1): "5/8",
                (3, 0): "4/9",
                (3, 2): "5/9",
                (4, 0): "371/1331",
                (4, 3): "960/1331",
            },
            {
                (1, 0): "11/20",
                (2, 1): "11/32",
                (3, 2): "11/36",
                (4, 0): "13/121",
                (4, 3): "48/121",
            },
            float(20) / 11,
            FAMILY_PLUS,
            "four-stage third-order method with non-decreasing abscissas",
        )
    )
    a93, b93 = {}, {}
    for i in range(1, 5):
        a93[(i, i - 1)] = 1
        b93[(i, i - 1)] = "1/6"
    a93[(5, 0)] = "1/5"
    a93[(5, 4)] = "4/5"
    b93[(5, 4)] = "2/15"
    a93[(6, 0)] = "1/4"
    b93[(6, 0)] = "1/24"
    a93[(6, 5)] = "3/4"
    b93[(6, 5)] = "1/8"
    a93[(7, 2)] = "1/3"
    a93[(7, 6)] = "2/3"
    b93[(7, 6)] = "1/9"
    a93[(8, 7)] = 1
    b93[(8, 7)] = "1/6"
    a93[(9, 8)] = 1
    b93[(9, 8)] = "1/6"
    recs.append(
        _record(
            "eSSPRK+(9,3)",
            3,
            a93,
            b93,
            6.0,
            FAMILY_PLUS,
            "nine-stage third-order method with non-decreasing abscissas",
        )
    )

    # --- printed in canonical Shu-Osher form at r = C: v and P ------------
    recs.append(_canonical_record(
        "eSSPRK+(5,4)", 1.346586417284006,
        [1.0, 1 - 0.612607832029627, 0.568702484115635, 0.589791736452092,
         0.213474206786188, 0.270147144537063],
        {(1, 0): 0.612607832029627, (2, 1): 0.431297515884365,
         (3, 2): 0.410208263547908, (4, 3): 0.786525793213812,
         (5, 0): 0.029337521506634, (5, 1): 0.239419175840559,
         (5, 3): 0.227000995504038, (5, 4): 0.234095162611706},
        "five-stage fourth-order method with non-decreasing abscissas"))
    recs.append(_canonical_record(
        "eSSPRK+(6,4)", 2.273802749301517,
        [1.0, 0.0, 0.486695314011133, 0.387273961537322, 0.419340376206590, 0.0,
         0.122021674306995],
        {(1, 0): 1.0, (2, 1): 0.513304685988867,
         (3, 2): 0.612726038462678, (4, 0): 0.048271190433595,
         (4, 3): 0.532388433359815, (5, 4): 1.0,
         (6, 1): 0.104714614292281, (6, 2): 0.316675962670361,
         (6, 4): 0.057551178672633, (6, 5): 0.399036570057730},
        "six-stage fourth-order method with non-decreasing abscissas"))

    return {rec.name: rec for rec in recs}


_REGISTRY = None


def _registry():
    global _REGISTRY
    if _REGISTRY is None:
        reg = _build_registry()
        _self_check(reg)
        _REGISTRY = reg
    return _REGISTRY


def _self_check(reg):
    """Certify every record: claimed coefficient, order and abscissa flag."""
    for name, rec in reg.items():
        violations = verify_certificate(rec).violations
        if violations:
            raise AssertionError(f"{name}: {violations}")


def get(name: str) -> MethodRecord:
    reg = _registry()
    try:
        return reg[name]
    except KeyError:
        raise UnknownMethod(name, sorted(reg)) from None


def list_methods():
    """All registered records, sorted by (order, stages, name)."""
    return sorted(
        _registry().values(), key=lambda r: (r.order, r.stages, r.name)
    )


def method_names():
    return sorted(_registry())
