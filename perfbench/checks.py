"""Output checks: each invocation's files against values recorded when the
benchmark was added (reference.json), each at the resolution of its
quantity.

The references are what this implementation computes, not the paper's
targets: four acceptance criteria fail where the references were recorded,
and encoding their targets here would make every run fail.  Changing a
reference is a change of the benchmark, made on its own.
"""

import csv
import io
import json
import math

from workloads import OPTIMIZER_CASES, RESTARTS

#: bisection width of observed_tvd_lambda and observed_l2_cfl.
LAMBDA_TOL = 1e-3
#: TV-rise resolution: absolute roundoff floor plus a relative part.
RISE_ABS, RISE_REL = 1e-12, 1e-6
#: detection threshold whose first crossing must not move
#: (sspint.analysis.DEFAULT_THRESHOLD).
RISE_THRESHOLD = 1e-10
#: van der Pol errors and fitted convergence slopes.
ERROR_ABS, ERROR_REL = 1e-12, 1e-6
SLOPE_TOL = 1e-6
#: norms after ten long IFRK steps: roundoff of the FFT path.
NORM_REL = 1e-9
#: r_tolerance of the optimizer's outer bisection.
C_TOL = 1e-4
#: invariant for probe seeds without a recorded value.
L2CFL_33, L2CFL_33_TOL = 0.114, 0.01


def parse_csv(text):
    """Header, data rows, and the ``# key=value`` metadata block."""
    rows, meta = [], {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            rows.append(line)
    parsed = list(csv.reader(io.StringIO("\n".join(rows))))
    return parsed[0], parsed[1:], meta


def _close(got, want, abs_tol, rel_tol=0.0):
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= abs_tol + rel_tol * abs(want)


class Report:
    def __init__(self):
        self.checks = []  # (label, ok, detail)

    def add(self, label, ok, detail=""):
        self.checks.append((label, bool(ok), detail))

    @property
    def failures(self):
        return [c for c in self.checks if not c[1]]


def _rows_by_key(rows, nkey):
    return {tuple(r[:nkey]): r[nkey:] for r in rows}


def _keyed(report, label, got_text, want_text, nkey, compare):
    """Rows keyed by their first nkey columns; compare(key, got, want)
    on the remaining columns of each."""
    gh, grows, _ = parse_csv(got_text)
    wh, wrows, _ = parse_csv(want_text)
    report.add(f"{label}:header", gh == wh, f"{gh} vs {wh}")
    got, want = _rows_by_key(grows, nkey), _rows_by_key(wrows, nkey)
    report.add(f"{label}:rows", list(got) == list(want),
               f"{len(got)} rows vs {len(want)}")
    for key, wvals in want.items():
        if key in got:
            ok, detail = compare(key, got[key], wvals)
            report.add(f"{label}:{'/'.join(key)}", ok, detail)


def _lambda_cmp(key, got, want):
    g, w = float(got[0]), float(want[0])
    return _close(g, w, LAMBDA_TOL), f"{g} vs {w}"


def _table8_cmp(key, got, want):
    if key[0] == "l2_cfl":
        return _lambda_cmp(key, got, want)
    g, w = float(got[0]), float(want[0])
    return _close(g, w, 0.0, NORM_REL), f"{g} vs {w}"


def _first_crossing(rows):
    for lam, rise, _ in rows:
        if float(rise) > RISE_THRESHOLD:
            return float(lam)
    return None


def _check_sweep(report, label, got_text, want_text):
    gh, grows, _ = parse_csv(got_text)
    wh, wrows, _ = parse_csv(want_text)
    report.add(f"{label}:header", gh == wh, f"{gh} vs {wh}")
    report.add(f"{label}:rows", len(grows) == len(wrows),
               f"{len(grows)} rows vs {len(wrows)}")
    for g, w in zip(grows, wrows):
        glam, grise, glog = (float(x) for x in g)
        wlam, wrise = float(w[0]), float(w[1])
        ok = (_close(glam, wlam, 0.0, 1e-12)
              and _close(grise, wrise, RISE_ABS, RISE_REL)
              and _close(glog, math.log10(max(grise, 1e-300)), 1e-9))
        report.add(f"{label}:lambda={w[0]}", ok, f"rise {grise} vs {wrise}")
    gc, wc = _first_crossing(grows), _first_crossing(wrows)
    report.add(f"{label}:first_crossing", gc == wc, f"{gc} vs {wc}")


def _error_cmp(key, got, want):
    g, w = float(got[0]), float(want[0])
    return _close(g, w, ERROR_ABS, ERROR_REL), f"{g} vs {w}"


def _slope_cmp(key, got, want):
    ok = got[0] == want[0]
    g, w = float(got[1]), float(want[1])
    return ok and _close(g, w, SLOPE_TOL), f"order {got[0]}, slope {g} vs {w}"


def _check_files(report, name, outputs, want):
    report.add(f"{name}:files", sorted(outputs) == sorted(want),
               f"{sorted(outputs)} vs {sorted(want)}")
    for fname, want_text in sorted(want.items()):
        got_text = outputs.get(fname)
        if got_text is None:
            continue
        label = f"{name}:{fname}"
        if fname in ("table6.csv", "table7.csv"):
            _keyed(report, label, got_text, want_text, 2, _lambda_cmp)
        elif fname == "table8_partial.csv":
            _keyed(report, label, got_text, want_text, 2, _table8_cmp)
        elif fname.startswith(("ex4_", "fig1_")):
            _check_sweep(report, label, got_text, want_text)
        elif fname == "ex1_errors.csv":
            _keyed(report, label, got_text, want_text, 3, _error_cmp)
        elif fname == "ex1_slopes.csv":
            _keyed(report, label, got_text, want_text, 2, _slope_cmp)
        else:
            report.add(label, False, "no check for this file")


def _check_l2cfl(report, name, outputs, want):
    value = json.loads(outputs["l2cfl.json"])["l2_cfl"]
    report.add(f"{name}:invariant", abs(value - L2CFL_33) <= L2CFL_33_TOL,
               f"|{value} - {L2CFL_33}| <= {L2CFL_33_TOL}")
    if want is not None:
        ref = json.loads(want["l2cfl.json"])["l2_cfl"]
        report.add(f"{name}:recorded", _close(value, ref, LAMBDA_TOL),
                   f"{value} vs {ref}")


def _check_optimize(report, inv, result, want):
    name = inv["name"]
    cert = result.get("certificate") or {}
    report.add(f"{name}:certificate", cert.get("ok"),
               "; ".join(cert.get("violations", [])))
    C = cert.get("C", float("nan"))
    if inv["restarts"] >= RESTARTS:  # the floors are stated for 10 restarts
        s, p = (int(x) for x in name.split(".")[1].split("-"))
        floor = OPTIMIZER_CASES[(s, p)][1]
        report.add(f"{name}:floor", C >= floor, f"C={C} >= {floor}")
    if want is not None:
        ref = json.loads(want["optimized.json"])["claimed_C"]
        report.add(f"{name}:recorded", _close(C, ref, C_TOL), f"{C} vs {ref}")


def check_invocation(report, inv, result, reference):
    """Add the checks of one invocation's outputs to report.  Seeded
    invocations always meet their invariants, and their recorded values
    too when their seed was recorded."""
    name = inv["name"]
    want = reference.get(inv["key"])
    outputs = result["outputs"]
    if inv["kind"] == "l2cfl":
        _check_l2cfl(report, name, outputs, want)
    elif "seed" in inv:
        _check_optimize(report, inv, result, want)
    elif want is None:
        report.add(f"{name}:reference", False, "no recorded reference")
    else:
        _check_files(report, name, outputs, want)
