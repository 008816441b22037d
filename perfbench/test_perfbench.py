"""Tests of the benchmark itself: a reduced-size run of every workload,
traced and untraced, plus the output checks on perturbed outputs.

Run from the repository root: python3 -m pytest perfbench
"""

import gzip
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import child  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())
WORKLOADS = sorted(workloads.WHY)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=175,
    )


def _smoke(workload, trace, seed=0):
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds",
                  "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(ln.startswith("checks ") and "failed_frac 0.000000 ratio" in ln
               for ln in lines), proc.stdout
    return lines, result


def test_benchmark_json_lists_the_printed_metrics():
    assert workloads.WHY.keys() == {w["name"] for w in SPEC["workloads"]}
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == (
        bench.per_layer_names())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_untraced(workload):
    lines, result = _smoke(workload, 0)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == dict(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in bench.END_TO_END:
        assert any(ln.startswith(f"metric {name} ") and ln.endswith(f" {unit}")
                   for ln in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    lines, result = _smoke(workload, 1)
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == dict(
        bench.per_layer_names())
    for name, zero_on in bench.ZERO_CALL_PREDICTIONS:
        if workload in zero_on:
            assert metrics[name]["value"] == 0, name
    assert any("wait time is not applicable" in ln for ln in lines)
    assert metrics["trace.spans"]["value"] > 0

    spans = []
    for path in sorted((bench.OUT / "traces" / workload).glob("*.jsonl.gz")):
        with gzip.open(path, "rt") as fh:
            spans += [json.loads(ln) for ln in fh]
    assert len(spans) == metrics["trace.spans"]["value"]
    by_id = {(s["run_id"], s["id"]): s for s in spans}
    assert len(by_id) == len(spans)
    covered = {}
    for s in spans:
        if s["parent"]:
            parent = by_id[(s["run_id"], s["parent"])]
            assert parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]
            key = (s["run_id"], s["parent"])
            covered[key] = covered.get(key, 0) + s["end_ns"] - s["start_ns"]
    for key, s in by_id.items():
        assert s["end_ns"] - s["start_ns"] - covered.get(key, 0) >= 0


@pytest.mark.parametrize("workload", ["linear-advection", "optimizer"])
def test_unrecorded_seed_meets_the_invariants(workload):
    _smoke(workload, 0, seed=3)


def test_gauge_clock_never_steps_back():
    # samples every 10 ms, so many land between two reads of the clock
    gauge = child.SpeedGauge()
    gauge.PERIOD = 0.01
    steps_back = 0
    with gauge:
        prev, stop = gauge.clock_ns(), time.monotonic() + 1.0
        while time.monotonic() < stop:
            now = gauge.clock_ns()
            steps_back += now < prev
            prev = now
    assert len(gauge.samples) > 10
    assert steps_back == 0


def test_without_the_package_it_fails_without_a_result():
    bare = bench.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _bench("--workload", "optimizer", "--seed", "0", "--seconds",
                      "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _table_check(text):
    report = checks.Report()
    inv = {"name": "run.table6", "key": "run.table6", "kind": "cli"}
    checks.check_invocation(report, inv, {"outputs": {"table6.csv": text}},
                            REFERENCE["full"])
    return report


def test_checks_accept_the_reference_and_reject_a_moved_lambda():
    text = REFERENCE["full"]["run.table6"]["table6.csv"]
    assert not _table_check(text).failures
    header, rest = text.split("\n", 1)
    first, tail = rest.split("\n", 1)
    cells = first.rsplit(",", 1)
    within = f"{cells[0]},{float(cells[1]) + 5e-4!r}"
    beyond = f"{cells[0]},{float(cells[1]) + 2e-3!r}"
    assert not _table_check(f"{header}\n{within}\n{tail}").failures
    assert len(_table_check(f"{header}\n{beyond}\n{tail}").failures) == 1


def test_checks_reject_a_moved_sweep_crossing():
    name = "run.fig1"
    want = REFERENCE["full"][name]
    fname = sorted(want)[0]
    header, *rows = [ln for ln in want[fname].splitlines()
                     if not ln.startswith("#")]
    crossing = next(i for i, r in enumerate(rows)
                    if float(r.split(",")[1]) > checks.RISE_THRESHOLD)
    lam, _, _ = rows[crossing].split(",")
    rows[crossing] = f"{lam},1e-11,-11.0"
    report = checks.Report()
    outputs = dict(want, **{fname: "\n".join([header] + rows) + "\n"})
    checks.check_invocation(report, {"name": name, "key": name, "kind": "cli"},
                            {"outputs": outputs}, REFERENCE["full"])
    labels = {label.rsplit(":", 1)[1] for label, _, _ in report.failures}
    assert labels == {f"lambda={lam}", "first_crossing"}
