"""Benchmark of sspint: the CLI's own experiments and optimizer runs, end to
end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME ... --smoke   # reduced sizes
    python3 perfbench/run.py --record   # re-record perfbench/reference.json

Workloads and the reasons for them are in workloads.py and BENCHMARK.json.
Every invocation runs in a fresh interpreter (child.py), one at a time,
with SSPINT_THREADS unset, so no repetition reuses state of an earlier one
and the package runs on one worker.  Repetitions of a workload continue
until --seconds have passed; times are medians over repetitions.

--trace 0 prints the end-to-end metrics: set-up time, the workload's wall
time in gauge units, and peak resident memory.  On a shared 2-vCPU virtual
machine the speed drifted by a third within minutes, so raw wall times
spread too far between runs to compare commits.  A speed gauge (child.py)
times a fixed small kernel every 0.2 s during each invocation;
``wall_norm`` is the sum over the workload's invocations of wall time
divided by the mean gauge time, which cancels most of the drift.  The raw
wall times are printed too (``invocation`` and ``info wall_s`` lines).

--trace 1 runs one untraced and one traced repetition and prints the
per-layer metrics of the traced one (tracer.py), with the tracing overhead.
Either way every output is checked (checks.py), and the last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A run also writes .perfbench_out/results/<workload>.json, and a traced run
its spans to .perfbench_out/traces/<workload>/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

#: a run must end within 180 s; no repetition starts that would likely
#: cross this.
DEADLINE_S = 165.0
#: set-up samples per run: each child gives one, extra set-up-only
#: children make up the rest.
MIN_SETUP_SAMPLES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_norm", "gauge"),
    ("peak_rss_mb", "MB"),
)

#: spans reported by calls and self time.
SPAN_METRICS = (
    "expm.expm", "expm.build_cache", "expm.ExpCache.apply",
    "integrators.ifrk_step", "integrators.ifrk_step_general",
    "integrators.rk_step", "integrators.make_plan",
    "spatial.weno5_burgers_rhs", "spatial.make_problem", "spatial.N",
    "analysis.observed_tvd_lambda", "analysis.lambda_sweep",
    "analysis.total_variation",
    "ssp_radius.ssp_radius", "ssp_radius.is_absolutely_monotonic",
    "ssp_radius.observed_l2_cfl",
    "optimizer.least_squares", "tableau.order_residuals",
)
#: spans reported by self time only.
SELF_ONLY = ("optimizer.verify_certificate", "cli.van_der_pol_reference",
             "cli.write_csv")
#: counters reported as they are.
COUNTERS = ("kernel.fft.calls", "kernel.dense_matvec.calls",
            "integrators.stages", "analysis.max_tv_rise.nonfinite",
            "optimizer.nfev")

#: (layer metric, workloads on which it must read 0 at this commit)
ZERO_CALL_PREDICTIONS = (
    ("expm.expm.calls", ("linear-advection", "burgers-sweep", "optimizer")),
    ("spatial.weno5_burgers_rhs.calls", ("linear-advection", "optimizer")),
    ("optimizer.least_squares.calls",
     ("linear-advection", "burgers-sweep", "van-der-pol")),
)


def per_layer_names():
    """(name, unit) of every per-layer metric, in print order."""
    names = []
    for span in SPAN_METRICS:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    names += [(f"{span}.self_s", "s") for span in SELF_ONLY]
    names += [(c, "count") for c in COUNTERS]
    names += [
        ("analysis.max_tv_rise.calls", "count"),
        ("expm.fft_path_frac", "ratio"),
        ("kernel.dense_matvec.gbytes_computed", "GB"),
        ("optimizer.feasible_frac", "ratio"),
    ]
    names += [(f"optimizer.c_frac.{s}-{p}", "ratio")
              for s, p in sorted(workloads.OPTIMIZER_CASES)]
    names += [
        ("methods.registry_s", "s"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
    return names


class ChildFailed(Exception):
    pass


class Runner:
    """Runs invocations in fresh interpreters under one run directory."""

    def __init__(self, workload, seed, smoke, deadline):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.deadline = deadline
        OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        self.env = {k: v for k, v in os.environ.items() if k != "SSPINT_THREADS"}
        self.count = 0
        self.environment = None

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def child(self, inv, trace=False, trace_dir=None):
        self.count += 1
        tag = f"{self.count:03d}"
        outdir = self.dir / tag
        outdir.mkdir()
        spec = {
            "invocation": inv,
            "outdir": str(outdir),
            "trace": trace,
            "run_id": f"{self.workload}/seed{self.seed}/{tag}",
            "trace_file": str(trace_dir / f"{tag}-{inv['name']}.jsonl.gz")
            if trace else None,
            "result": str(self.dir / f"{tag}.json"),
            "env": self.environment is None,
        }
        spec_path = self.dir / f"{tag}-spec.json"
        spec_path.write_text(json.dumps(spec))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("out of time before " + inv["name"])
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{inv['name']} did not finish in time")
        if proc.returncode != 0:
            raise ChildFailed(f"{inv['name']} crashed:\n{proc.stderr[-4000:]}")
        result = json.loads(Path(spec["result"]).read_text())
        if "env" in result:
            self.environment = result["env"]
        shutil.rmtree(outdir, ignore_errors=True)
        return result

    def repetition(self, trace=False, trace_dir=None, fixed_seeds=True):
        invs = workloads.invocations(self.workload, self.seed, self.smoke,
                                     fixed_seeds)
        return [(inv, self.child(inv, trace, trace_dir)) for inv in invs]


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _check(report, reps, reference):
    """Output checks of every successful invocation; an invocation that
    exits non-zero is a failed operation and its outputs are not judged."""
    attempted = failed = 0
    for rep in reps:
        for inv, result in rep:
            attempted += 1
            if result["rc"] != 0:
                failed += 1
                report.add(f"{inv['name']}@{inv.get('seed', '')}:exit", False,
                           f"exit status {result['rc']}")
                continue
            checks.check_invocation(report, inv, result, reference)
    return attempted, failed


def _src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def _sum_traces(rep):
    calls, self_s, counts = {}, {}, {}
    spans, bad, min_self = 0, 0, None
    for _, result in rep:
        tr = result["trace"]
        for src, dst in ((tr["calls"], calls), (tr["self_s"], self_s),
                         (tr["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        spans += tr["spans"]
        bad += tr["bad_parents"]
        m = tr["min_self_ns"]
        min_self = m if min_self is None else min(min_self, m)
    return {"calls": calls, "self_s": self_s, "counts": counts,
            "spans": spans, "bad_parents": bad, "min_self_ns": min_self or 0}


def layer_metrics(rep, overhead_s):
    """Per-layer metrics of one traced repetition."""
    agg = _sum_traces(rep)
    calls, self_s, counts = agg["calls"], agg["self_s"], agg["counts"]
    m = {}
    for span in SPAN_METRICS:
        m[f"{span}.calls"] = calls.get(span, 0)
        m[f"{span}.self_s"] = self_s.get(span, 0.0)
    for span in SELF_ONLY:
        m[f"{span}.self_s"] = self_s.get(span, 0.0)
    for c in COUNTERS:
        m[c] = counts.get(c, 0)
    m["analysis.max_tv_rise.calls"] = calls.get("analysis.max_tv_rise", 0)
    builds = calls.get("expm.build_cache", 0)
    m["expm.fft_path_frac"] = (counts.get("expm.build_cache.fft_path", 0) / builds
                               if builds else 0.0)
    m["kernel.dense_matvec.gbytes_computed"] = (
        counts.get("kernel.dense_matvec.bytes", 0) / 1e9)
    starts = counts.get("optimizer.starts", 0)
    m["optimizer.feasible_frac"] = (counts.get("optimizer.feasible_starts", 0)
                                    / starts if starts else 0.0)
    fracs = c_fracs(rep)
    for s, p in sorted(workloads.OPTIMIZER_CASES):
        m[f"optimizer.c_frac.{s}-{p}"] = fracs.get(f"{s}-{p}", 0.0)
    m["methods.registry_s"] = _median([r["registry_s"] for _, r in rep])
    m["trace.spans"] = agg["spans"]
    m["trace.overhead_s"] = overhead_s
    return m, agg


def c_fracs(rep):
    """Per optimizer case that ran, the worst certified C over the
    repetition's seeds divided by the known optimum."""
    out = {}
    for (s, p), (optimum, _) in sorted(workloads.OPTIMIZER_CASES.items()):
        cs = [r["certificate"]["C"] for inv, r in rep
              if inv["name"] == f"optimize.{s}-{p}" and "certificate" in r]
        if cs:
            out[f"{s}-{p}"] = min(cs) / optimum
    return out


def _outputs_equal(a, b):
    return [r["outputs"] for _, r in a] == [r["outputs"] for _, r in b]


def _rep_wall(rep):
    return sum(r["wall_s"] for _, r in rep)


def _norm(result):
    """An invocation's wall time in units of the speed gauge's kernel."""
    return result["wall_s"] / result["gauge_s"]


def _rep_norm(rep):
    return sum(_norm(r) for _, r in rep)


def measure(runner, seconds, trace, trace_dir):
    """Untraced repetitions until `seconds` have passed, or with --trace 1
    one untraced and one traced repetition, both without the optimizer's
    fixed-seed searches so that the pair stays well inside the time a run
    may take."""
    if trace:
        return ([runner.repetition(fixed_seeds=False)],
                [runner.repetition(trace=True, trace_dir=trace_dir,
                                   fixed_seeds=False)])
    reps, start = [], time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(runner.repetition())
        now = time.monotonic()
        if now - start >= seconds or now + (now - t0) > runner.deadline:
            return reps, []


def run(args):
    started = time.monotonic()
    reference = json.loads(REFERENCE.read_text())["smoke" if args.smoke else "full"]
    runner = Runner(args.workload, args.seed, args.smoke,
                    started + DEADLINE_S)
    trace_dir = OUT / "traces" / args.workload
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    try:
        reps, traced = measure(runner, args.seconds, args.trace, trace_dir)
        setups = [r["setup_s"] for rep in reps for _, r in rep]
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(runner.child({"name": "setup", "key": "setup",
                                        "kind": "setup"})["setup_s"])
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    report = checks.Report()
    attempted, failed = _check(report, reps + traced, reference)
    per_inv = {}
    for rep in reps:
        for inv, r in rep:
            per_inv.setdefault(inv["name"], []).append((r["wall_s"], _norm(r)))

    env = dict(runner.environment or {})
    env["src_lines"] = _src_lines()
    print("env " + json.dumps(env, sort_keys=True))
    for name, samples in per_inv.items():
        print(f"invocation {name}_s {_median([w for w, _ in samples]):.4f} s, "
              f"{_median([n for _, n in samples]):.1f} gauge "
              f"(median of {len(samples)})")

    if args.trace:
        overhead = _rep_wall(traced[0]) - _rep_wall(reps[0])
        values, agg = layer_metrics(traced[0], overhead)
        values["trace.overhead_frac"] = _rep_norm(traced[0]) / _rep_norm(reps[0]) - 1
        units = dict(per_layer_names())
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        report.add("trace:outputs_equal_untraced",
                   _outputs_equal(reps[0], traced[0]),
                   "traced outputs differ from untraced outputs")
        report.add("trace:spans_nest",
                   agg["bad_parents"] == 0 and agg["min_self_ns"] >= 0,
                   f"{agg['bad_parents']} spans with unknown parents, "
                   f"least self time {agg['min_self_ns']} ns")
        print(f"trace overhead {overhead:.4f} s: traced "
              f"{_rep_wall(traced[0]):.4f} s, untraced {_rep_wall(reps[0]):.4f} s; "
              f"{values['trace.overhead_frac']:.4f} of the gauge-normalized time")
        print("note: wait time is not applicable; every layer runs on one "
              "thread (SSPINT_THREADS unset, one worker)")
        for name, zero_on in ZERO_CALL_PREDICTIONS:
            if args.workload in zero_on:
                print(f"prediction {name} = 0 on {args.workload}: "
                      f"{'holds' if values[name] == 0 else 'FAILS'}")
    else:
        print(f"info wall_s {_median([_rep_wall(rep) for rep in reps])} s")
        values = {
            "setup_s": _median(setups),
            "wall_norm": _median([_rep_norm(rep) for rep in reps]),
            "peak_rss_mb": max(r["peak_rss_mb"] for rep in reps for _, r in rep),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        if args.workload == "optimizer":
            worst = min(min(c_fracs(rep).values()) for rep in reps)
            # opt_c_frac: min over cases and seeds of C / known optimum
            print(f"info opt_c_frac {worst:.6f} ratio")

    n_checks, n_bad = len(report.checks), len(report.failures)
    print(f"checks {n_checks} attempted, {n_bad} failed, "
          f"failed_frac {n_bad / max(n_checks, 1):.6f} ratio")
    for label, _, detail in report.failures:
        print(f"check failed {label}: {detail}")
        print(f"check failed {label}: {detail}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "env": env, "invocations": per_inv,
        "setup_samples": setups, "metrics": metrics,
        "check_failures": report.failures, "checks": n_checks,
    }, indent=1))
    # a failed invocation reported its own failure; a failed check on an
    # invocation that succeeded is a wrong output
    wrong = [c for c in report.failures if not c[0].endswith(":exit")]
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def record(args):
    """Run the default seed of every workload, full and smoke, and write
    the outputs as the new reference."""
    reference = {}
    for smoke in (False, True):
        section = reference.setdefault("smoke" if smoke else "full", {})
        for name in workloads.WHY:
            runner = Runner(name, workloads.DEFAULT_SEED, smoke,
                            time.monotonic() + 600.0)
            try:
                for inv, result in runner.repetition():
                    if result["rc"] != 0:
                        print(f"error: {inv['key']} exited {result['rc']}",
                              file=sys.stderr)
                        return 1
                    section[inv["key"]] = result["outputs"]
            finally:
                runner.close()
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced sizes, for the benchmark's own tests")
    p.add_argument("--record", action="store_true",
                   help="re-record reference.json at this commit")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "sspint" / "__init__.py").is_file():
        print(f"error: no sspint package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        return record(args)
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
