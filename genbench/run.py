#!/usr/bin/env python3
"""Benchmark of genbound, run from the repository root:

    python3 genbench/run.py --workload census --seed 1 --seconds 30 --trace 0

One single-threaded process drives the library through its public
functions, one case after another (a closed loop with one caller). The
last line of standard output is one JSON object with "correct",
"attempted", "failed" and "metrics": the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. See
genbench/README.md for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("census", "classgroup", "paper-claims")
SETUP_PROBES = 5

# measure the package as shipped: default sieve limit, no prime cache file
for _var in ("GENBOUND_SIEVE_LIMIT", "GENBOUND_PRIME_CACHE"):
    os.environ.pop(_var, None)

SETUP_CODE = """
import time
t0 = time.perf_counter()
import genbound.criteria_engine, genbound.number_field, genbound.quadratic_classgroup
from genbound import rational_sieve
rational_sieve.default_table()
print(time.perf_counter() - t0)
"""


def setup_probe() -> float:
    """One fresh interpreter: seconds to import genbound and build the shared sieve."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def read_fixtures() -> dict:
    """Cubic fixtures from the package's data file: coefficients -> |disc|."""
    out = {}
    for line in (SRC / "genbound" / "data" / "cubic_fields.txt").read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            coeffs, disc = line.split()
            out[tuple(int(t) for t in coeffs.split(","))] = int(disc)
    return out


def run_rounds(rounds, run_case, reset, tracer=None):
    """Run rounds back to back; returns (results per round, case seconds, failures, wall seconds).

    `reset()` runs before each case, outside its timer and the wall time.
    """
    results, times, failures = [], [], []
    wall = 0.0
    for rnd in rounds:
        done = []
        for kind, arg in rnd:
            reset()
            t = time.perf_counter()
            try:
                with tracer.span("case") if tracer else contextlib.nullcontext():
                    done.append(run_case(kind, arg))
            except Exception as exc:  # a failed case is counted and the run goes on
                failures.append(f"{kind} {arg}: {exc!r}")
            times.append(time.perf_counter() - t)
            wall += times[-1]
        results.append(done)
    return results, times, failures, wall


def timed_rounds(inputs, seconds, run_case, reset, check, between_rounds):
    """Whole rounds until the case loop has run for `seconds`.

    Input generation, `check(results)` and `between_rounds(wall)` run
    outside the timed loop. Each round is checked as it ends and only its
    bound ratios are kept, so memory does not grow with the number of
    rounds a run completes. Returns (rounds, ratios per round, case seconds,
    failures, check failures, wall seconds).
    """
    rounds, ratios, times, failures, bad, wall = [], [], [], [], [], 0.0
    while wall < seconds:
        between_rounds(wall)
        rnd = inputs.next_round()
        rounds.append(rnd)
        r, t, f, w = run_rounds([rnd], run_case, reset)
        bad += check(r[0])
        ratios.append([x for res in r[0] for x in res.ratios])
        times += t
        failures += f
        wall += w
    between_rounds(wall)
    return rounds, ratios, times, failures, bad, wall


def end_to_end(setup_s, ratios, times, wall, rss_mb) -> dict:
    ms = [1e3 * t for t in times]
    # paper-claims draws new shapes every round, so its largest ratio of a
    # whole run is an extreme value; the mean of the per-round largest is not
    round_max = [max(xs) for xs in ratios if xs]
    ratios = [x for xs in ratios for x in xs]
    return {
        "setup_s": (setup_s, "s"),
        "cases_per_s": (len(times) / wall, "1/s"),
        "case_ms_p50": (statistics.median(ms), "ms"),
        "case_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "bound_ratio_mean": (statistics.fmean(ratios), "ratio"),
        "bound_ratio_max": (statistics.fmean(round_max), "ratio"),
    }


def per_layer(tr, n_cases, results, build_s, n_primes, untraced_wall, traced_wall) -> dict:
    def per_case(name):
        return tr.calls(name) / n_cases

    def us_per_call(*names, self_time=False):
        calls = sum(tr.calls(n) for n in names)
        secs = sum(tr.self_s(n) if self_time else tr.total_s(n) for n in names)
        return 1e6 * secs / calls if calls else 0.0

    def ms_per_call(name):
        return us_per_call(name) / 1e3

    # the case's own class_group call; the generation check asks for the
    # cached group again once per prime, which is not the group's cost
    names = {sid: name for sid, _, name, _, _ in tr.spans}
    own_cg = [
        end - start
        for _, parent, name, start, end in tr.spans
        if name == "quadratic_classgroup.class_group" and names.get(parent) == "case"
    ]
    # `results` are the replay's: the untraced pass keeps only its ratios
    hs = [r.out[2].h for rnd in results for r in rnd if r.kind == "field"]
    ab = ("analytic_kernel.alpha", "analytic_kernel.beta")
    return {
        "rational_sieve.build_s": (build_s, "s"),
        "rational_sieve.primes": (n_primes, "count"),
        "number_field.construct_ms": (ms_per_call("number_field.construct"), "ms"),
        "number_field.split_prime.calls": (per_case("number_field.split_prime"), "calls/case"),
        "number_field.split_prime.us": (us_per_call("number_field.split_prime"), "us"),
        "number_field.window_sum.calls": (per_case("number_field.window_sum"), "calls/case"),
        "number_field.window_sum.us": (us_per_call("number_field.window_sum"), "us"),
        "number_field.short_sum.calls": (per_case("number_field.short_sum"), "calls/case"),
        "number_field.short_sum.us": (us_per_call("number_field.short_sum"), "us"),
        "criteria_engine.eval_exact.calls": (per_case("criteria_engine.eval_exact"), "calls/case"),
        "criteria_engine.eval_exact.self_us": (
            us_per_call("criteria_engine.eval_exact", self_time=True), "us"),
        "criteria_engine.minimal_T_exact.ms": (ms_per_call("criteria_engine.minimal_T_exact"), "ms"),
        "criteria_engine.eval_generic.calls": (per_case("criteria_engine.eval_generic"), "calls/case"),
        "criteria_engine.eval_generic.us": (us_per_call("criteria_engine.eval_generic"), "us"),
        "criteria_engine.minimal_T_generic.ms": (ms_per_call("criteria_engine.minimal_T_generic"), "ms"),
        "criteria_engine.threshold.ms": (ms_per_call("criteria_engine.threshold"), "ms"),
        "analytic_kernel.alpha_beta.calls": (sum(tr.calls(n) for n in ab) / n_cases, "calls/case"),
        "analytic_kernel.alpha_beta.us": (us_per_call(*ab), "us"),
        "quadratic_classgroup.class_group.ms": (1e3 * statistics.fmean(own_cg) if own_cg else 0.0, "ms"),
        "quadratic_classgroup.compose.calls": (per_case("quadratic_classgroup.compose"), "calls/case"),
        "quadratic_classgroup.compose.us": (us_per_call("quadratic_classgroup.compose"), "us"),
        "quadratic_classgroup.generation_check.ms": (
            ms_per_call("quadratic_classgroup.generation_check"), "ms"),
        "quadratic_classgroup.h": (statistics.fmean(hs) if hs else 0.0, "count"),
        "trace.overhead_pct": (100.0 * (traced_wall - untraced_wall) / untraced_wall, "%"),
        "untraced.cases_per_s": (n_cases / untraced_wall, "1/s"),
        "traced.cases_per_s": (n_cases / traced_wall, "1/s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from genbound import criteria_engine as ce
    from genbound import number_field as nf
    from genbound import quadratic_classgroup as qc
    from genbound import rational_sieve as rs

    import checks
    import tracing
    from workloads import Inputs, run_case

    fixtures = read_fixtures()
    t = time.perf_counter()
    table = rs.default_table()
    build_s = time.perf_counter() - t

    def case(kind, arg):
        return run_case(kind, arg, ce, nf, qc)

    # every field case builds its class group afresh: repeated d cost the
    # same as new ones, and the cache does not grow with the run's length
    reset = qc.class_group.cache_clear

    # a traced run spends half its time untraced and replays the same rounds traced
    seconds = args.seconds / 2 if args.trace else args.seconds
    # set-up time is sampled in fresh interpreters spread over the run, so
    # that slow drifts in machine speed reach the median of several samples
    setup_samples = []

    def probe_setup(wall):
        while not args.trace and len(setup_samples) < SETUP_PROBES and (
                wall >= seconds * len(setup_samples) / (SETUP_PROBES - 1)):
            setup_samples.append(setup_probe())

    inputs = Inputs(args.workload, args.seed, fixtures)
    def check(results):
        return checks.check_results(args.workload, results, fixtures)

    rounds, ratios, times, failures, bad, wall = timed_rounds(
        inputs, seconds, case, reset, check, probe_setup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(times)

    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, ce, nf, qc)
        try:
            results, _, traced_failures, traced_wall = run_rounds(rounds, case, reset, tracer)
        finally:
            tracer.unpatch()
        # the replay's cases count as attempted too; one that fails would
        # leave the per-case layer figures short, so the run is not correct
        attempted += len(times)
        failures += [f"traced replay: {msg}" for msg in traced_failures]
        if traced_failures:
            bad.append(f"traced replay: {len(traced_failures)} cases failed")
        metrics = per_layer(tracer, len(times), results, build_s, len(table.primes), wall, traced_wall)
    else:
        metrics = end_to_end(statistics.median(setup_samples), ratios, times, wall, rss_mb)

    for msg in failures + bad:
        print(msg, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:13s} {name:42s} {value:14.6g} {unit}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "metrics": {k: v for k, (v, _) in metrics.items()}})
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
