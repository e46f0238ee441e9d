"""Run one weylcurve benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh interpreter
(bench/worker.py) that imports weylcurve from src/; this process only
launches it, samples set-up time, and checks every distinct report with the
sympy checker in bench/oracle.py, so sympy counts towards neither set-up
time nor peak memory.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 gives the
end-to-end metrics; --trace 1 wraps the modules from outside and gives the
per-layer metrics instead.  Results and traces are also written to
bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Set-up is sampled by this many probe processes before the measured worker
# and as many after it, plus the worker itself, and reported as the median.
# Probes on both sides spread the samples over the run, so one slow moment
# of a shared machine does not set the figure.
SETUP_PROBES_EACH_SIDE = 3
# The worker stops starting operations 140 s after launch; this is the hard
# stop for a worker that stalls anyway.
WORKER_TIMEOUT_S = 160.0


def _launch(workload, seed, seconds, trace, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + ["--launched", repr(launched)], cwd=ROOT, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def median_hd(values):
    """Harrell-Davis estimate of the median of many operation times.

    A weighted mean of the order statistics whose weights are the Beta((n+1)/2,
    (n+1)/2) probabilities of each slot, taken in their normal approximation.
    The middle order statistic alone jumps between operation kinds of quite
    different cost when the host's speed shifts the ranking; this does not.
    """
    xs = sorted(values)
    n = len(xs)
    scale = math.sqrt(2) / (2 * math.sqrt(n + 2))
    cdf = [math.erf((i / n - 0.5) / scale) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)) / (cdf[n] - cdf[0])


def per_layer(trace, rounds):
    """Per-round per-layer metrics from a worker's trace summary."""
    spans, counts = trace["spans"], trace["counts"]
    out = {}

    def span(name, metric, calls=False):
        row = spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{metric}_s"] = (row["total_s"] / rounds, "s")
        out[f"{metric}.self_s"] = (row["self_s"] / rounds, "s")
        if calls:
            out[f"{metric}.calls"] = (row["calls"] / rounds, "count")

    span("scalars.gcd", "scalars.gcd", calls=True)
    out["scalars.scalar_mul.calls"] = (counts["scalars.scalar_mul"] / rounds, "count")
    out["scalars.poly_mul.calls"] = (counts["scalars.poly_mul"] / rounds, "count")
    span("weyl.xpoly_mul", "weyl.xpoly_mul", calls=True)
    span("weyl.diffop_mul", "weyl.diffop_mul", calls=True)
    span("weyl.commutator", "weyl.commutator")
    span("parsing.parse", "parsing.parse", calls=True)
    span("families.build", "families.build")
    span("chain.build_qchain", "chain.build_qchain", calls=True)
    span("chain.extract", "chain.extract")
    span("chain.solve", "chain.solve")
    span("chain.assemble", "chain.assemble")
    out["chain.rungs"] = (counts["chain.rungs"] / rounds, "count")
    out["chain.equations"] = (counts.get("chain.equations", 0) / rounds, "count")
    span("curve.spectral", "curve.spectral")
    span("curve.structure", "curve.structure", calls=True)
    span("curve.singular", "curve.singular")
    out["curve.max_coeff_bits"] = (trace["max_coeff_bits"], "bits")
    span("cli.run_job", "cli.run_job", calls=True)
    span("cli.render", "cli.render")
    return out


def expected_qchain_calls(reports):
    """One build_qchain per verdict row, scan row, curve, singular and chain op."""
    total = 0
    for seen in reports:
        if not seen:
            continue
        report = json.loads(seen[0][0])
        command = report["command"]
        if command in ("verdict", "scan"):
            total += len(report["result"].get("rows") or [])
        elif command in ("curve", "singular", "chain"):
            total += 1
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one weylcurve benchmark workload.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "weylcurve", "cli.py")):
        print("error: no src/weylcurve here; run from the root of a weylcurve checkout",
              file=sys.stderr)
        return 2

    def probes():
        return [_launch(args.workload, args.seed, args.seconds, args.trace, True)["setup_s"]
                for _ in range(SETUP_PROBES_EACH_SIDE)]

    try:
        setups = probes()
        result = _launch(args.workload, args.seed, args.seconds, args.trace)
        setups += [result["setup_s"]] + probes()
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1

    check_start = time.perf_counter()
    import oracle  # sympy is imported only after every workload process has ended

    ops = workloads.make_ops(args.workload, args.seed)
    failures = result["failures"]
    failed_ops = {f["op"] for f in failures}
    problems = []
    for index, (op, seen) in enumerate(zip(ops, result["reports"])):
        for text, attempts in seen:
            found = oracle.check(op, result["codes"][index], text)
            problems += [f"op {index} {' '.join(op['argv'])}: {p}" for p in found]
            if found and index not in failed_ops:
                failures += [{"op": index, "why": "report failed the check"}] * attempts
        if not seen and index not in failed_ops:
            problems.append(f"op {index}: no report")
    check_s = time.perf_counter() - check_start
    rounds = len(result["rounds"])
    trace = result["trace"]
    if trace is not None and not failures:
        calls = trace["spans"].get("chain.build_qchain", {}).get("calls", 0)
        want = expected_qchain_calls(result["reports"]) * rounds
        if calls != want:
            problems.append(f"trace saw {calls} build_qchain calls, reports imply {want}")
        runs = trace["spans"].get("cli.run_job", {}).get("calls", 0)
        if runs != result["attempted"]:
            problems.append(f"trace saw {runs} run_job calls for {result['attempted']} operations")

    if trace is None:
        metrics = {
            "wall_s": (statistics.median(result["rounds"]), "s"),
            "op_s.p50": (median_hd(result["op_times"]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_kb"] * 1024 / 1e6, "MB"),
        }
    else:
        metrics = per_layer(trace, rounds)
        metrics["trace.wall_s"] = (statistics.median(result["rounds"]), "s")

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    for f in failures[:20]:
        print(f"operation failed: op {f['op']} {' '.join(ops[f['op']]['argv'])}: {f['why']}",
              file=sys.stderr)
    summary = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "rounds": result["rounds"], "setups": setups,
                   "check_s": check_s, "op_times": result["op_times"], "failures": failures,
                   "problems": problems, "trace": trace}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
