"""The workload process: a fresh interpreter that runs one workload's rounds.

Started by run.py, never by hand.  It imports weylcurve from ``src/`` of the
checkout, generates the operations from the seed, and runs whole rounds back
to back in one thread (a closed loop with one client) until ``--seconds``
have passed.  Each operation goes along the CLI path in-process:
``parse_args`` -> ``cli.job_from_args`` -> ``cli.run_job`` ->
``cli.render_report``.  It prints one JSON object with timings, exit codes,
failures and every distinct report; checking them is run.py's job, so the
checker's imports never land in this process.

With ``--setup-only`` it stops right before the first operation; run.py
uses that to sample set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from weylcurve import cli  # noqa: E402

import workloads  # noqa: E402

# An operation slower than this counts as failed; the slowest one today
# (curve thm1 g=3) takes about 11 s untraced.
OP_LIMIT_S = 60.0
# Past this many seconds after launch the remaining operations of a round are
# not started and count as failed, so that a run that hangs still reports.
RUN_BUDGET_S = 140.0


class OpTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so no handler in the engine eats it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(parser, op, limit):
    """(exit code or None, report bytes or None, failure text or None)."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        stdin = io.StringIO(op["stdin"]) if op["stdin"] is not None else sys.stdin
        with contextlib.redirect_stderr(io.StringIO()):
            args = parser.parse_args(op["argv"])
        saved, sys.stdin = sys.stdin, stdin
        try:
            job = cli.job_from_args(args)
        finally:
            sys.stdin = saved
        code, report = cli.run_job(job)
        payload = cli.render_report(report)
    except OpTimeout:
        return None, None, f"exceeded the {limit:.0f} s limit"
    except cli.CliInputError as exc:
        return 2, None, f"exit 2: {exc}"
    except SystemExit:
        return 2, None, "exit 2: argument parsing failed"
    except Exception as exc:  # an operation that raises is a failed operation
        return None, None, f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if code != op["expect"]:
        return code, payload, f"exit code {code}, expected {op['expect']}"
    return code, payload, None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken by the parent just before launch")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ops = workloads.make_ops(args.workload, args.seed)
    parser = cli.build_arg_parser()
    setup_end = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_end - args.launched}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)

    rounds, op_times, failures = [], [], []
    codes = [None] * len(ops)
    reports = [{} for _ in ops]  # per operation: sha256 -> [report text, attempts]
    attempted = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        round_start = time.perf_counter()
        for index, op in enumerate(ops):
            attempted += 1
            remaining = args.launched + RUN_BUDGET_S - time.clock_gettime(time.CLOCK_MONOTONIC)
            if remaining <= 1.0:
                failures.append({"op": index, "why": "run budget spent before it started"})
                continue
            t = time.perf_counter()
            code, payload, why = run_op(parser, op, min(OP_LIMIT_S, remaining))
            op_times.append(time.perf_counter() - t)
            if why is not None:
                failures.append({"op": index, "why": why})
            codes[index] = code
            if payload is not None:
                seen = reports[index].setdefault(hashlib.sha256(payload).hexdigest(),
                                                 [payload.decode("utf-8"), 0])
                seen[1] += 1
        rounds.append(time.perf_counter() - round_start)

    out = {
        "setup_s": setup_end - args.launched,
        "rounds": rounds,
        "op_times": op_times,
        "attempted": attempted,
        "failures": failures,
        "codes": codes,
        "reports": [list(r.values()) for r in reports],  # [[text, attempts], ...] per op
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer else None,
    }
    sys.stdout.write(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
