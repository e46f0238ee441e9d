"""The benchmark must count wrong reports and overlong operations as failed.

Each checker case runs one operation through weylcurve's CLI path, confirms
the untouched report passes, then corrupts one thing and confirms it fails.
Run with ``python -m pytest bench/test_oracle.py`` from the repository root.
"""

from __future__ import annotations

import json
import os
import signal
import sys

import pytest

pytest.importorskip("sympy")

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from weylcurve import cli  # noqa: E402


def _run(op):
    args = cli.build_arg_parser().parse_args(op["argv"])
    code, report = cli.run_job(cli.job_from_args(args))
    return code, report


def _op(workload, command, **match):
    """The first operation of a workload's round with this command and spec entries."""
    for op in workloads.make_ops(workload, 0):
        if op["argv"][0] == command and all(op["spec"].get(k) == v for k, v in match.items()):
            return op
    raise LookupError(f"no {command} {match} in {workload}")


def _fails(op, code, report):
    return oracle.check(op, code, json.dumps(report))


def test_changed_curve_coefficient_fails():
    op = _op("squarefree", "curve", family="thm1", g=2)
    code, report = _run(op)
    assert _fails(op, code, report) == []
    coeffs = report["result"]["curve"]["z_coeffs_desc"]
    coeffs[2] = coeffs[2].replace("40896", "40897")
    assert _fails(op, code, report)


def test_factor_list_whose_product_is_not_f_fails():
    op = _op("squarefree", "curve", family="thm2", g=2)
    code, report = _run(op)
    assert report["result"]["repeated_factors"] == [{"factor": "z", "multiplicity": 2}]
    assert _fails(op, code, report) == []
    report["result"]["repeated_factors"][0]["factor"] = "z + 1"
    assert _fails(op, code, report)
    report["result"]["repeated_factors"] = []  # hides the repeated root z
    assert _fails(op, code, report)


def test_wrong_verdict_and_solve_fail():
    op = _op("decide", "verdict", family="thm1", g=2)
    code, report = _run(op)
    assert _fails(op, code, report) == []
    row = report["result"]["rows"][0]
    row["assignment"]["C1"] = row["assignment"]["C1"] + " + 1"
    assert _fails(op, code, report)
    assert _fails(op, 1, _run(op)[1])


def test_wrong_singularity_witness_fails():
    op = _op("numeric", "singular", family="thm2", g=2, m=2)
    code, report = _run(op)
    assert report["result"]["singular"] is True
    assert _fails(op, code, report) == []
    report["result"]["repeated_root_poly"] = "z^2"
    assert _fails(op, code, report)
    report["result"]["singular"] = False
    assert _fails(op, code, report)


def test_wrong_commutator_fails():
    op = next(op for op in workloads.make_ops("operators", 0) if op["expect"] == 1)
    code, report = _run(op)
    assert _fails(op, code, report) == []
    report["result"]["commutator"] = report["result"]["commutator"].replace("D", "D^2", 1)
    assert _fails(op, code, report)


def test_operation_over_the_time_limit_fails_and_the_next_one_runs(monkeypatch):
    op = _op("squarefree", "curve", family="thm1", g=1)
    parser = cli.build_arg_parser()
    real_run_job = cli.run_job

    def hang(job):
        while True:
            pass

    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        monkeypatch.setattr(cli, "run_job", hang)
        assert worker.run_op(parser, op, 0.5)[2].startswith("exceeded the")
        monkeypatch.setattr(cli, "run_job", real_run_job)
        code, payload, why = worker.run_op(parser, op, 30.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert (code, why) == (0, None) and oracle.check(op, code, payload.decode()) == []
