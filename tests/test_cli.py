"""Command-line interface: reports, golden comparisons, exit codes."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from weylcurve import FamilySpec, SpectralCurve, build_family, curve_is_singular, solve_pair
from weylcurve.cli import (
    build_arg_parser,
    curve_from_report,
    job_from_args,
    main,
    render_report,
    run_job,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(argv, capsys, stdin: str | None = None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_curve_report_content(capsys):
    code, out, _ = run_cli(["curve", "--family", "thm1", "--g", "1", "--m", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "curve"
    curve = report["result"]["curve"]
    assert curve["degree"] == 3
    assert curve["genus_bound"] == 1
    assert curve["z_coeffs_desc"] == ["1", "32*A2", "256*A2^2 + 192*A6", "3072*A6*A2"]
    assert report["result"]["solve"]["assignment"] == {"C1": "16*A2"}
    assert report["result"]["solve"]["side_conditions"] == ["A6"]
    assert "0." not in out and "e-" not in out  # no floating point anywhere


def test_report_is_deterministic(capsys):
    argv = ["verdict", "--family", "thm3", "--n", "5", "--b-mult", "1", "--g-bound", "3"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_curve_report_round_trip(capsys):
    _, out, _ = run_cli(["curve", "--family", "thm1", "--g", "1", "--m", "1"], capsys)
    report = json.loads(out)
    ring, curve = curve_from_report(report)
    assert isinstance(curve, SpectralCurve)
    assert curve.degree == 3
    assert ring.names == ("A2", "A6")
    assert not curve_is_singular(curve, {"A6": 1, "A2": 1}).singular


_X4_DOC = {"params": ["A"], "V": "A*x^4", "W": "8*A*x^2"}

# (argv, stdin document or None, golden file, exit code)
GOLDEN_CASES = [
    (["curve", "--family", "thm1", "--g", "1", "--m", "1"], None,
     "curve_thm1_g1_m1.json", 0),
    (["verdict", "--family", "thm3", "--n", "7", "--b-mult", "2", "--g-bound", "2"], None,
     "verdict_thm3_n7.json", 0),
    (["singular", "--family", "thm2", "--g", "2", "--m", "2",
      "--bind", "A4=1", "--bind", "A2=0", "--bind", "A0=0"], None,
     "singular_thm2_g2.json", 0),
    (["chain", "--family", "thm1", "--g", "2"], None, "chain_thm1_g2.json", 0),
    (["chain"], {**_X4_DOC, "m": 2}, "chain_doc_x4_m2.json", 0),
    (["curve"], {**_X4_DOC, "m": 1}, "curve_doc_x4_m1.json", 0),
    (["verdict", "--g-bound", "3"], _X4_DOC, "verdict_doc_x4.json", 0),
    (["verdict", "--family", "thm2", "--g", "2"], None, "verdict_thm2_g2.json", 0),
    (["scan", "--family", "thm1", "--bind", "A6=1", "--bind", "A2=1",
      "--g-range", "1:2", "--m-range", "1:3"], None, "scan_thm1_bound.json", 0),
    (["scan", "--family", "thm3", "--n", "5", "--b-mult", "1", "--m-range", "1:2"], None,
     "scan_thm3_n5.json", 0),
    (["singular", "--params", "A", "--V", "A*x^4", "--W", "8*A*x^2", "--m", "1",
      "--bind", "A=1"], None, "singular_inline_x4_m1.json", 0),
    (["commutator", "--family", "dixmier_rank3"], None, "commutator_dixmier_rank3.json", 0),
    (["commutator", "--L", "D^2 + x^2", "--M", "(D + x)^3"], None,
     "commutator_explicit.json", 1),
    (["oracle-check", "--family", "thm1", "--g", "2", "--k-range", "0:3"], None,
     "oracle_thm1_g2.json", 0),
]


def test_golden_files_match(capsys):
    for argv, doc, name, want_code in GOLDEN_CASES:
        path = os.path.join(GOLDEN, name)
        stdin = json.dumps(doc) if doc is not None else None
        code, out, _ = run_cli(argv, capsys, stdin=stdin)
        assert code == want_code, name
        with open(path, "r", encoding="utf-8") as fh:
            assert out == fh.read(), name
        code, _, err = run_cli(argv + ["--golden", path], capsys, stdin=stdin)
        assert code == want_code, name
        assert "golden mismatch" not in err, name


def test_golden_mismatch_and_missing(tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text("{}\n")
    code, _, err = run_cli(
        ["curve", "--family", "thm1", "--g", "1", "--m", "1", "--golden", str(other)],
        capsys,
    )
    assert code == 1
    assert "golden" in err
    code, _, err = run_cli(
        ["curve", "--family", "thm1", "--g", "1", "--m", "1",
         "--golden", str(tmp_path / "absent.json")],
        capsys,
    )
    assert code == 2


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["chain", "--family", "thm1", "--g", "1", "--m", "1", "--out", str(path)], capsys
    )
    assert code == 0
    report = json.loads(path.read_text())
    assert report["result"]["equations"][0]["equation"] == "(16*A6)*C1 + (-256*A6*A2) = 0"
    assert report["result"]["entries"][0]["value"] == "16*A6*x^4 + C1"


def test_inline_potential_and_bindings(capsys):
    code, out, _ = run_cli(
        ["curve", "--params", "A", "--V", "A*x^6 + x^2", "--W", "32*A*x^4",
         "--bind", "A=1", "--m", "1"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["V"] == "x^6 + x^2"
    assert report["result"]["curve"]["z_coeffs_desc"] == ["1", "32", "448", "3072"]


def test_document_on_stdin(capsys):
    doc = json.dumps({"params": ["A"], "V": "A*x^4", "W": "x^3"})
    code, out, _ = run_cli(["verdict", "--g-bound", "2"], capsys, stdin=doc)
    assert code == 1  # never closes: the W power is not n-2
    report = json.loads(out)
    assert [row["status"] for row in report["result"]["rows"]] == ["infeasible"] * 2
    assert report["result"]["verified"] is False


def test_document_via_file(tmp_path, capsys):
    doc = tmp_path / "pair.json"
    doc.write_text(json.dumps({"params": [], "V": "0", "W": "0"}))
    code, out, _ = run_cli(["curve", "--in", str(doc), "--m", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["curve"]["z_coeffs_desc"] == ["1", "0", "0", "0", "0", "0"]


def test_document_carries_chain_degree(capsys):
    doc = json.dumps({"params": ["A"], "V": "A*x^4", "W": "8*A*x^2", "m": 1})
    code, out, _ = run_cli(["curve"], capsys, stdin=doc)
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["m"] == 1
    assert report["result"]["curve"]["pretty"] == "z^3 + 16*A^2"

    # the --m flag wins over the document key
    code, out, _ = run_cli(["chain", "--m", "2"], capsys, stdin=doc)
    assert code == 0
    assert json.loads(out)["inputs"]["m"] == 2

    code, _, err = run_cli(["curve"], capsys,
                           stdin=json.dumps({"params": [], "V": "0", "W": "0", "m": 0}))
    assert code == 2
    assert "positive integer" in err


def test_commutator_family_and_explicit(capsys):
    code, out, _ = run_cli(["commutator", "--family", "dixmier_rank3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"] == {
        "commutator": "0",
        "is_zero": True,
        "order_L": 6,
        "order_M": 9,
    }
    code, out, _ = run_cli(
        ["commutator", "--params", "", "--L", "D^2", "--M", "x"], capsys
    )
    assert code == 1  # [D^2, x] = 2D
    assert json.loads(out)["result"]["commutator"] == "2*D"


def test_commutator_binds_explicit_params(capsys):
    argv = ["commutator", "--params", "a", "--L", "D + a*x", "--M", "D^2 + x^2"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 1  # [D + a x, D^2 + x^2] = 2x - 2a D
    report = json.loads(out)
    assert report["inputs"]["L"] == "D + a*x"
    assert report["result"]["commutator"] == "-2*a*D + 2*x"
    code, out, _ = run_cli(argv + ["--bind", "a=0"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["inputs"] == {"params": ["a"], "L": "D", "M": "D^2 + x^2"}
    assert report["result"]["commutator"] == "2*x"


@pytest.mark.parametrize(
    "bind, params, pretty",
    [([], ["alpha"], "z^3 + (-alpha)"), (["--bind", "alpha=3"], [], "z^3 + (-3)")],
)
def test_dixmier_rank2_square_form_curve(bind, params, pretty, capsys):
    # V = x^3 + alpha, W = 2x: the curve of M^2 = L^3 - alpha
    code, out, _ = run_cli(["curve", "--family", "dixmier_rank2", "--m", "1"] + bind, capsys)
    assert code == 0
    curve = json.loads(out)["result"]["curve"]
    assert curve["params"] == params
    assert curve["pretty"] == pretty
    assert curve["genus_bound"] == 1


def test_singular_exit_codes(capsys):
    code, out, _ = run_cli(
        ["singular", "--family", "thm3", "--n", "5", "--b-mult", "1",
         "--bind", "A=1", "--m", "1"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["singular"] is True
    assert report["result"]["repeated_root_poly"] == "z^2"
    code, _, _ = run_cli(
        ["singular", "--family", "thm3", "--n", "7", "--b-mult", "2", "--m", "1",
         "--bind", "A=1"],
        capsys,
    )
    assert code == 1  # infeasible: nothing to test


def test_scan_grid(capsys):
    code, out, _ = run_cli(
        ["scan", "--family", "thm1", "--g-range", "1:2", "--m-range", "1:2",
         "--bind", "A6=1", "--bind", "A2=1"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    rows = report["result"]["rows"]
    assert [(r["g"], r["m"]) for r in rows] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    by_cell = {(r["g"], r["m"]): r for r in rows}
    assert by_cell[(1, 1)]["status"] == "unique"
    assert by_cell[(1, 1)]["singular"] is False
    assert by_cell[(2, 1)]["status"] == "infeasible"
    assert by_cell[(1, 2)]["status"] == "underdetermined"
    assert by_cell[(1, 2)]["singular"] is True


@pytest.mark.parametrize(
    "family, shape, bind, g_range, m_range",
    [
        ("thm1", {}, {"A6": "1/2", "A2": "-3"}, (1, 3), (1, 5)),
        ("thm2", {}, {"A4": "1", "A2": "0", "A0": "0"}, (2, 3), (1, 4)),
        ("thm3", {"n": 5, "b_mult": 1}, {}, None, (1, 3)),
        ("thm1", {}, {"A6": "1", "A2": "1"}, (1, 2), (1, 3)),
    ],
)
def test_scan_rows_match_separate_solves(family, shape, bind, g_range, m_range, capsys):
    # the rows of one g share a chain prefix; each must equal a solve on its own
    argv = ["scan", "--family", family, "--m-range", "{}:{}".format(*m_range)]
    for key, value in shape.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    for name, value in bind.items():
        argv += ["--bind", f"{name}={value}"]
    if g_range is not None:
        argv += ["--g-range", "{}:{}".format(*g_range)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    g_values = range(g_range[0], g_range[1] + 1) if g_range else [None]
    assert len(rows) == len(g_values) * (m_range[1] - m_range[0] + 1)
    for row in rows:
        params = {**shape, **{k: Fraction(v) for k, v in bind.items()}}
        if row["g"] is not None:
            params["g"] = row["g"]
        _, V, W = build_family(FamilySpec(family, params))
        solution = solve_pair(V, W, row["m"])
        assert row["status"] == solution.outcome.status
        assert row["free"] == list(solution.outcome.free)
        assert row["curve"] == (str(solution.curve) if solution.curve else None)
        if solution.curve is not None and not solution.curve.free_params():
            assert row["singular"] == curve_is_singular(solution.curve).singular
        else:
            assert row["singular"] is None


def test_oracle_check(capsys):
    code, out, _ = run_cli(["oracle-check", "--family", "thm2", "--g", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["all_agree"] is True
    assert all(row["agree"] for row in report["result"]["rows"])


def test_oracle_check_thm3(capsys):
    # the README example: rungs of x^k against the closed form for V = A x^5
    argv = ["oracle-check", "--family", "thm3", "--n", "5", "--k-range", "0:8"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["all_agree"] is True
    assert [row["k"] for row in result["rows"]] == list(range(9))
    assert result["rows"][1]["recursion"] == "35/4*A*x^4 + C"
    code, _, err = run_cli(["oracle-check", "--family", "thm3", "--n", "3"], capsys)
    assert code == 2
    assert "oracle-check thm3 needs --n > 3" in err


@pytest.mark.parametrize(
    "argv, kind, key",
    [
        (["curve", "--family", "thm1", "--g", "1", "--n", "9", "--k", "2", "--b-over-a", "3"],
         "thm1", "n"),
        (["verdict", "--family", "thm3", "--n", "5", "--b-mult", "1", "--g", "2"], "thm3", "g"),
        (["verdict", "--family", "dixmier_rank2", "--g", "3", "--n", "4"], "dixmier_rank2", "g"),
        (["scan", "--family", "thm3", "--n", "5", "--b-mult", "1", "--m-range", "1:2",
          "--g-range", "2:3"], "thm3", "g"),
        (["oracle-check", "--family", "thm3", "--n", "5", "--g", "2"], "thm3", "g"),
        (["oracle-check", "--family", "thm1", "--g", "2", "--n", "5"], "thm1", "n"),
    ],
    ids=["curve-thm1-n", "verdict-thm3-g", "verdict-dixmier_rank2-g", "scan-thm3-g",
         "oracle-check-thm3-g", "oracle-check-thm1-n"],
)
def test_family_refuses_a_foreign_shape_flag(argv, kind, key, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: family '{kind}' does not accept parameter '{key}'\n"


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["curve", "--family", "thm1", "--g", "1", "--V", "x^2", "--W", "x", "--params", "A"],
         "--V, --W, --params"),
        (["verdict", "--family", "thm2", "--g", "2", "--W", "x"], "--W"),
        (["commutator", "--family", "dixmier_rank2", "--L", "D", "--M", "x"], "--L, --M"),
        (["chain", "--family", "thm1", "--g", "2", "--params", "A"], "--params"),
    ],
    ids=["curve-V-W-params", "verdict-W", "commutator-L-M", "chain-params"],
)
def test_family_refuses_explicit_pair_flags(argv, flags, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {flags} cannot be combined with --family\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verdict", "--family", "dixmier_rank2", "--m", "3", "--g-bound", "9"],
        ["verdict", "--family", "dixmier_rank2", "--m", "1"],
        ["verdict", "--family", "dixmier_rank3", "--g-bound", "4"],
    ],
    ids=["rank2-m-g-bound", "rank2-m", "rank3-g-bound"],
)
def test_classical_pair_verdict_refuses_a_degree(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: verdict on {argv[2]} takes neither --m nor --g-bound\n"


def test_classical_pair_verdict_echoes_the_default_degree(capsys):
    # without --m and --g-bound the report still echoes m = null and g_bound = 4,
    # and --m keeps its meaning for the chain of a classical pair
    code, out, _ = run_cli(["verdict", "--family", "dixmier_rank2"], capsys)
    assert code == 0
    assert json.loads(out)["inputs"] == {
        "family": "dixmier_rank2", "parameters": {}, "m": None, "g_bound": 4
    }
    code, _, _ = run_cli(["chain", "--family", "dixmier_rank2", "--m", "2"], capsys)
    assert code == 0


def test_input_errors_exit_2(capsys, tmp_path):
    # malformed expression: position is reported
    code, _, err = run_cli(
        ["curve", "--params", "A", "--V", "A*x^", "--W", "x", "--m", "1"], capsys
    )
    assert code == 2
    assert "column" in err or "position" in err or "expected" in err
    # unknown name in an expression
    code, _, err = run_cli(
        ["curve", "--params", "A", "--V", "B*x", "--W", "x", "--m", "1"], capsys
    )
    assert code == 2
    # z is reserved for the spectral parameter
    code, _, err = run_cli(
        ["curve", "--params", "", "--V", "z*x", "--W", "x", "--m", "1"], capsys
    )
    assert code == 2
    # malformed JSON document: line/column in the message
    code, _, err = run_cli(["verdict"], capsys, stdin="{not json")
    assert code == 2
    assert "line" in err
    # a document field that is not an expression string
    code, _, err = run_cli(["curve"], capsys, stdin=json.dumps({"V": 5, "W": "x", "m": 1}))
    assert code == 2
    assert "'V'" in err
    # a binding for a name that --params does not declare
    code, _, err = run_cli(
        ["curve", "--params", "A", "--V", "A*x^4", "--W", "8*A*x^2", "--m", "1",
         "--bind", "B=1"],
        capsys,
    )
    assert code == 2
    assert "B" in err
    # an exponent tower past the cap fails fast instead of computing 9^9^9
    code, _, err = run_cli(
        ["curve", "--params", "", "--V", "x^9^9^9", "--W", "x", "--m", "1"], capsys
    )
    assert code == 2
    assert "exponent too large" in err
    # a --free-const that is not free in the solved chain
    code, _, err = run_cli(
        ["curve", "--family", "thm1", "--g", "1", "--m", "1", "--free-const", "C1=1"], capsys
    )
    assert code == 2
    assert "C1" in err
    # a verdict that would probe no degree proves nothing either way
    code, _, err = run_cli(
        ["verdict", "--family", "thm3", "--n", "5", "--b-mult", "1", "--g-bound", "0"], capsys
    )
    assert code == 2
    assert err.startswith("error:") and "no degree" in err
    code, _, err = run_cli(
        ["verdict", "--params", "", "--V", "x^4", "--W", "8*x^2", "--g-bound", "0"], capsys
    )
    assert code == 2
    assert err.startswith("error:") and "no degree" in err
    # a reserved, duplicate or malformed parameter name, inline or in a document
    for params, message in (("x", "parameter name 'x' is reserved"),
                            ("D", "parameter name 'D' is reserved"),
                            ("A,z", "parameter name 'z' is reserved"),
                            ("A,A", "duplicate parameter names"),
                            ("A-B", "invalid parameter name 'A-B'")):
        code, out, err = run_cli(
            ["curve", "--params", params, "--V", "x^4", "--W", "8*x^2", "--m", "1"], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")
    code, out, err = run_cli(
        ["commutator"], capsys, stdin=json.dumps({"params": ["x"], "L": "D^2", "M": "D^3"})
    )
    assert (code, out, err) == (2, "", "error: parameter name 'x' is reserved\n")
    # a classical pair rejects a binding of another family's symbol, as verdict does
    for command in ("commutator", "verdict"):
        code, out, err = run_cli([command, "--family", "dixmier_rank2", "--bind", "A6=1"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: family 'dixmier_rank2' does not accept parameter 'A6'\n"
    code, out, err = run_cli(["commutator", "--family", "thm1", "--g", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: commutator --family expects dixmier_rank2 or dixmier_rank3\n"
    # a scan whose first degree is 0 fails before any chain is shared
    code, out, err = run_cli(
        ["scan", "--family", "thm1", "--g-range", "1:1", "--m-range", "0:2"], capsys
    )
    assert (code, out) == (2, "")
    assert err == "error: chain length m must be >= 1, got 0\n"
    # the g-indexed families probe degree g whatever the bound
    code, _, _ = run_cli(["verdict", "--family", "thm1", "--g", "2", "--g-bound", "0"], capsys)
    assert code == 0
    # an --out file that cannot be written
    code, out, err = run_cli(
        ["commutator", "--family", "dixmier_rank2", "--out", str(tmp_path / "missing" / "r.json")],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output file:") and "Traceback" not in err
    # unknown family is rejected at argument parsing, also with code 2
    with pytest.raises(SystemExit) as exc:
        main(["verdict", "--family", "thm9"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["curve", "--V", "x^2", "--W", "123456789^300*x", "--m", "1"], '"W": "'),
        (["commutator", "--L", "D^1700", "--M", "x^1700"], '"commutator": "'),
    ],
)
def test_integers_past_the_str_digit_limit(argv, needle, capsys):
    # exit 1 is the refuted verdict: the report must still print in full
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert "Traceback" not in err
    report = json.loads(out)
    assert report["command"] == argv[0]
    assert max(len(word) for word in out.split()) > 4300
    assert needle in out


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--V", "x^2", "--W", "123456789^300*x", "--m", "1"],
        ["singular", "--family", "thm2", "--g", "1", "--bind", "A4=" + "7" * 5000,
         "--bind", "A2=0", "--bind", "A0=0"],
    ],
)
def test_the_path_without_main_lifts_the_str_digit_limit(argv):
    # an in-process caller such as a benchmark skips main; the default limit is 4300
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, report = run_job(job_from_args(build_arg_parser().parse_args(argv)))
        payload = render_report(report).decode("utf-8")
    finally:
        sys.set_int_max_str_digits(old)
    assert report["command"] == argv[0]
    assert max(len(word) for word in payload.split()) > 4300


def test_missing_required_range_errors(capsys):
    with pytest.raises(SystemExit):
        main(["scan", "--family", "thm1", "--g-range", "1:2"])  # --m-range required
    capsys.readouterr()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "weylcurve.cli", "commutator", "--family", "dixmier_rank2"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["is_zero"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "thm2", "--g", "2"],
        ["--family", "mironov_x3", "--g", "2"],
        ["--family", "thm3", "--n", "4", "--b-mult", "1", "--m", "3"],
        ["--family", "thm2", "--g", "3"],
        ["--family", "mironov_x3", "--g", "3"],
        ["--family", "thm1", "--g", "4"],
    ],
)
def test_repeated_factors_match_sympy(argv, capsys):
    sympy = pytest.importorskip("sympy")
    code, out, _ = run_cli(["curve", *argv], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    z = sympy.Symbol("z")

    def expr(text):
        return sympy.sympify(text.replace("^", "**"), locals={"z": z})

    def monic(p):
        return sympy.cancel(p / sympy.Poly(p, z).LC())

    # group sympy's z-dependent factors by multiplicity, over Q(params)
    _, parts = sympy.sqf_list(expr(result["curve"]["pretty"]), z)
    expected: dict[int, object] = {}
    for factor, mult in parts:
        if sympy.degree(factor, z) > 0:
            expected[mult] = expected.get(mult, 1) * factor
    reported = {row["multiplicity"]: expr(row["factor"]) for row in result["repeated_factors"]}
    assert set(reported) == {mult for mult in expected if mult >= 2}
    for mult, factor in reported.items():
        assert sympy.cancel(factor - monic(expected[mult])) == 0
