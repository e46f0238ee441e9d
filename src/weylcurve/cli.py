"""Command-line interface producing deterministic JSON reports.

Every subcommand reads either a named family (--family plus shape flags) or
an explicit potential pair given as expressions (inline --params/--V/--W or
a JSON document on stdin / --in).  Reports are emitted as canonical JSON
(sorted keys, two-space indent, trailing newline) so byte-identical reruns
can be enforced with --golden.

Exit codes: 0 = success / claim verified, 1 = claim refuted (chain cannot
close, commutator nonzero, golden mismatch, ...), 2 = malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .scalars import DegreeLimitError, ParamRing, PoleError
from .weyl import XPoly
from .chain import ChainError
from .curve import (
    PairSolution,
    SpectralCurve,
    UnboundParameterError,
    _render_ztexts,
    curve_is_singular,
    curve_structure,
    render_zpoly,
    solve_pair,
)
from .families import (
    COEFFICIENT_SYMBOLS,
    FAMILIES,
    KINDS,
    ORACLE_KINDS,
    PAIR_RANKS,
    DegreeResult,
    FamilySpec,
    FamilySpecError,
    attempt_degrees,
    build_family,
    family_pair,
    probe_degrees,
    rung_oracle,
    run_family_verdict,
)
from .parsing import ExprError, parse_diffop, parse_xpoly


class CliInputError(ValueError):
    """Bad command-line input; reported on stderr with exit code 2."""


@dataclass
class JobSpec:
    """Everything one subcommand invocation needs, decoupled from argparse."""

    command: str
    family: FamilySpec | None = None
    params: tuple[str, ...] = ()
    v_text: str | None = None
    w_text: str | None = None
    l_text: str | None = None
    m_text: str | None = None
    m: int | None = None
    g_bound: int = 4
    bindings: dict[str, Fraction] = field(default_factory=dict)
    free_values: dict[str, Fraction] = field(default_factory=dict)
    g_range: tuple[int, int] | None = None
    m_range: tuple[int, int] | None = None
    k_range: tuple[int, int] = (0, 6)
    out: str | None = None
    golden: str | None = None


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliInputError(f"not a rational number: {text!r} ({exc})") from None


def _parse_binding(text: str) -> tuple[str, Fraction]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise CliInputError(f"bindings look like NAME=p/q, got {text!r}")
    return name.strip(), _parse_fraction(value.strip())


def _parse_range(text: str, what: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        a, b = (int(lo), int(hi)) if sep else (int(lo), int(lo))
    except ValueError:
        raise CliInputError(f"{what} must look like LO:HI, got {text!r}") from None
    if a > b:
        raise CliInputError(f"empty {what} {text!r}")
    return a, b


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="weylcurve",
        description="Decide closure of (D^2+V)^2+W chains and compute spectral curves.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, pair_input: bool = True) -> None:
        if pair_input:
            p.add_argument("--family", choices=KINDS, help="named family instead of V/W input")
            p.add_argument("--params", help="comma-separated parameter names for --V/--W")
            p.add_argument("--V", dest="v_text", help="potential V as an expression in x")
            p.add_argument("--W", dest="w_text", help="potential W as an expression in x")
            p.add_argument("--in", dest="infile", help="JSON document path (default: stdin)")
            p.add_argument("--g", type=int, help="family shape parameter g")
            p.add_argument("--n", type=int, help="monomial family exponent n")
            p.add_argument("--k", type=int, help="monomial family W-degree (default n-2)")
            p.add_argument("--b-mult", type=int, help="W coefficient as (n-2)^2 m (m+1) A")
            p.add_argument("--b-over-a", help="W coefficient as a rational multiple of A")
            p.add_argument(
                "--bind",
                action="append",
                default=[],
                metavar="NAME=p/q",
                help="bind a coefficient symbol to a rational (repeatable)",
            )
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--golden", help="require byte-identical output to this file")

    p = sub.add_parser("chain", help="build the chain and report its closing conditions")
    common(p)
    p.add_argument("--m", type=int, help="chain degree (default: family g)")

    p = sub.add_parser("curve", help="solve the chain and compute the spectral curve")
    common(p)
    p.add_argument("--m", type=int, help="chain degree (default: family g)")
    p.add_argument(
        "--free-const",
        action="append",
        default=[],
        metavar="NAME=p/q",
        help="value for a free integration constant (default 0)",
    )

    p = sub.add_parser(
        "verdict",
        help="check a family against its expected closure behavior, "
        "or probe an explicit V, W across degrees",
    )
    common(p)
    p.add_argument("--m", type=int, help="single chain degree to try")
    p.add_argument("--g-bound", type=int, help="degrees 1..bound for thm3 (default 4)")

    p = sub.add_parser("commutator", help="compose two operators and report [L, M]")
    common(p)
    p.add_argument("--L", dest="l_text", help="left operator expression")
    p.add_argument("--M", dest="m_text", help="right operator expression")

    p = sub.add_parser("singular", help="decide whether the spectral curve is singular")
    common(p)
    p.add_argument("--m", type=int, help="chain degree (default: family g)")
    p.add_argument("--free-const", action="append", default=[], metavar="NAME=p/q")

    p = sub.add_parser("scan", help="tabulate closure over a grid of g and chain degrees")
    common(p)
    p.add_argument("--g-range", help="inclusive LO:HI for the family g")
    p.add_argument("--m-range", required=True, help="inclusive LO:HI for the chain degree")

    p = sub.add_parser("oracle-check", help="compare chain rungs against closed forms")
    common(p, pair_input=False)
    p.add_argument("--family", choices=ORACLE_KINDS, required=True)
    p.add_argument("--g", type=int, help="g for thm1/thm2")
    p.add_argument("--n", type=int, help="n for thm3")
    p.add_argument("--k-range", default="0:6", help="inclusive LO:HI of rung inputs (default 0:6)")

    return top


def job_from_args(args: argparse.Namespace) -> JobSpec:
    # every run starts here; exact inputs and reports can pass the 4300-digit str limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    job = JobSpec(command=args.command)
    job.out = args.out
    job.golden = args.golden
    bindings = dict(_parse_binding(b) for b in getattr(args, "bind", []) or [])
    job.bindings = bindings
    job.free_values = dict(
        _parse_binding(b) for b in getattr(args, "free_const", []) or []
    )
    job.m = getattr(args, "m", None)
    g_bound = getattr(args, "g_bound", None)  # None unless given
    job.g_bound = 4 if g_bound is None else g_bound
    if getattr(args, "g_range", None):
        job.g_range = _parse_range(args.g_range, "--g-range")
    if getattr(args, "m_range", None):
        job.m_range = _parse_range(args.m_range, "--m-range")
    if getattr(args, "k_range", None):
        job.k_range = _parse_range(args.k_range, "--k-range")

    # explicit potential pair, inline or in a JSON document; a named family refuses it
    v_text = getattr(args, "v_text", None)
    w_text = getattr(args, "w_text", None)
    l_text = getattr(args, "l_text", None)
    m_text = getattr(args, "m_text", None)
    params_text = getattr(args, "params", None)
    infile = getattr(args, "infile", None)
    family_kind = getattr(args, "family", None)
    if job.command == "commutator" and (v_text is not None or w_text is not None):
        raise CliInputError("commutator takes --L and --M, not --V or --W")
    if family_kind is not None:
        given = [flag for flag, text in zip(("--V", "--W", "--L", "--M", "--params", "--in"),
                 (v_text, w_text, l_text, m_text, params_text, infile)) if text is not None]
        if given:
            raise CliInputError(f"{', '.join(given)} cannot be combined with --family")
        if job.command == "verdict" and family_kind in PAIR_RANKS:
            if job.m is not None or g_bound is not None:  # an identity check probes no degree
                raise CliInputError(f"verdict on {family_kind} takes neither --m nor --g-bound")
        if g_bound is not None and "g" in FAMILIES[family_kind].shape_keys:
            raise CliInputError(f"verdict on {family_kind} probes degree g or --m, not --g-bound")
        _refuse_bound_beside_degree(job.m, g_bound)
        parameters: dict = {}
        for key in ("g", "n", "k", "b_mult", "b_over_a"):
            value = getattr(args, key, None)
            if value is not None:
                parameters[key] = _parse_fraction(value) if key == "b_over_a" else value
        for name, value in bindings.items():
            if name not in COEFFICIENT_SYMBOLS:
                raise CliInputError(
                    f"--bind {name!r} is not a coefficient symbol of a named family"
                )
            parameters[name] = value
        job.family = FamilySpec(family_kind, parameters)
        return job

    inline = any(t is not None for t in (v_text, w_text, l_text, m_text))
    if inline:
        if infile is not None:
            raise CliInputError("--in cannot be combined with inline --V, --W, --L or --M")
        job.params = _split_params(params_text)
        job.v_text, job.w_text = v_text, w_text
        job.l_text, job.m_text = l_text, m_text
    else:
        if params_text is not None:
            raise CliInputError("--params declares the names of inline operands; "
                                "a document gives its own 'params'")
        doc = _load_document(infile)
        reads = {"params", "L", "M"} if job.command == "commutator" else {"params", "V", "W", "m"}
        unread = sorted(set(doc) - reads)
        if unread:
            raise CliInputError(
                f"{job.command} does not read document keys {', '.join(map(repr, unread))}; "
                f"it reads {', '.join(map(repr, sorted(reads)))}"
            )
        job.params = _split_params(doc.get("params"))
        for key in ("V", "W", "L", "M"):
            if doc.get(key) is not None and not isinstance(doc[key], str):
                raise CliInputError(
                    f"document key {key!r} must be an expression string, got {doc[key]!r}"
                )
        job.v_text = doc.get("V")
        job.w_text = doc.get("W")
        job.l_text = doc.get("L")
        job.m_text = doc.get("M")
        if job.m is None and doc.get("m") is not None:
            m_doc = doc["m"]
            if isinstance(m_doc, bool) or not isinstance(m_doc, int) or m_doc < 1:
                raise CliInputError(
                    f"document key 'm' must be a positive integer, got {m_doc!r}"
                )
            job.m = m_doc
    _refuse_bound_beside_degree(job.m, g_bound)
    try:
        ParamRing(job.params)  # reserved, duplicate and malformed names
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    undeclared = sorted(set(bindings) - set(job.params))
    if undeclared:
        raise CliInputError(
            f"--bind names are not declared parameters: {', '.join(undeclared)}"
        )
    return job


def _refuse_bound_beside_degree(m: int | None, g_bound: int | None) -> None:
    # a verdict at a given degree probes that degree alone and would ignore the bound
    if m is not None and g_bound is not None:
        raise CliInputError("--g-bound cannot be combined with --m or a document 'm'")


def _split_params(value) -> tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        return tuple(name.strip() for name in value.split(",") if name.strip())
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise CliInputError(f"params must be a comma list or array of names, got {value!r}")


def _load_document(path: str | None) -> dict:
    try:
        if path is None:
            text = sys.stdin.read()
            where = "stdin"
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            where = path
    except OSError as exc:
        raise CliInputError(f"cannot read document: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"invalid JSON in {where} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise CliInputError(f"document in {where} must be a JSON object")
    return doc


# -- shared pipeline pieces ------------------------------------------------------


def _family_echo(spec: FamilySpec) -> dict:
    return {
        "family": spec.kind,
        "parameters": {k: str(v) for k, v in sorted(spec.parameters.items())},
    }


def _explicit_operands(job: JobSpec, parse, **texts: str) -> tuple[list, dict]:
    """The job's operand texts parsed over its declared parameters, with
    --bind applied, plus the echo of the inputs."""
    ring = ParamRing(job.params)
    echo: dict = {"params": list(job.params)}
    operands = []
    for key, text in texts.items():
        operand = parse(ring, text)
        if job.bindings:
            operand = operand.substitute_params(job.bindings)
        operands.append(operand)
        echo[key] = str(operand)
    return operands, echo


def _potential_pair(job: JobSpec) -> tuple[XPoly, XPoly, dict]:
    """(V, W, echo-of-inputs) for family or explicit input."""
    if job.family is not None:
        ring, V, W = build_family(job.family)
        return V, W, _family_echo(job.family)
    if job.v_text is None or job.w_text is None:
        raise CliInputError("need --family, or V and W (inline or in the document)")
    (V, W), echo = _explicit_operands(job, parse_xpoly, V=job.v_text, W=job.w_text)
    return V, W, echo


def _default_m(job: JobSpec) -> int:
    if job.m is not None:
        return job.m
    if job.family is not None and isinstance(job.family.shape("g"), int):
        return job.family.shape("g")
    raise CliInputError("--m is required when the family does not fix g")


def _solve_job(job: JobSpec) -> tuple[PairSolution, dict, int]:
    """The pipeline result for the job's pair at its degree, plus echo and m."""
    V, W, echo = _potential_pair(job)
    m = _default_m(job)
    return solve_pair(V, W, m, job.free_values), echo, m


def _curve_block(curve: SpectralCurve) -> dict:
    texts = [str(c) for c in curve.coeffs]
    return {
        "degree": curve.degree,
        "genus_bound": curve.genus_bound,
        "params": sorted(curve.free_params()),
        "z_coeffs_desc": texts[::-1],
        "pretty": _render_ztexts(texts),
    }


def _outcome_block(outcome) -> dict:
    return {
        "status": outcome.status,
        "assignment": {k: str(v) for k, v in sorted(outcome.assignment.items())},
        "free": list(outcome.free),
        "side_conditions": [str(p) for p in outcome.side_conditions],
        "witness": outcome.witness.render() if outcome.witness else None,
    }


def _repeated_factors(curve: SpectralCurve) -> list[dict]:
    return [
        {"multiplicity": mult, "factor": render_zpoly(coeffs)}
        for coeffs, mult in curve_structure(curve)
        if mult >= 2
    ]


def _row_block(row: DegreeResult) -> dict:
    return {
        "m": row.degree,
        "status": row.status,
        "feasible": row.status != "infeasible",
        "expected_feasible": row.expected,
        "matches_expected": row.matches_expected,
        "assignment": row.assignment,
        "free": list(row.free),
        "side_conditions": list(row.side_conditions),
        "curve": _curve_block(row.curve) if row.curve else None,
    }


# -- subcommand implementations -----------------------------------------------------


def _run_chain(job: JobSpec) -> tuple[int, dict]:
    solution, echo, m = _solve_job(job)
    chain = solution.chain
    report = {
        "command": "chain",
        "inputs": {**echo, "m": m},
        "result": {
            "V": str(chain.V),
            "W": str(chain.W),
            "constants": list(chain.constants),
            "entries": [
                {"index": i, "value": str(chain.entry(i))} for i in range(1, m + 2)
            ],
            "equations": [
                {"x_power": eq.power, "equation": eq.render()}
                for eq in solution.system.equations
            ],
            "solve": _outcome_block(solution.outcome),
        },
    }
    return 0, report


def _run_curve(job: JobSpec) -> tuple[int, dict]:
    solution, echo, m = _solve_job(job)
    result = {"solve": _outcome_block(solution.outcome)}
    if solution.curve is not None:
        result["curve"] = _curve_block(solution.curve)
        result["repeated_factors"] = _repeated_factors(solution.curve)
    report = {
        "command": "curve",
        "inputs": {**echo, "m": m, "free_const": {k: str(v) for k, v in sorted(job.free_values.items())}},
        "result": result,
    }
    return (1 if solution.curve is None else 0), report


def _run_verdict(job: JobSpec) -> tuple[int, dict]:
    if job.family is None:
        # an explicit pair makes no claim: verified = some probed degree closes
        V, W, echo = _potential_pair(job)
        rows = attempt_degrees(V, W, [(m, None) for m in probe_degrees(job.m, job.g_bound)])
        identities = None
        verified = any(row.status != "infeasible" for row in rows)
    else:
        verdict = run_family_verdict(job.family, m=job.m, g_bound=job.g_bound)
        echo = _family_echo(job.family)
        rows, identities, verified = verdict.rows, verdict.identities, verdict.verified
    report = {
        "command": "verdict",
        "inputs": {**echo, "m": job.m, "g_bound": job.g_bound},
        "result": {
            "rows": [_row_block(row) for row in rows],
            "identities": identities,
            "verified": verified,
        },
    }
    return (0 if verified else 1), report


def _run_commutator(job: JobSpec) -> tuple[int, dict]:
    if job.family is not None:
        if job.family.kind not in PAIR_RANKS:
            raise CliInputError("commutator --family expects dixmier_rank2 or dixmier_rank3")
        L, M = family_pair(job.family)
        echo = _family_echo(job.family)
    else:
        if job.l_text is None or job.m_text is None:
            raise CliInputError("commutator needs --family, or L and M expressions")
        (L, M), echo = _explicit_operands(job, parse_diffop, L=job.l_text, M=job.m_text)
    bracket = L.commutator(M)
    report = {
        "command": "commutator",
        "inputs": echo,
        "result": {
            "order_L": L.order,
            "order_M": M.order,
            "commutator": str(bracket),
            "is_zero": bracket.is_zero(),
        },
    }
    return (0 if bracket.is_zero() else 1), report


def _run_singular(job: JobSpec) -> tuple[int, dict]:
    solution, echo, m = _solve_job(job)
    # Every binding is applied to V and W before the chain is built, so the
    # curve holds no bound name; curve_is_singular rejects any unbound one.
    curve = solution.curve
    result = {"solve": _outcome_block(solution.outcome), "curve": None, "singular": None}
    if curve is not None:
        verdict = curve_is_singular(curve)
        result["curve"] = _curve_block(curve)
        result["singular"] = verdict.singular
        result["repeated_root_poly"] = (
            render_zpoly(verdict.witness) if verdict.witness else None
        )
    inputs = {**echo, "m": m, "bind": {k: str(v) for k, v in sorted(job.bindings.items())}}
    if job.free_values:  # echoed only when given, so reports without one keep their bytes
        inputs["free_const"] = {k: str(v) for k, v in sorted(job.free_values.items())}
    report = {"command": "singular", "inputs": inputs, "result": result}
    return (1 if curve is None else 0), report


def _run_scan(job: JobSpec) -> tuple[int, dict]:
    if job.family is None:
        raise CliInputError("scan needs --family")
    if job.family.kind in PAIR_RANKS:
        raise CliInputError("scan applies to the potential families, not the fixed pairs")
    if job.m_range is None:
        raise CliInputError("scan needs --m-range")
    kind = job.family.kind
    if job.g_range is not None:
        if job.family.shape("g") is not None:
            raise CliInputError("--g cannot be combined with --g-range")
        # a family that does not take g refuses these when they are built
        lo, hi = job.g_range
        specs = [FamilySpec(kind, {**job.family.parameters, "g": g}) for g in range(lo, hi + 1)]
    elif "g" in FAMILIES[kind].shape_keys and job.family.shape("g") is None:
        raise CliInputError("scan needs --g-range (or --g) for this family")
    else:
        specs = [job.family]
    rows = []
    for spec in specs:
        g = spec.shape("g")
        if g is not None and g < 1:
            raise CliInputError("scan g values must be >= 1")
        _, V, W = build_family(spec)
        m_values = range(job.m_range[0], job.m_range[1] + 1)
        for result in attempt_degrees(V, W, [(m, None) for m in m_values]):
            curve = result.curve
            factors = [] if curve is None else _repeated_factors(curve)
            rows.append({
                "g": g,
                "m": result.degree,
                "status": result.status,
                "free": list(result.free),
                "curve": None if curve is None else str(curve),
                "repeated_factors": factors,
                # over Q, F is singular iff its squarefree split repeats a factor
                "singular": None if curve is None or curve.free_params() else bool(factors),
            })
    report = {
        "command": "scan",
        "inputs": {
            **_family_echo(job.family),
            "g_range": list(job.g_range) if job.g_range else None,
            "m_range": list(job.m_range),
        },
        "result": {"rows": rows},
    }
    return 0, report


def _run_oracle_check(job: JobSpec) -> tuple[int, dict]:
    spec = job.family
    kind = spec.kind
    lo, hi = job.k_range
    if lo < 0:
        raise CliInputError("--k-range must start at 0 or above")
    shape_keys = FAMILIES[kind].shape_keys
    g, n = spec.shape("g"), spec.shape("n")
    if "g" in shape_keys and (g is None or g < 1):
        raise CliInputError(f"oracle-check {kind} needs --g >= 1")
    if "n" in shape_keys and (n is None or n <= 3):
        raise CliInputError(f"oracle-check {kind} needs --n > 3")
    rows = [
        {"k": k, "input_power": power, "recursion": str(got), "closed_form": str(want),
         "agree": got == want}
        for k, power, got, want in rung_oracle(spec, range(lo, hi + 1))
    ]
    all_agree = all(row["agree"] for row in rows)
    report = {
        "command": "oracle-check",
        "inputs": {
            "family": kind,
            "g": g,
            "n": n,
            "k_range": list(job.k_range),
        },
        "result": {"rows": rows, "all_agree": all_agree},
    }
    return (0 if all_agree else 1), report


_RUNNERS = {
    "chain": _run_chain,
    "curve": _run_curve,
    "verdict": _run_verdict,
    "commutator": _run_commutator,
    "singular": _run_singular,
    "scan": _run_scan,
    "oracle-check": _run_oracle_check,
}


def run_job(job: JobSpec) -> tuple[int, dict]:
    """Execute a job; returns (exit_code, report).  Raises CliInputError."""
    try:
        return _RUNNERS[job.command](job)
    except CliInputError:
        raise
    except (FamilySpecError, ExprError, ChainError, PoleError, DegreeLimitError,
            UnboundParameterError, ZeroDivisionError) as exc:
        raise CliInputError(str(exc)) from exc


def render_report(report: dict) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        job = job_from_args(args)
        code, report = run_job(job)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = render_report(report)
    if job.golden is not None:
        try:
            with open(job.golden, "rb") as fh:
                want = fh.read()
        except OSError as exc:
            print(f"error: cannot read golden file: {exc}", file=sys.stderr)
            return 2
        if payload != want:
            print(f"golden mismatch: output differs from {job.golden}", file=sys.stderr)
            code = 1
    if job.out is not None:
        try:
            with open(job.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write output file: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return code


if __name__ == "__main__":
    sys.exit(main())
