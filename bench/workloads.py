"""Operation lists for the four benchmark workloads, generated from a seed.

An operation is one CLI invocation: an argv list, an optional JSON document
fed on stdin, the exit code its input calls for, and a structured ``spec``
that the checker reads instead of the program's own echo of its inputs.
A round is the full list; a run repeats whole rounds.  The seed changes
the order of the operations, signs, and rationals of one fixed size, never
the number, kind or size of the operations, so every seed does the same
amount of work.

Stdlib only: the workload process imports this before any operation runs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("decide", "squarefree", "numeric", "operators")


def _op(argv, expect, spec, stdin=None):
    return {"argv": [str(a) for a in argv], "stdin": stdin, "expect": expect, "spec": spec}


def _family_argv(command, spec):
    argv = [command, "--family", spec["family"]]
    for key in ("g", "n", "m"):
        if key in spec:
            argv += [f"--{key}", spec[key]]
    if "b_mult" in spec:
        argv += ["--b-mult", spec["b_mult"]]
    if "g_bound" in spec:
        argv += ["--g-bound", spec["g_bound"]]
    for name, value in sorted(spec.get("bind", {}).items()):
        argv += ["--bind", f"{name}={value}"]
    for key in ("g_range", "m_range"):
        if key in spec:
            argv += ["--" + key.replace("_", "-"), "{}:{}".format(*spec[key])]
    return argv


# Two-digit primes: p/q never reduces, so every value the seed draws has the
# same size and the cost of an operation does not depend on the seed.
_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _rational(rng: random.Random) -> str:
    """A rational +-p/q with distinct two-digit primes p and q, as text."""
    p, q = rng.sample(_PRIMES, 2)
    return str(Fraction(p * rng.choice((1, -1)), q))


def _decide(rng):
    ops = []
    for family in ("thm1", "thm2"):
        for g in range(1, 9):
            spec = {"family": family, "g": g}
            ops.append(_op(_family_argv("verdict", spec), 0, spec))
    # g_bound 4 tries degrees 1..4: below and at or above the admissible degree
    for n in range(4, 9):
        spec = {"family": "thm3", "n": n, "b_mult": 2, "g_bound": 4}
        ops.append(_op(_family_argv("verdict", spec), 0, spec))
    for g in range(1, 6):
        spec = {"family": "mironov_x3", "g": g}
        ops.append(_op(_family_argv("verdict", spec), 0, spec))
    return ops


def _squarefree(rng):
    # Only members whose symbolic squarefree split finishes today: thm1 g>=4
    # (ROADMAP), thm2 g>=2 and mironov_x3 g>=2 (CHANGES.md) do not.
    specs = [{"family": "thm1", "g": g} for g in (1, 2, 3)]
    specs += [{"family": "thm1", "g": g, "bind": {"A2": "0"}} for g in range(1, 6)]
    specs += [{"family": "thm2", "g": g, "bind": {"A2": "0", "A0": "0"}} for g in range(1, 6)]
    specs.append({"family": "thm2", "g": 1})
    for n in (4, 6):
        for m in (2, 3):
            specs.append({"family": "thm3", "n": n, "m": m, "b_mult": m})
    return [_op(_family_argv("curve", spec), 0, spec) for spec in specs]


def _numeric(rng):
    ops = []
    thm1_bind = {"A6": _rational(rng), "A2": _rational(rng)}
    reduced = {"A4": "1", "A2": "0", "A0": "0"}
    for family, bind in (("thm1", thm1_bind), ("thm2", reduced)):
        g_top = 5 if family == "thm1" else 6
        for g in range(1, g_top + 1):
            spec = {"family": family, "bind": bind, "g_range": (g, g), "m_range": (g, g + 2)}
            ops.append(_op(_family_argv("scan", spec), 0, spec))
        # one grid with rows below the diagonal, which must come out infeasible
        spec = {"family": family, "bind": bind, "g_range": (1, 3), "m_range": (1, 3)}
        ops.append(_op(_family_argv("scan", spec), 0, spec))
        for g in range(1, 5):
            for m in range(g, g + 3):
                spec = {"family": family, "g": g, "m": m, "bind": bind}
                ops.append(_op(_family_argv("singular", spec), 0, spec))
    return ops


def _square_form(v: str, w: str) -> str:
    return f"(D^2 + {v})^2 + {w}"


def _operators(rng):
    ops = []
    alpha = _rational(rng)
    for kind in ("dixmier_rank2", "dixmier_rank3"):
        for bind in ({}, {"alpha": alpha}):
            for command in ("commutator", "verdict"):
                spec = {"family": kind, "bind": bind}
                ops.append(_op(_family_argv(command, spec), 0, spec))
    # L = (D^2 + V)^2 + W in thm1 form against its own powers: always commutes
    a6, a2 = 2 * rng.choice((1, -1)), 3 * rng.choice((1, -1))
    forms = [
        ((), _square_form(f"{a6}*x^6 + {a2}*x^2", f"{32 * a6}*x^4"), (2, 3)),
        (("A6", "A2"), _square_form("A6*x^6 + A2*x^2", "32*A6*x^4"), (2,)),
    ]
    for params, L, powers in forms:
        for k in powers:
            M = f"({L})^{k}"
            argv = ["commutator", "--L", L, "--M", M]
            if params:
                argv += ["--params", ",".join(params)]
            spec = {"params": list(params), "L": L, "M": M}
            ops.append(_op(argv, 0, spec))
    # pairs that do not commute: the bracket has to be computed in full
    for k in (10, 14, 18):
        c = 2 * rng.choice((1, -1))
        L, M = "D^2 + x^2", f"(D + {c}*x)^{k}"
        spec = {"params": [], "L": L, "M": M}
        ops.append(_op(["commutator", "--L", L, "--M", M], 1, spec))
    # explicit documents whose potentials are powers of linear forms
    for kv, kw, m in ((24, 12, 2), (16, 8, 3), (32, 16, 1)):
        cv, cw = 3 * rng.choice((1, -1)), 2 * rng.choice((1, -1))
        scale = 5 * rng.choice((1, -1))
        doc = {"V": f"(x + {cv})^{kv}", "W": f"{scale}*(x + {cw})^{kw}", "m": m}
        # (scale, shift, power): the checker expands these binomially
        spec = {"params": [], "V": doc["V"], "W": doc["W"], "m": m,
                "powers": {"V": (1, cv, kv), "W": (scale, cw, kw)}}
        ops.append(_op(["chain"], 0, spec, stdin=json.dumps(doc)))
    return ops


_ROUNDS = {"decide": _decide, "squarefree": _squarefree, "numeric": _numeric,
           "operators": _operators}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The round of operations for a workload; same seed, same round."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    ops = _ROUNDS[workload](rng)
    rng.shuffle(ops)
    return ops
