"""Independent checks of weylcurve reports, computed with sympy.

Nothing here imports weylcurve.  Potentials come from the family formulas
and the theorems as the paper states them, the closure recursion, the
linear solve and the curve formula are recomputed with sympy's sparse
polynomials, and the program's report is parsed back from its text.  Every
check returns a list of problems; an empty list means the report passed.

Reference computations (all exact):

* chain: a_1 = W/2 + C_1 and
  a_{i+1} = 1/4 Int(-a_i''''' - 4 V a_i''' - 6 V' a_i'' - 2 a_i' V''
                    + 2 a_i W' + 4 a_i' W) dx + C_{i+1},
  antiderivative with zero constant term; every positive x-power of
  a_{m+1} is one linear condition on C_1..C_m.
* solve: fraction-free row reduction over Q[params] gives the rank and
  consistency; a reported assignment must satisfy every condition with the
  reported free constants left symbolic, and its pivots must be independent.
* curve: 4F = 4(z - W)Q^2 - 4V(Q')^2 + (Q'')^2 - 2Q'Q''' + 2Q(2V'Q' + 4VQ'' + Q'''')
  with free constants zero; F must be x-free, monic, of degree 2m + 1.
* operators: L(M f) - M(L f) for a generic f(x), carried as the coefficients
  of f, f', f'', ...; parsed powers are compared with their binomial expansion.
"""

from __future__ import annotations

import json
import math
import re

from sympy import QQ, Symbol
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

# -- expressions -------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\S))")


def parse(text: str):
    """AST of an expression in the engine's grammar (+ - * / ^, parentheses)."""
    tokens = []
    for num, name, op in _TOKEN.findall(text):
        tokens.append(("num", int(num)) if num else ("name", name) if name else ("op", op))
    pos = 0

    def peek(*ops):
        return pos < len(tokens) and tokens[pos][0] == "op" and tokens[pos][1] in ops

    def expr():
        nonlocal pos
        node = term()
        while peek("+", "-"):
            op = tokens[pos][1]
            pos += 1
            node = ("add" if op == "+" else "sub", node, term())
        return node

    def term():
        nonlocal pos
        node = unary()
        while peek("*", "/"):
            op = tokens[pos][1]
            pos += 1
            node = ("mul" if op == "*" else "div", node, unary())
        return node

    def unary():
        nonlocal pos
        if peek("-"):
            pos += 1
            return ("neg", unary())
        return power()

    def power():
        nonlocal pos
        node = atom()
        while peek("^"):
            pos += 1
            kind, value = tokens[pos]
            if kind != "num":
                raise ValueError(f"bad exponent in {text!r}")
            pos += 1
            node = ("pow", node, value)
        return node

    def atom():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"unexpected end of {text!r}")
        kind, value = tokens[pos]
        pos += 1
        if kind in ("num", "name"):
            return (kind, value)
        if value == "(":
            node = expr()
            if not peek(")"):
                raise ValueError(f"missing ')' in {text!r}")
            pos += 1
            return node
        raise ValueError(f"unexpected {value!r} in {text!r}")

    node = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return node


class Frac:
    """num/den over a sympy polynomial ring, compared by cross-multiplication."""

    __slots__ = ("n", "d")

    def __init__(self, n, d=1):
        self.n, self.d = n, d

    def _c(self, o):
        return o if isinstance(o, Frac) else Frac(o)

    def __add__(self, o):
        o = self._c(o)
        return Frac(self.n * o.d + o.n * self.d, self.d * o.d)

    def __sub__(self, o):
        return self + (-self._c(o))

    def __neg__(self):
        return Frac(-self.n, self.d)

    def __mul__(self, o):
        o = self._c(o)
        return Frac(self.n * o.n, self.d * o.d)

    def __truediv__(self, o):
        o = self._c(o)
        if not o.n:
            raise ZeroDivisionError("division by zero in a report")
        return Frac(self.n * o.d, self.d * o.n)

    def __pow__(self, k):
        return Frac(self.n**k, self.d**k)

    def __eq__(self, o):
        o = self._c(o)
        return self.n * o.d == o.n * self.d


def evaluate(node, env):
    """Value of an AST with names from env and integers as Frac(R(n))."""
    kind = node[0]
    if kind == "num":
        return Frac(env["1"] * node[1], env["1"])
    if kind == "name":
        if node[1] not in env:
            raise ValueError(f"unknown name {node[1]!r}")
        return Frac(env[node[1]], env["1"])
    if kind == "neg":
        return -evaluate(node[1], env)
    if kind == "pow":
        return evaluate(node[1], env) ** node[2]
    a, b = evaluate(node[1], env), evaluate(node[2], env)
    return {"add": a.__add__, "sub": a.__sub__, "mul": a.__mul__, "div": a.__truediv__}[kind](b)


class Ctx:
    """Rings for one check: P = Q[params], K = Q(params), R = P[x, z, C_1..C_n]."""

    def __init__(self, params, n_consts=0):
        self.params = list(params)
        self.P = QQ[tuple(Symbol(p) for p in params)] if params else QQ
        self.K = self.P.get_field() if params else QQ
        self.consts = [f"C{i}" for i in range(1, n_consts + 1)]
        self.R, self.x, self.z, *self.C = ring(["x", "z"] + self.consts, self.P)
        self.env = {"x": self.x, "z": self.z, "1": self.R.one}
        self.env.update(zip(self.consts, self.C))
        for name, gen in zip(self.params, getattr(self.P, "gens", ())):
            self.env[name] = self.R(gen)

    def frac(self, text: str) -> Frac:
        return evaluate(parse(text), self.env)

    def ground(self, p):
        """The Q[params] value of an R-element free of x, z and the constants."""
        if not p:
            return self.P.zero
        if not p.is_ground:
            raise ValueError(f"{p} is not free of x, z and the constants")
        return p.LC

    def scalar(self, f: Frac):
        """An x-, z- and constant-free Frac as an element of Q(params)."""
        return self.K.convert(self.ground(f.n)) / self.K.convert(self.ground(f.d))

    def rational(self, f: Frac):
        value = self.scalar(f)
        return QQ.from_sympy(self.K.to_sympy(value)) if self.params else value

    def poly(self, text: str):
        """An R-element; the text may divide only by rational constants."""
        f = self.frac(text)
        return f.n * (QQ.one / self.rational(Frac(f.d, self.R.one)))

    def z_coeffs(self, f: Frac) -> dict:
        """{power of z: coefficient in Q(params)} of an x-free Frac."""
        den = self.K.convert(self.ground(f.d))
        out = {}
        for e, c in f.n.terms():
            if any(e[:1] + e[2:]):
                raise ValueError("expected a polynomial in z alone")
            out[e[1]] = self.K.convert(c) / den
        return out

    def zpoly(self, coeffs: dict):
        """Univariate polynomial in z over Q(params) from {power: coefficient}."""
        Rz, _ = ring("z", self.K)
        return Rz({(k,): c for k, c in coeffs.items() if c})

    def parse_zpoly(self, text: str):
        return self.zpoly(self.z_coeffs(self.frac(text)))


def _binom(ctx, scale, shift, power):
    return sum((ctx.x**i * (scale * math.comb(power, i) * shift ** (power - i))
                for i in range(power + 1)), ctx.R.zero)


# -- families and theorems, as the paper states them ---------------------------------

_SYMBOLS = {"thm1": ("A6", "A2"), "thm2": ("A4", "A2", "A0"), "thm3": ("A",),
            "mironov_x3": ("A3", "A2", "A1", "A0")}


def family_params(spec):
    return [s for s in _SYMBOLS[spec["family"]] if s not in spec.get("bind", {})]


def family_potentials(ctx, spec, g):
    """(V, W) as R-elements for a family spec, bindings applied."""
    bind = spec.get("bind", {})
    s = {name: ctx.poly(bind.get(name, name)) for name in _SYMBOLS[spec["family"]]}
    x, kind = ctx.x, spec["family"]
    if kind == "thm1":
        return s["A6"] * x**6 + s["A2"] * x**2, 16 * g * (g + 1) * s["A6"] * x**4
    if kind == "thm2":
        return s["A4"] * x**4 + s["A2"] * x**2 + s["A0"], 4 * g * (g + 1) * s["A4"] * x**2
    if kind == "thm3":
        n, b = spec["n"], spec["b_mult"]
        return s["A"] * x**n, (n - 2) ** 2 * b * (b + 1) * s["A"] * x ** (n - 2)
    return s["A3"] * x**3 + s["A2"] * x**2 + s["A1"] * x + s["A0"], g * (g + 1) * s["A3"] * x


def theorem_closes(spec, m, g):
    """Whether the theorems say the chain closes at degree m."""
    if spec["family"] in ("thm1", "thm2", "mironov_x3"):
        return m >= g
    n, b = spec["n"], spec["b_mult"]
    if n in (4, 6):
        return m >= b
    return n == 5 and b == 1


# -- chain, solve, curve -------------------------------------------------------------


def _d(p, x, k=1):
    for _ in range(k):
        p = p.diff(x)
    return p


def ref_chain(ctx, V, W, m):
    """[a_1, ..., a_{m+1}] as R-elements; ctx must have m + 1 constants."""
    x = ctx.x

    def integrate(p):
        return ctx.R({(e[0] + 1,) + tuple(e[1:]): c * QQ(1, e[0] + 1) for e, c in p.terms()})

    a = [W * QQ(1, 2) + ctx.C[0]]
    for i in range(1, m + 1):
        ai = a[-1]
        integrand = (-_d(ai, x, 5) - 4 * V * _d(ai, x, 3) - 6 * _d(V, x) * _d(ai, x, 2)
                     - 2 * _d(ai, x) * _d(V, x, 2) + 2 * ai * _d(W, x) + 4 * _d(ai, x) * W)
        a.append(integrate(integrand) * QQ(1, 4) + ctx.C[i])
    return a


def closing_rows(ctx, closing, m):
    """{x power: [coeff of C_1..C_m, constant]} over Q[params]."""
    rows = {}
    for e, c in closing.terms():
        if e[0] >= 1:
            row = rows.setdefault(e[0], [ctx.P.zero] * (m + 1))
            hit = [j for j in range(m) if e[2 + j]]
            row[hit[0] if hit else m] += c
    return rows


def _rref(ctx, rows, cols):
    """Fraction-free reduced rows over Q[params] of the chosen columns."""
    if not rows:
        return [], ctx.P.one, ()
    mat = DomainMatrix([[r[c] for c in cols] for r in rows], (len(rows), len(cols)), ctx.P)
    red, den, piv = mat.rref_den()
    return red.to_list(), den, piv


def check_solve(ctx, chain, m, status, free, assignment, problems):
    """Check a solve outcome; returns (nums, den) or None.

    With the free constants zero, C_{j+1} = nums[j] / den for each pinned j.

    ``assignment`` is the reported text per pinned constant, or None when the
    report does not carry one (scan rows).
    """
    rows = list(closing_rows(ctx, chain[-1], m).values())
    _, _, piv = _rref(ctx, rows, range(m + 1))
    rank = len([p for p in piv if p < m])
    ref = "infeasible" if m in piv else "unique" if rank == m else "underdetermined"
    if status != ref:
        problems.append(f"solve status {status!r}, reference {ref!r}")
        return None
    if ref == "infeasible":
        return None
    names = ctx.consts[:m]
    pinned = [j for j in range(m) if names[j] not in free]
    if sorted(free) != sorted(set(free) & set(names)) or len(pinned) != rank:
        problems.append(f"free constants {free} do not leave rank {rank} pinned")
        return None
    fixed = [j for j in range(m) if j not in pinned]
    red, den, piv = _rref(ctx, rows, pinned + fixed + [m])
    if tuple(piv[:len(pinned)]) != tuple(range(len(pinned))):
        problems.append(f"free constants {free} leave the pinned ones undetermined")
        return None
    nums = {j: -ctx.R(red[i][-1]) for i, j in enumerate(pinned)}
    if assignment is not None:
        if sorted(assignment) != sorted(names[j] for j in pinned):
            problems.append(f"assignment names {sorted(assignment)} are not the pinned constants")
            return None
        given = {names.index(n): ctx.frac(t) for n, t in assignment.items()}
        for r in rows:
            total = Frac(ctx.R(r[m]), ctx.R.one)
            for j in range(m):
                if r[j]:
                    value = given.get(j, Frac(ctx.C[j], ctx.R.one))
                    total = total + value * ctx.R(r[j])
            if total.n:
                problems.append("reported assignment does not satisfy the closing conditions")
                return None
    return nums, ctx.R(den)


def ref_curve(ctx, chain, nums, D, V, W, m):
    """F(z) as a Frac over R, or a problem string.

    Works with D*Q, where C_{j+1} = nums[j] / D and the free constants and
    C_{m+1} are zero; every term of 4F is quadratic in Q, so F = 4F(DQ) / 4D^2.
    """
    x, z = ctx.x, ctx.z
    Q = D * z**m
    zero_c = (0,) * (m + 1)
    for i in range(1, m + 1):
        part = ctx.R.zero
        for e, c in chain[i - 1].terms():
            hit = [j for j in range(m + 1) if e[2 + j]]
            mono = ctx.R({(e[0], 0) + zero_c: c})
            part += mono * (nums.get(hit[0], ctx.R.zero) if hit else D)
        Q += part * z ** (m - i)
    q1, q2, q3, q4 = (_d(Q, x, k) for k in (1, 2, 3, 4))
    four_f = (4 * (z - W) * Q**2 - 4 * V * q1**2 + q2**2 - 2 * q1 * q3
              + 2 * Q * (2 * _d(V, x) * q1 + 4 * V * q2 + q4))
    if any(e[0] for e in four_f.monoms()):
        return "reference curve expression depends on x"
    return Frac(four_f, 4 * D * D)


def check_curve_block(ctx, F, m, block, problems):
    want = ctx.z_coeffs(F)
    got = block["z_coeffs_desc"]
    if block["degree"] != 2 * m + 1 or len(got) != 2 * m + 2 or block["genus_bound"] != m:
        problems.append(f"curve degree {block['degree']}, expected {2 * m + 1}")
        return
    if max(want) != 2 * m + 1 or want[2 * m + 1] != ctx.K.one or got[0] != "1":
        problems.append("F is not monic of degree 2m+1")
    for k, text in enumerate(reversed(got)):
        if ctx.scalar(ctx.frac(text)) != want.get(k, ctx.K.zero):
            problems.append(f"curve coefficient of z^{k} differs from the reference")
            return


def check_factors(ctx, F, factors, problems):
    """Repeated factors P_i (i >= 2) against F, each other and sympy's sqf_list."""
    f = ctx.zpoly(ctx.z_coeffs(F))
    parts = {}
    for item in factors:
        i, p = item["multiplicity"], ctx.parse_zpoly(item["factor"])
        if i < 2 or i in parts or p.degree() < 1:
            problems.append(f"bad repeated factor entry {item!r}")
            return
        parts[i] = p
    prod = f.ring.one
    for i, p in parts.items():
        prod *= p**i
    p1, rem = divmod(f, prod)
    if rem:
        problems.append("product of the reported P_i^i does not divide F")
        return
    if p1.degree() >= 1:
        parts[1] = p1
    z = f.ring.gens[0]
    keys = sorted(parts)
    for a, i in enumerate(keys):
        if parts[i].gcd(parts[i].diff(z)).degree() > 0:
            problems.append(f"P_{i} is not squarefree")
        for j in keys[a + 1:]:
            if parts[i].gcd(parts[j]).degree() > 0:
                problems.append(f"P_{i} and P_{j} share a factor")
    ref = {}
    for p, i in f.sqf_list()[1]:
        if p.degree() >= 1:
            ref[i] = ref.get(i, f.ring.one) * p
    if sorted(ref) != keys or any(ref[i].monic() != parts[i].monic() for i in keys):
        problems.append("repeated factors disagree with sqf_list")


def singular_reference(ctx, F):
    """(discriminant is zero, monic gcd(F, F'))."""
    f = ctx.zpoly(ctx.z_coeffs(F))
    return f.discriminant() == 0, f.gcd(f.diff(f.ring.gens[0])).monic()


# -- per-command checks ---------------------------------------------------------------


def _solved_curve(spec, m, g, block, problems):
    """(ctx, F) after checking the solve block; F is None when there is no curve."""
    ctx = Ctx(family_params(spec), m + 1)
    V, W = family_potentials(ctx, spec, g)
    chain = ref_chain(ctx, V, W, m)
    solution = check_solve(ctx, chain, m, block["status"], block["free"],
                           block.get("assignment"), problems)
    if solution is None:
        return ctx, None
    F = ref_curve(ctx, chain, *solution, V, W, m)
    if isinstance(F, str):
        problems.append(F)
        return ctx, None
    return ctx, F


def check_verdict(spec, code, report, problems):
    if spec["family"].startswith("dixmier"):
        return check_dixmier(spec, code, report, problems)
    rows = report["result"]["rows"]
    degrees = list(range(1, spec["g_bound"] + 1)) if spec["family"] == "thm3" else [spec["g"]]
    if [r["m"] for r in rows] != degrees:
        problems.append(f"verdict rows cover degrees {[r['m'] for r in rows]}, expected {degrees}")
        return
    verified = True
    for row in rows:
        m = row["m"]
        ctx, F = _solved_curve(spec, m, spec.get("g"), row, problems)
        feasible = row["status"] != "infeasible"
        expected = theorem_closes(spec, m, spec.get("g"))
        if row["feasible"] != feasible or row["expected_feasible"] != expected:
            problems.append(f"row m={m}: feasible/expected flags are wrong")
        if row["matches_expected"] != (feasible == expected):
            problems.append(f"row m={m}: matches_expected is wrong")
        verified = verified and feasible == expected
        if F is not None and row["curve"] is not None:
            check_curve_block(ctx, F, m, row["curve"], problems)
        elif (F is None) != (row["curve"] is None):
            problems.append(f"row m={m}: curve present exactly when the row closes")
    if report["result"]["verified"] != verified or code != (0 if verified else 1):
        problems.append(f"verified={report['result']['verified']} exit {code}, "
                        f"reference {verified}")


def check_curve(spec, code, report, problems):
    m = spec.get("m", spec.get("g"))
    result = report["result"]
    ctx, F = _solved_curve(spec, m, spec.get("g"), result["solve"], problems)
    if F is None:
        if code != 1 or "curve" in result:
            problems.append("a curve request that does not close must exit 1 without a curve")
        return
    check_curve_block(ctx, F, m, result["curve"], problems)
    check_factors(ctx, F, result["repeated_factors"], problems)


def check_singular(spec, code, report, problems):
    result = report["result"]
    ctx, F = _solved_curve(spec, spec["m"], spec["g"], result["solve"], problems)
    if F is None:
        return
    check_curve_block(ctx, F, spec["m"], result["curve"], problems)
    singular, gcd = singular_reference(ctx, F)
    if result["singular"] != singular:
        problems.append(f"singular={result['singular']}, discriminant says {singular}")
    witness = result.get("repeated_root_poly")
    if (witness is not None) != singular or (singular and ctx.parse_zpoly(witness) != gcd):
        problems.append("repeated_root_poly is not the monic gcd(F, F')")


def check_scan(spec, code, report, problems):
    (g0, g1), (m0, m1) = spec["g_range"], spec["m_range"]
    rows = report["result"]["rows"]
    grid = [(g, m) for g in range(g0, g1 + 1) for m in range(m0, m1 + 1)]
    if [(r["g"], r["m"]) for r in rows] != grid:
        problems.append("scan rows do not cover the requested grid")
        return
    for row in rows:
        g, m = row["g"], row["m"]
        feasible = row["status"] != "infeasible"
        if feasible != theorem_closes(spec, m, g):
            problems.append(f"scan row g={g} m={m}: feasible={feasible}, theorem says m >= g")
        ctx, F = _solved_curve(spec, m, g, row, problems)
        if F is None:
            if row["curve"] is not None or row["singular"] is not None:
                problems.append(f"scan row g={g} m={m}: no curve expected")
            continue
        if row["curve"] is None or not ctx.frac(row["curve"]) == F:
            problems.append(f"scan row g={g} m={m}: curve differs from the reference")
            continue
        check_factors(ctx, F, row["repeated_factors"], problems)
        if row["singular"] != singular_reference(ctx, F)[0]:
            problems.append(f"scan row g={g} m={m}: singular flag disagrees with the discriminant")


# -- operators -------------------------------------------------------------------------


def apply_op(ctx, node, f):
    """Apply an operator AST to sum_k c_k(x) f^(k), given as {k: c_k}."""
    kind = node[0]
    if kind == "num":
        return _scale(f, node[1])
    if kind == "name":
        if node[1] != "D":
            return _scale(f, ctx.env[node[1]])
        out = {}
        for k, c in f.items():
            out[k] = out.get(k, ctx.R.zero) + c.diff(ctx.x)
            out[k + 1] = out.get(k + 1, ctx.R.zero) + c
        return _clean(out)
    if kind == "neg":
        return _scale(apply_op(ctx, node[1], f), -1)
    if kind == "pow":
        for _ in range(node[2]):
            f = apply_op(ctx, node[1], f)
        return f
    if kind == "mul":
        return apply_op(ctx, node[1], apply_op(ctx, node[2], f))
    if kind == "div":
        divisor = ctx.rational(evaluate(node[2], ctx.env))
        return _scale(apply_op(ctx, node[1], f), QQ.one / divisor)
    sign = 1 if kind == "add" else -1
    return _combine(apply_op(ctx, node[1], f), apply_op(ctx, node[2], f), sign)


def _scale(f, c):
    return _clean({k: v * c for k, v in f.items()})


def _combine(a, b, sign):
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + sign * v if k in out else sign * v
    return _clean(out)


def _clean(f):
    return {k: v for k, v in f.items() if v}


def _order(f):
    return max(f) if f else None


def _bracket(ctx, L, M):
    one = {0: ctx.R.one}
    Lf, Mf = apply_op(ctx, L, one), apply_op(ctx, M, one)
    return Lf, Mf, _combine(apply_op(ctx, L, Mf), apply_op(ctx, M, Lf), -1)


def check_commutator(spec, code, report, problems):
    if "family" in spec:
        return check_dixmier(spec, code, report, problems)
    result = report["result"]
    ctx = Ctx(spec["params"])
    Lf, Mf, bracket = _bracket(ctx, parse(spec["L"]), parse(spec["M"]))
    one = {0: ctx.R.one}
    if apply_op(ctx, parse(result["commutator"]), one) != bracket:
        problems.append("[L, M] differs from L(M f) - M(L f)")
    for key, ref in (("L", Lf), ("M", Mf)):
        if apply_op(ctx, parse(report["inputs"][key]), one) != ref:
            problems.append(f"parsed {key} differs from its expansion")
    if result["order_L"] != _order(Lf) or result["order_M"] != _order(Mf):
        problems.append("operator orders are wrong")
    if result["is_zero"] != (not bracket) or code != (1 if bracket else 0):
        problems.append(f"is_zero={result['is_zero']} exit {code}, reference {not bracket}")


# The classical pairs in the form the families docstring gives them.
_DIXMIER = {
    "dixmier_rank2": ("D^2 + x^3 + alpha", "(P)^2 + 2*x", "(P)^3 + 3/2*(x*(P) + (P)*x)"),
    "dixmier_rank3": ("D^3 + x^2 + alpha", "(P)^2 + 2*D", "(P)^3 + 3/2*(D*(P) + (P)*D)"),
}


def check_dixmier(spec, code, report, problems):
    alpha = spec.get("bind", {}).get("alpha")
    ctx = Ctx([] if alpha else ["alpha"])
    if alpha:
        ctx.env["alpha"] = ctx.poly(alpha)
    p_text, l_text, m_text = _DIXMIER[spec["family"]]
    L, M = parse(l_text.replace("P", p_text)), parse(m_text.replace("P", p_text))
    Lf, Mf, bracket = _bracket(ctx, L, M)
    result = report["result"]
    if report["command"] == "commutator":
        commutes = not bracket
        if result["is_zero"] != commutes or (result["commutator"] == "0") != commutes:
            problems.append("classical pair commutator disagrees with the reference")
        if result["order_L"] != _order(Lf) or result["order_M"] != _order(Mf):
            problems.append("classical pair orders are wrong")
        ok = commutes
    else:
        L3 = apply_op(ctx, L, apply_op(ctx, L, Lf))
        gap = _combine(apply_op(ctx, M, Mf), L3, -1)
        gap = _combine(gap, {0: ctx.env["alpha"]}, 1)  # M^2 - (L^3 - alpha)
        ref = {"commutes": not bracket, "spectral_identity": not gap}
        if result["identities"] != ref or result["verified"] != all(ref.values()):
            problems.append(f"identities {result['identities']}, reference {ref}")
        ok = all(ref.values())
    if code != (0 if ok else 1):
        problems.append(f"exit {code}, reference {0 if ok else 1}")


def check_chain(spec, code, report, problems):
    m = spec["m"]
    ctx = Ctx(spec["params"], m + 1)
    pots = {k: _binom(ctx, *spec["powers"][k]) for k in ("V", "W")}
    for key in ("V", "W"):
        if ctx.poly(report["inputs"][key]) != pots[key]:
            problems.append(f"parsed {key} differs from its binomial expansion")
    chain = ref_chain(ctx, pots["V"], pots["W"], m)
    entries = report["result"]["entries"]
    if [e["index"] for e in entries] != list(range(1, m + 2)):
        problems.append("chain entries do not run a_1..a_{m+1}")
        return
    for e in entries:
        if ctx.poly(e["value"]) != chain[e["index"] - 1]:
            problems.append(f"chain entry a_{e['index']} differs from the recursion")
            return
    rows = closing_rows(ctx, chain[-1], m)
    got = {eq["x_power"]: eq["equation"] for eq in report["result"]["equations"]}
    if set(got) != set(rows):
        problems.append("closing conditions sit at the wrong x-powers")
        return
    for p, row in rows.items():
        lhs, _, rhs = got[p].rpartition(" = ")
        want = ctx.R(row[m]) + sum((ctx.R(row[j]) * ctx.C[j] for j in range(m)), ctx.R.zero)
        if rhs != "0" or ctx.poly(lhs) != want:
            problems.append(f"closing condition at x^{p} differs from the reference")
    solve = report["result"]["solve"]
    check_solve(ctx, chain, m, solve["status"], solve["free"], solve["assignment"], problems)
    if code != 0:
        problems.append(f"chain exited {code}")


_CHECKS = {"verdict": check_verdict, "curve": check_curve, "singular": check_singular,
           "scan": check_scan, "commutator": check_commutator, "chain": check_chain}


def check(op, code, report_text) -> list[str]:
    """Problems with one operation's report; [] when it passes."""
    problems: list[str] = []
    try:
        report = json.loads(report_text)
        command = op["argv"][0]
        if report.get("command") != command:
            return [f"report is for {report.get('command')!r}, not {command!r}"]
        _CHECKS[command](op["spec"], code, report, problems)
    except Exception as exc:  # a report the checker cannot read fails the check
        problems.append(f"check raised {type(exc).__name__}: {exc}")
    return problems
