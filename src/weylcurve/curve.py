"""Hyperelliptic spectral curves w^2 = F(z) attached to a certified pair.

For L = (D^2 + V)^2 + W and a closing polynomial Q of degree m in z, the
commuting operator M of order 4m + 2 satisfies M^2 = F(L) with

  4 F(z) = 4 (z - W) Q^2 - 4 V (Q')^2 + (Q'')^2 - 2 Q' Q'''
           + 2 Q (2 V' Q' + 4 V Q'' + Q''''),

primes denoting x-derivatives.  When Q certifies closure the right side is
constant in x and F is monic of degree 2m + 1, the defining polynomial of a
genus <= m hyperelliptic curve.

The x-derivative of the right side is 2 Q R with R the closure residual
``residual_eq2(Q, V, W)``, so once R = 0 F is read off at x = 0, from the
x^0 .. x^4 part of Q alone; the expansion in x is never built.
``spectral_curve`` checks R = 0 on a Q given in full.  ``solve_pair``
never builds Q: its closing check (``chain.closed_jets``) proves R = 0 and
hands over the x^0 .. x^4 part of Q's coefficients.
F is a ``SpectralCurve``: an ``XPoly`` whose variable is z, so the formula
at x = 0 is plain XPoly arithmetic in z.
The module also decides singularity (a repeated root of F) and splits off
repeated factors.  Both singularity questions clear F of parameter
denominators and treat z as one more ring variable, so they run on
``mpoly_gcd`` and exact division alone: Yun's squarefree algorithm in
Q[params][z], with factors made monic over Q(params) at the end.  Those gcds
are heuristic ones (GCDHEU) accepted only after exact division, so they stay
fast with several parameters.
Before Yun, ``curve_structure`` tries to prove a symbolic F squarefree at one
point: the parameters at 3, 5, 7, ... and the coefficients modulo the prime
p = 2^61 - 1.  When every coefficient reduces there and gcd(F(c), F'(c)) = 1
in F_p[z], disc F(c) is nonzero mod p, so disc F != 0 and F is squarefree;
this answers the diagonal members (m = g) without a multivariate gcd.  Any
other outcome (a denominator that vanishes at the point, or a common factor
of F(c) and F'(c) that F itself may lack) proves nothing, and Yun decides.
Over Q the check is skipped: there F(c) = F, and the univariate gcd it would
save costs only a few times the check, while most numeric curves have a
repeated factor and would pay for both.
``solve_pair`` runs the whole decision for one (V, W, m), from the chain
to F.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import prod
from typing import Iterable, Mapping, Sequence

from .scalars import (
    ParamPoly,
    ParamRing,
    ParamScalar,
    RatLike,
    _clear_denominators,
    _deg_in_idx,
    mpoly_gcd,
)
from .weyl import XPoly
from .chain import (
    ConstraintSystem,
    QChain,
    QPoly,
    SolveOutcome,
    assemble_q,
    build_qchain,
    closed_jets,
    extract_constraints,
    residual_eq2,
    solve_constants,
)


class XDependenceError(ValueError):
    """The curve expression failed to be constant in x."""

    def __init__(self, offenders: dict[int, XPoly]):
        self.offenders = offenders
        shown = "; ".join(f"z^{zp}: {p}" for zp, p in sorted(offenders.items()))
        super().__init__(f"spectral expression depends on x ({shown})")


class UnboundParameterError(ValueError):
    """A numeric decision was requested while parameters remain symbolic."""


class SpectralCurve(XPoly):
    """Monic odd-degree F with w^2 = F(z): an XPoly whose variable is z.

    Inherited arithmetic returns a plain XPoly, as its result need not be
    monic; substituting parameters returns a checked SpectralCurve.
    """

    __slots__ = ()
    _raw = XPoly._raw

    def __init__(self, ring: ParamRing, coeffs: Iterable):
        super().__init__(ring, coeffs)
        if not self.coeffs or not self.coeffs[-1].is_one():
            raise ValueError("spectral curve polynomial must be monic")

    @property
    def genus_bound(self) -> int:
        return (self.degree - 1) // 2

    def __str__(self) -> str:
        return render_zpoly(self.coeffs)


def render_zpoly(coeffs: Sequence) -> str:
    """Human-readable z-polynomial from ascending coefficients."""
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if not c:
            continue
        body = str(c)
        one = body == "1"
        if power == 0:
            parts.append(f"({body})" if body.startswith("-") else body)
        elif power == 1:
            parts.append("z" if one else f"({body})*z")
        else:
            parts.append(f"z^{power}" if one else f"({body})*z^{power}")
    return " + ".join(parts) if parts else "0"


def _taylor_f(coeffs: Sequence[XPoly], V: XPoly, W: XPoly) -> XPoly:
    """F(z) read off at x = 0 from the z-coefficients of Q, whole or cut to x^0 .. x^4.

    With the z-polynomials t_k = [x^k] Q, so that Q^(k)(0) = k! t_k, and
    V_0 = V(0), V_1 = V'(0), W_0 = W(0), the x = 0 value of the module
    formula divided by 4 is

      F = t_0 ((z - W_0) t_0 + V_1 t_1 + 4 V_0 t_2 + 12 t_4)
          + t_2^2 - V_0 t_1^2 - 3 t_1 t_3,

    grouped so that t_0 takes one full product.  t_1 = t_3 = 0 when V and W
    are even, and t_2 = 0 on thm1; a product with a zero factor returns at
    once.
    """
    ring = V.ring
    t0, t1, t2, t3, t4 = (XPoly._raw(ring, [c.coefficient(k) for c in coeffs]) for k in range(5))
    V0, V1, W0 = V.coefficient(0), V.coefficient(1), W.coefficient(0)
    return (
        t0 * (XPoly(ring, [-W0, 1]) * t0 + t1.scale(V1) + t2.scale(4 * V0) + t4.scale(12))
        + t2 * t2
        - (t1 * t1).scale(V0)
        - (t1 * t3).scale(3)
    )


def spectral_curve(Q: QPoly, V: XPoly, W: XPoly) -> SpectralCurve:
    """Evaluate F(z) from a closing polynomial Q given in full.

    Write E = 4 F for the right side of the module formula and R for
    ``residual_eq2(Q, V, W)``.  Differentiating E in x, the V' Q'^2,
    V Q' Q'', Q'' Q''' and Q' Q'''' terms cancel in pairs, which leaves

      dE/dx = 2 Q (Q''''' + 4 V Q''' + 6 V' Q'' + 2 Q' (2z - 2W + V'')
                   - 2 W' Q) = 2 Q R,

    so E is a first integral of the closure equation (Burchnall-Chaundy;
    Krichever-Novikov).  R = 0 proves exactly that E is free of x, and E
    then equals its value at x = 0, which needs only the x^0 .. x^4 part of
    Q (``_taylor_f``).  When R != 0, E = E(0) + Integral_0^x 2 Q R dx, and
    XDependenceError reports that x-polynomial for every z-power where it is
    not constant; this happens exactly when Q does not certify closure.
    ``solve_pair`` does not come here: it checks the closing conditions
    instead and reads F off the x-jets of Q.
    """
    ring = Q.ring
    V = V.lift(ring)
    W = W.lift(ring)
    R = residual_eq2(Q, V, W)
    F = _taylor_f(Q.coeffs, V, W)
    if not R.is_zero():
        raise XDependenceError({
            power: (slope * 2).antiderivative() + F.coefficient(power)._scale(4)
            for power, slope in enumerate((Q * R).coeffs)
            if slope
        })
    return SpectralCurve(ring, F.coeffs)


@dataclass(frozen=True)
class PairSolution:
    """Every stage of the closure decision for one (V, W, m).

    `curve` is computed by ``solve_pair``; Q, which no report prints, is
    assembled by ``assemble_q`` when it is first read.  Both are None when
    the chain cannot close.
    """

    chain: QChain
    system: ConstraintSystem
    outcome: SolveOutcome
    free_values: Mapping[str, RatLike]
    curve: SpectralCurve | None

    @cached_property
    def Q(self) -> QPoly | None:
        if not self.outcome.feasible:
            return None
        return assemble_q(self.chain, self.outcome, self.free_values)


def solve_pair(
    V: XPoly,
    W: XPoly,
    m: int,
    free_values: Mapping[str, RatLike] | None = None,
    prefix: QChain | None = None,
) -> PairSolution:
    """Build the chain to degree m, solve its closing conditions, and when
    they are feasible compute the spectral curve.

    The curve does not go through Q: ``closed_jets`` checks that the solved
    values satisfy every closing condition, which certifies closure, and
    returns the x^0 .. x^4 part of Q's coefficients, all that F reads.  Free
    constants are 0 unless free_values sets them; naming a constant that is
    not free raises ChainError.  `prefix`, a chain of an earlier solve of
    the same V and W, lends its sequence to build_qchain.
    """
    chain = build_qchain(V, W, m, prefix=prefix)
    system = extract_constraints(chain)
    outcome = solve_constants(system)
    free_values = dict(free_values or {})
    if not outcome.feasible:
        return PairSolution(chain, system, outcome, free_values, None)
    F = _taylor_f(closed_jets(chain, system, outcome, free_values), chain.V, chain.W)
    return PairSolution(chain, system, outcome, free_values, SpectralCurve(chain.V.ring, F.coeffs))


# -- singularity analysis in Q[params][z] ------------------------------------


def _lift_gcd(curve: SpectralCurve) -> tuple[ParamPoly, ParamPoly, ParamPoly]:
    """(f, f', gcd(f, f')), f = F times its denominators' lcm with z the last variable."""
    ring = curve.ring
    zname = "z_"
    while zname in ring:
        zname += "_"
    terms = {}
    for power, num in enumerate(_clear_denominators(ring, curve.coeffs)[0]):
        for exp, coeff in num.terms.items():
            terms[exp + (power,)] = coeff
    f = ParamPoly(ring.extend([zname]), terms)
    fp = _dz(f)
    return f, fp, mpoly_gcd(f, fp)


def _dz(p: ParamPoly) -> ParamPoly:
    return ParamPoly(
        p.ring,
        {exp[:-1] + (exp[-1] - 1,): exp[-1] * c for exp, c in p.terms.items() if exp[-1]},
    )


def _monic_coeffs(p: ParamPoly, ring: ParamRing) -> tuple[ParamScalar, ...]:
    """Ascending z-coefficients of p over `ring`, divided by the leading one."""
    parts: list[dict] = [{} for _ in range(_deg_in_idx(p, -1) + 1)]
    for exp, coeff in p.terms.items():
        parts[exp[-1]][exp[:-1]] = coeff
    polys = [ParamPoly(ring, terms) for terms in parts]
    return tuple(ParamScalar(c, polys[-1]) for c in polys)


def curve_is_singular(
    curve: SpectralCurve,
    bindings: Mapping[str, RatLike] | None = None,
) -> "SingularityReport":
    """Decide whether F has a repeated root after binding all parameters."""
    bindings = bindings or {}
    bound = curve.substitute_params(bindings) if bindings else curve
    unbound = sorted(bound.free_params())
    if unbound:
        raise UnboundParameterError(
            f"cannot decide singularity with unbound parameters: {', '.join(unbound)}"
        )
    g = _lift_gcd(bound)[2]
    if _deg_in_idx(g, -1) == 0:
        return SingularityReport(singular=False, witness=None)
    witness = tuple(c.numeric_value() for c in _monic_coeffs(g, bound.ring))
    return SingularityReport(singular=True, witness=witness)


@dataclass(frozen=True)
class SingularityReport:
    """Verdict plus, when singular, the monic gcd(F, F') in ascending coeffs."""

    singular: bool
    witness: tuple[int | Fraction, ...] | None


_P = (1 << 61) - 1  # a Mersenne prime


def _mod_p(poly: ParamPoly, point: Sequence[int]) -> int | None:
    """poly(point) mod p; None when a coefficient's denominator is divisible by p."""
    total = 0
    for exp, c in poly.terms.items():
        if type(c) is not int:
            if not c.denominator % _P:
                return None
            c = c.numerator * pow(c.denominator, -1, _P)
        total += c % _P * prod(map(pow, point, exp, repeat(_P)))
    return total % _P


def _rem_mod_p(a: list[int], b: list[int]) -> list[int]:
    """a mod b in F_p[z], ascending coefficients; b's last entry is nonzero."""
    a = a[:]
    n = len(b) - 1
    inverse = pow(b[-1], -1, _P)
    for top in range(len(a) - 1, n - 1, -1):
        q = a[top] * inverse % _P
        if q:
            for i in range(n + 1):
                a[top - n + i] = (a[top - n + i] - q * b[i]) % _P
    del a[n:]
    while a and not a[-1]:
        a.pop()
    return a


def _squarefree_mod_p(curve: SpectralCurve) -> bool:
    """True only when F is proved squarefree at the point (3, 5, 7, ...) mod p.

    Each coefficient num/den reduces to F_p when den does not vanish there
    and no rational denominator is divisible by p; the reduction is then a
    ring map, F(c) is monic of the same degree, and gcd(F(c), F'(c)) = 1
    means disc F(c) != 0 mod p, so disc F != 0.  False proves nothing.
    """
    if curve.degree >= _P:
        return False
    point = range(3, 2 * len(curve.ring) + 3, 2)
    f = []
    for c in curve.coeffs:
        num, den = _mod_p(c.num, point), _mod_p(c.den, point)
        if num is None or not den:
            return False
        f.append(num * pow(den, -1, _P) % _P)
    a, b = f, [k * c % _P for k, c in enumerate(f)][1:]
    while b:
        a, b = b, _rem_mod_p(a, b)
    return len(a) == 1


def curve_structure(curve: SpectralCurve) -> tuple[tuple[tuple[ParamScalar, ...], int], ...]:
    """Squarefree decomposition F = prod_i P_i^i over the parameter field.

    Returns ((coeffs_of_P_i, i), ...) for the nonconstant P_i, ascending in
    multiplicity; the decomposition is exact for the symbolic coefficients as
    given (specializing parameters can merge roots further).

    When F has parameters, ``_squarefree_mod_p`` first tries to prove it
    squarefree at one point modulo a prime, and a proof returns ((F, 1),),
    what Yun gives when gcd(F, F') is constant.  A check that fails proves
    nothing, and Yun's algorithm runs as it would without it.  Over Q the
    check is not tried (see the module docstring).
    """
    if curve.degree == 0:
        return ()
    if len(curve.ring) and _squarefree_mod_p(curve):
        return ((curve.coeffs, 1),)
    f, fp, a0 = _lift_gcd(curve)
    if _deg_in_idx(a0, -1) == 0:
        return ((curve.coeffs, 1),)
    b = f.exact_div(a0)
    c = fp.exact_div(a0)
    factors = []
    i = 1
    while _deg_in_idx(b, -1) > 0:
        d = c - _dz(b)
        a = mpoly_gcd(b, d)
        if _deg_in_idx(a, -1) > 0:
            factors.append((_monic_coeffs(a, curve.ring), i))
        b = b.exact_div(a)
        c = d.exact_div(a)
        i += 1
    return tuple(factors)
