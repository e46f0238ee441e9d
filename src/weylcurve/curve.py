"""Hyperelliptic spectral curves w^2 = F(z) attached to a certified pair.

For L = (D^2 + V)^2 + W and a closing polynomial Q of degree m in z, the
commuting operator M of order 4m + 2 satisfies M^2 = F(L) with

  4 F(z) = 4 (z - W) Q^2 - 4 V (Q')^2 + (Q'')^2 - 2 Q' Q'''
           + 2 Q (2 V' Q' + 4 V Q'' + Q''''),

primes denoting x-derivatives.  When Q certifies closure the right side is
constant in x and F is monic of degree 2m + 1, the defining polynomial of a
genus <= m hyperelliptic curve.

The x-derivative of the right side is 2 Q R with R the closure residual
``residual_eq2(Q, V, W)``, so F is evaluated exactly by checking R = 0 and
then reading the formula off at x = 0; the expansion in x is never built.
F is a ``SpectralCurve``: an ``XPoly`` whose variable is z, so the formula
at x = 0 is plain XPoly arithmetic in z.
The module also decides singularity (a repeated root of F) and splits off
repeated factors.  Both singularity questions clear F of parameter
denominators and treat z as one more ring variable, so they run on
``mpoly_gcd`` and exact division alone: Yun's squarefree algorithm in
Q[params][z], with factors made monic over Q(params) at the end.  Those gcds
are heuristic ones (GCDHEU) accepted only after exact division, so they stay
fast with several parameters.
``solve_pair`` runs the whole decision for one (V, W, m), from the chain
to F.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
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


def spectral_curve(Q: QPoly, V: XPoly, W: XPoly) -> SpectralCurve:
    """Evaluate F(z) from a closing polynomial Q.

    Write E = 4 F for the right side of the module formula and R for
    ``residual_eq2(Q, V, W)``.  Differentiating E in x, the V' Q'^2,
    V Q' Q'', Q'' Q''' and Q' Q'''' terms cancel in pairs, which leaves

      dE/dx = 2 Q (Q''''' + 4 V Q''' + 6 V' Q'' + 2 Q' (2z - 2W + V'')
                   - 2 W' Q) = 2 Q R,

    so E is a first integral of the closure equation (Burchnall-Chaundy;
    Krichever-Novikov).  R = 0 proves exactly that E is free of x, and E
    then equals its value at x = 0.  With the z-polynomials Q_k = Q^(k)(0)
    and V_0 = V(0), V_1 = V'(0), W_0 = W(0),

      E(0) = 4 (z - W_0) Q_0^2 - 4 V_0 Q_1^2 + Q_2^2 - 2 Q_1 Q_3
             + 2 Q_0 (2 V_1 Q_1 + 4 V_0 Q_2 + Q_4),

    six XPoly products in z instead of the full expansion in x; the squares
    Q_0^2, Q_1^2 and Q_2^2 take the product kernel's square path.
    When R != 0, E = E(0) + Integral_0^x 2 Q R dx, and XDependenceError
    reports that x-polynomial for every z-power where it is not constant;
    this happens exactly when Q does not certify closure.
    """
    ring = Q.ring
    V = V.lift(ring)
    W = W.lift(ring)
    R = residual_eq2(Q, V, W)
    q0, q1, q2, q3, q4 = (
        XPoly(ring, [c.coefficient(k) * factorial(k) for c in Q.coeffs]) for k in range(5)
    )
    V0, V1, W0 = V.coefficient(0), V.coefficient(1), W.coefficient(0)
    four_f = (
        (q0 * q0 * XPoly(ring, [-W0, 1])).scale(4)
        - (q1 * q1).scale(4 * V0)
        + q2 * q2
        - (q1 * q3).scale(2)
        + (q0 * (q1.scale(2 * V1) + q2.scale(4 * V0) + q4)).scale(2)
    )
    if not R.is_zero():
        raise XDependenceError({
            power: (slope * 2).antiderivative() + four_f.coefficient(power)
            for power, slope in enumerate((Q * R).coeffs)
            if slope
        })
    return SpectralCurve(ring, four_f.scale(Fraction(1, 4)).coeffs)


@dataclass(frozen=True)
class PairSolution:
    """Every stage of the closure decision for one (V, W, m).

    Q and curve are None when the chain cannot close.
    """

    chain: QChain
    system: ConstraintSystem
    outcome: SolveOutcome
    Q: QPoly | None
    curve: SpectralCurve | None


def solve_pair(
    V: XPoly,
    W: XPoly,
    m: int,
    free_values: Mapping[str, RatLike] | None = None,
    prefix: QChain | None = None,
) -> PairSolution:
    """Build the chain to degree m, solve its closing conditions, and when
    they are feasible assemble Q and the spectral curve.

    Free constants are 0 unless free_values sets them; naming a constant
    that is not free raises ChainError.  `prefix`, a chain of an earlier
    solve of the same V and W, lends its sequence to build_qchain.
    """
    chain = build_qchain(V, W, m, prefix=prefix)
    system = extract_constraints(chain)
    outcome = solve_constants(system)
    if not outcome.feasible:
        return PairSolution(chain, system, outcome, None, None)
    Q = assemble_q(chain, outcome, free_values)
    return PairSolution(chain, system, outcome, Q, spectral_curve(Q, chain.V, chain.W))


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


def curve_structure(curve: SpectralCurve) -> tuple[tuple[tuple[ParamScalar, ...], int], ...]:
    """Squarefree decomposition F = prod_i P_i^i over the parameter field.

    Returns ((coeffs_of_P_i, i), ...) for the nonconstant P_i, ascending in
    multiplicity; the decomposition is exact for the symbolic coefficients as
    given (specializing parameters can merge roots further).
    """
    if curve.degree == 0:
        return ()
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
