"""Shared helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction

from weylcurve import (
    DiffOp,
    FamilySpec,
    ParamRing,
    QPoly,
    SpectralCurve,
    XPoly,
    build_family,
    build_qchain,
    solve_pair,
)
from weylcurve.parsing import parse_xpoly


def family_chain(kind, params, m):
    """Chain of length m for a family's (V, W), constants left symbolic."""
    ring, V, W = build_family(FamilySpec(kind, params))
    return build_qchain(V, W, m)


def solved_family(kind, params, m, free_values=None):
    """(chain, outcome, Q, curve) for a family solved at target degree m.

    Free constants default to zero; Q and curve are None if the solve is
    infeasible.
    """
    ring, V, W = build_family(FamilySpec(kind, params))
    solution = solve_pair(V, W, m, free_values)
    return solution.chain, solution.outcome, solution.Q, solution.curve


def curve_from_report(report: dict) -> tuple[ParamRing, SpectralCurve]:
    """Rebuild the curve object a report describes (round-trip helper)."""
    block = report["result"]["curve"]
    ring = ParamRing(tuple(block["params"]))
    coeffs = [
        parse_xpoly(ring, text).constant_value()
        for text in reversed(block["z_coeffs_desc"])
    ]
    return ring, SpectralCurve(ring, tuple(coeffs))


def curve_equals(curve: SpectralCurve, coeffs) -> bool:
    """Coefficient-wise exact comparison against an ascending scalar list."""
    if len(curve.coeffs) != len(coeffs):
        return False
    return all(a == b for a, b in zip(curve.coeffs, coeffs))


def frac(value) -> Fraction:
    return Fraction(value)


# -- Q(x, z) helpers for reference computations ------------------------------


def q_z(ring: ParamRing) -> QPoly:
    """The spectral variable z as a QPoly."""
    return QPoly(ring, [XPoly.zero(ring), XPoly.const(ring, 1)])


def scale_x(Q: QPoly, p) -> QPoly:
    """Q with every z-coefficient multiplied by an x-polynomial or scalar."""
    if not isinstance(p, XPoly):
        p = XPoly.const(Q.ring, p)
    return QPoly(Q.ring, [c * p for c in Q.coeffs])


def times_z(Q: QPoly) -> QPoly:
    return QPoly(Q.ring, [XPoly.zero(Q.ring), *Q.coeffs])


def dx(Q: QPoly, order: int = 1) -> QPoly:
    """Derivative of Q in x, coefficientwise."""
    return QPoly(Q.ring, [c.derivative(order) for c in Q.coeffs])


def apply_reference(op: DiffOp, p: XPoly) -> XPoly:
    """sum_i c_i * p^(i) through XPoly derivative, product and sum: DiffOp.apply's reference."""
    out = XPoly.zero(op.ring)
    for i, c in enumerate(op.coeffs):
        if not c.is_zero():
            out = out + c * p.derivative(i)
    return out
