"""The order-reduction recursion for operators L = (D^2 + V)^2 + W.

L commutes with an operator of order 4m + 2 (of rank 2) exactly when there is
a polynomial Q = z^m + a_1 z^(m-1) + ... + a_m, with coefficients a_i
depending on x, satisfying

    Q''''' + 4 V Q''' + 6 V' Q'' + 2 Q' (2z - 2W + V'') - 2 Q W' = 0,

where primes are x-derivatives and z enters as a formal spectral variable.
Its left side is E(Q) + 4 z Q' for the fifth-order operator

    E = D^5 + 4 V D^3 + 6 V' D^2 + 2 (V'' - 2W) D - 2 W',

so its z^k coefficient is R_k = E(q_k) + 4 q_(k-1)', q_k that of Q.
Matching powers of z turns this into a chain: a_1 = W/2 + C_1 and
a_{i+1} = T(a_i) + C_{i+1}, with integration constants C_i and the linear map

    T(a) = -1/4 * Integral E(a) dx   (zero constant term).

As T(1) = (W - W(0))/2, each a_i = u_{i-1} + sum_{j<=i} C_j v_{i-j} for one
sequence over the parameter ring, the stationary Lenard (Gelfand-Dickey)
recursion u_0 = W/2, u_{k+1} = T(u_k), and v_0 = 1, v_k = u_{k-1} - W(0)/2
v_{k-1} = T(v_{k-1}).  The chain closes iff a_{m+1} can be made constant in
x, and its x^p coefficient [x^p] u_m + sum_{j<=m} C_j [x^p] v_{m+1-j} is
linear in C_1 ... C_m.  So this module runs m rungs over the ring of V and W
alone, reads the linear system off the sequence, and solves it exactly over
the field of that ring in one Gauss-Jordan pass over affine forms in the
constants.  One closing check, ``_solved_values``, evaluates every condition
at the solved values, and both ways to Q's coefficients pass through it: the
spectral curve reads only x^0 .. x^4 of Q, which ``closed_jets`` returns,
and Q in full, a linear combination of the sequence, is assembled only on
request (``assemble_q``).  No coefficient of the system mentions a constant,
so the constants appear as ring variables only in the printed assignment,
where free ones remain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .scalars import ParamPoly, ParamRing, ParamScalar, RatLike
from .weyl import DiffOp, XPoly, _Dense, _xpoly_entry, dense_mul, xpoly_integrate


class ChainError(ValueError):
    """A structural problem while building or solving a chain."""


class QPoly(_Dense):
    """Polynomial in the spectral variable z with XPoly coefficients."""

    __slots__ = ()
    _entry = staticmethod(_xpoly_entry)

    @classmethod
    def from_xpoly(cls, p: XPoly) -> "QPoly":
        return cls(p.ring, [p])

    def __mul__(self, other: "QPoly") -> "QPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QPoly._raw(self.ring, dense_mul(self.coeffs, other.coeffs, XPoly.zero(self.ring)))

    @staticmethod
    def _term(c: XPoly, power: int) -> tuple[bool, str]:
        if power == 0:
            return False, f"({c})"
        z_part = "z" if power == 1 else f"z^{power}"
        return False, z_part if c == 1 else f"({c})*{z_part}"


def eq2_operator(V: XPoly, W: XPoly) -> DiffOp:
    """E = D^5 + 4V D^3 + 6V' D^2 + 2(V'' - 2W) D - 2W'; integral when V and W are."""
    return DiffOp._raw(V.ring, [
        W.derivative().scale(-2), (V.derivative(2) - W.scale(2)).scale(2),
        V.derivative().scale(6), V.scale(4), XPoly.zero(V.ring), XPoly.const(V.ring, 1),
    ])


def recursion_step(a: XPoly, V: XPoly, W: XPoly, constant, *, E: DiffOp | None = None) -> XPoly:
    """One rung of the chain: a_i -> a_{i+1} = T(a_i) + constant, T(a) = -1/4 Integral E(a) dx.

    `constant` is the integration constant: a scalar-like value or the name
    of a ring parameter.  The antiderivative itself is taken with zero
    constant term, so the produced polynomial has `constant` as its exact
    x-free part whenever the integrand has no 1/x obstruction (the integrand
    of a closing chain never does).  E is ``eq2_operator(V, W)``; a caller
    that runs many rungs on one (V, W) passes it in.
    """
    if E is None:
        E = eq2_operator(V, W)
    return xpoly_integrate(E.apply(a).scale(Fraction(-1, 4)), constant)


@dataclass(frozen=True)
class QChain:
    """Chain a_1 ... a_{m+1} of (V, W), held as the sequence it is built from.

    u = (u_0, ..., u_m) and v = (v_0, ..., v_m) live over the ring of V and
    W; `ring` extends it with the constants C_1 ... C_{m+1}.
    """

    ring: ParamRing
    V: XPoly
    W: XPoly
    m: int
    constants: tuple[str, ...]
    u: tuple[XPoly, ...]
    v: tuple[XPoly, ...]

    @cached_property
    def entries(self) -> tuple[XPoly, ...]:
        """(a_1, ..., a_{m+1}) over `ring`: a_i = u_{i-1} + sum_{j<=i} C_j v_{i-j}."""
        ring = self.ring
        u = [p.lift(ring) for p in self.u]
        v = [p.lift(ring) for p in self.v]
        cs = [ring.param(name) for name in self.constants]
        return tuple(_combine(u, v, cs, i) for i in range(1, self.m + 2))

    def entry(self, i: int) -> XPoly:
        """a_i for 1 <= i <= m+1."""
        if not 1 <= i <= self.m + 1:
            raise ValueError(f"chain index {i} out of range 1..{self.m + 1}")
        return self.entries[i - 1]


def _combine(u, v, cs, i: int) -> XPoly:
    """a_i = u_{i-1} + sum_{j<=i} c_j v_{i-j} for cs = (c_1, c_2, ...); zero c_j are skipped."""
    out = u[i - 1]
    for j in range(1, i + 1):
        if cs[j - 1]:
            out = out + v[i - j].scale(cs[j - 1])
    return out


def build_qchain(V: XPoly, W: XPoly, m: int, prefix: QChain | None = None) -> QChain:
    """Run the sequence u_0 = W/2, u_{k+1} = T(u_k) up to u_m.

    The chain's ring extends the parameter ring of V and W with fresh
    constant names C_1 ... C_{m+1}, which must not collide with existing
    parameters.  `prefix`, a chain built earlier from the same V and W,
    lends its sequence, so that only the rungs past its degree run.
    """
    if V.ring != W.ring:
        raise ChainError("V and W must share a parameter ring")
    if m < 1:
        raise ChainError(f"chain length m must be >= 1, got {m}")
    constants = tuple(f"C{i}" for i in range(1, m + 2))
    for name in constants:
        if name in V.ring:
            raise ChainError(f"constant name {name!r} collides with a ring parameter")
    if prefix is None:
        u, v = [W.scale(Fraction(1, 2))], [XPoly.const(V.ring, 1)]
    elif prefix.V != V or prefix.W != W:
        raise ChainError("the prefix chain was built from another (V, W)")
    else:
        u, v = list(prefix.u[: m + 1]), list(prefix.v[: m + 1])
    half_w0 = W.coefficient(0) / 2
    E = eq2_operator(V, W) if len(u) <= m else None  # built only when a rung runs
    while len(u) <= m:
        v.append(u[-1] - v[-1].scale(half_w0))
        u.append(recursion_step(u[-1], V, W, 0, E=E))
    ring = V.ring.extend(constants)
    return QChain(ring=ring, V=V, W=W, m=m, constants=constants, u=tuple(u), v=tuple(v))


@dataclass(frozen=True)
class LinearEquation:
    """One closing condition: sum_j coeff_j * C_j + constant = 0.

    `power` records which x-power of a_{m+1} produced it; equations are
    affine-linear in the integration constants by construction.
    """

    power: int
    coeffs: tuple[tuple[str, ParamScalar], ...]
    constant: ParamScalar

    def render(self) -> str:
        lhs = " + ".join(f"({c})*{name}" for name, c in self.coeffs)
        if not lhs:
            lhs = "0"
        if not self.constant.is_zero():
            lhs = f"{lhs} + ({self.constant})"
        return f"{lhs} = 0"


@dataclass(frozen=True)
class ConstraintSystem:
    """Closing conditions for a chain, ordered by descending x-power.

    The coefficients live over the ring of V and W.  `ring`, the chain's ring
    with the constants as variables, is only where the solved assignment is
    written, since a pinned constant may depend on free ones.
    """

    ring: ParamRing
    unknowns: tuple[str, ...]  # C_1 ... C_m; C_{m+1} never appears
    equations: tuple[LinearEquation, ...]


def extract_constraints(chain: QChain) -> ConstraintSystem:
    """Closing conditions: every positive x-power of a_{m+1} must vanish.

    The x^p coefficient of a_{m+1} is [x^p] u_m + sum_{j<=m} C_j [x^p] v_{m+1-j}.
    """
    m = chain.m
    unknowns = chain.constants[:-1]
    closing = chain.u[m]
    parts = [(name, chain.v[m + 1 - j]) for j, name in enumerate(unknowns, start=1)]
    equations = []
    for power in range(max(p.degree or 0 for p in (closing,) + chain.v), 0, -1):
        coeffs = tuple((name, p.coefficient(power)) for name, p in parts if p.coefficient(power))
        constant = closing.coefficient(power)
        if coeffs or constant:
            equations.append(LinearEquation(power=power, coeffs=coeffs, constant=constant))
    return ConstraintSystem(ring=chain.ring, unknowns=unknowns, equations=tuple(equations))


@dataclass(frozen=True)
class SolveOutcome:
    """Result of eliminating the integration constants.

    status is "unique" when every unknown is pinned, "underdetermined" when
    some remain free, and "infeasible" when a condition has no solution.
    Side conditions are nonconstant parameter polynomials that were divided
    by along the way; the solution is valid wherever none of them vanish.
    `assignment` writes each pinned constant over the system's ring; `forms`
    holds the same value as an affine form in the free constants, a dict
    from a free constant's name, or None for the constant part, to a nonzero
    coefficient over the ring of the equations.
    """

    status: str
    assignment: dict[str, ParamScalar] = field(default_factory=dict)
    forms: dict[str, dict[str | None, ParamScalar]] = field(default_factory=dict)
    free: tuple[str, ...] = ()
    side_conditions: tuple[ParamPoly, ...] = ()
    witness: LinearEquation | None = None

    @property
    def feasible(self) -> bool:
        return self.status != "infeasible"


def solve_constants(system: ConstraintSystem) -> SolveOutcome:
    """Gauss-Jordan elimination over the parameter field, in one pass.

    A pinned constant is held as an affine form in the free ones: a dict from
    a constant's name, or None for the constant part, to a scalar.  Each
    equation, with the pinned constants replaced by their forms, is solved for
    the highest-index constant left in it, mirroring the way the chain
    introduces a fresh constant per rung, and the new form replaces that
    constant in every earlier form.  Form coefficients come only from equation
    coefficients, so no denominator mentions a constant.
    """
    ring = system.ring
    order = {name: i for i, name in enumerate(system.unknowns)}
    forms: dict[str, dict[str | None, ParamScalar]] = {}
    side: list[ParamPoly] = []

    def add(form: dict, key: str | None, value: ParamScalar) -> None:
        if key in form:
            value = form[key] + value
        if value.is_zero():
            form.pop(key, None)
        else:
            form[key] = value

    for eq in system.equations:
        row: dict[str | None, ParamScalar] = {}
        add(row, None, eq.constant)
        for name, c in eq.coeffs:
            if name in forms:
                for key, value in forms[name].items():
                    add(row, key, c * value)
            else:
                add(row, name, c)
        live = [name for name in row if name is not None]
        if not live:
            if None not in row:
                continue  # redundant condition
            return SolveOutcome(
                status="infeasible",
                witness=LinearEquation(power=eq.power, coeffs=(), constant=row[None]),
            )
        pivot = max(live, key=lambda name: order[name])
        coeff = row.pop(pivot)
        if not coeff.num.is_constant():
            side.append(coeff.num.primitive())
        solved = {key: -value / coeff for key, value in row.items()}
        for form in forms.values():
            c = form.pop(pivot, None)
            if c is not None:
                for key, value in solved.items():
                    add(form, key, c * value)
        forms[pivot] = solved

    assignment = {
        name: sum((c.lift(ring) * ring.param(key) for key, c in form.items() if key is not None),
                  form.get(None, ring.zero()).lift(ring))
        for name, form in forms.items()
    }
    free = tuple(name for name in system.unknowns if name not in assignment)
    status = "unique" if not free else "underdetermined"
    # Reduce the side conditions: a pivot coefficient that is a product of
    # already-kept conditions (e.g. A6^3 once A6 is listed) cuts out the same
    # locus, so divide kept factors out and drop anything that reduces to a
    # constant.  Lowest total degree first so irreducible factors land first.
    seen: list[ParamPoly] = []
    for p in sorted(side, key=lambda q: (q.total_degree(), str(q))):
        for q in seen:
            while True:
                reduced = p.try_div(q)
                if reduced is None:
                    break
                p = reduced
        if not p.is_constant():
            seen.append(p.primitive())
    return SolveOutcome(
        status=status,
        assignment=assignment,
        forms=forms,
        free=free,
        side_conditions=tuple(seen),
    )


def _solved_values(
    system: ConstraintSystem,
    outcome: SolveOutcome,
    free_values: Mapping[str, RatLike] | None,
) -> list:
    """The values c_1 ... c_{m+1} of the constants, checked to close the chain.

    A free constant takes its value in free_values (default 0), a pinned one
    its form at those values, and C_{m+1}, which only shifts Q by a scalar,
    the canonical representative 0.  This is the one closing check: every
    condition of `system` is evaluated at the values, over the ring of V and
    W, and a nonzero one raises ChainError.  It is the whole certificate:
    a_{m+1} is x-free iff every condition holds, and then the residual of Q
    vanishes by the telescoping argument of the module docstring.
    """
    if not outcome.feasible:
        raise ChainError("cannot assemble Q from an infeasible outcome")
    free_values = dict(free_values or {})
    for name in free_values:
        if name not in outcome.free:
            raise ChainError(f"{name!r} is not a free constant of this chain")
    values = {name: free_values.get(name, 0) for name in system.unknowns}
    for name, form in outcome.forms.items():
        values[name] = sum((c._scale(free_values[key]) for key, c in form.items()
                            if free_values.get(key)), form.get(None, 0))
    for eq in system.equations:
        total = eq.constant
        for name, c in eq.coeffs:
            if values[name]:
                total = total + c * values[name]
        if total:
            raise ChainError("closing entry stayed x-dependent after substitution")
    return list(values.values()) + [0]


def _q_coeffs(chain: QChain, values: list, top: int | None = None) -> list[XPoly]:
    """The z-coefficients a_m, ..., a_1, 1 of Q at the values c_j; with `top`,
    u and v, and so each a_i, are cut to x^0 .. x^(top - 1)."""
    ring = chain.V.ring
    u, v = ([XPoly._raw(ring, list(p.coeffs[:top])) for p in seq] for seq in (chain.u, chain.v))
    return [_combine(u, v, values, i) for i in range(chain.m, 0, -1)] + [XPoly.const(ring, 1)]


def assemble_q(
    chain: QChain,
    outcome: SolveOutcome,
    free_values: Mapping[str, RatLike] | None = None,
) -> QPoly:
    """Build Q over the ring of V and W from the solved constants.

    Free constants default to 0 unless overridden.  With the values c_j,
    a_i = u_{i-1} + sum_{j<=i} c_j v_{i-j}, once the closing check of
    ``_solved_values`` passes on the chain's conditions.
    """
    values = _solved_values(extract_constraints(chain), outcome, free_values)
    return QPoly._raw(chain.V.ring, _q_coeffs(chain, values))


def closed_jets(
    chain: QChain,
    system: ConstraintSystem,
    outcome: SolveOutcome,
    free_values: Mapping[str, RatLike] | None = None,
) -> tuple[XPoly, ...]:
    """The z-coefficients a_m, ..., a_1, 1 of Q cut to x^0 .. x^4, once the
    solved values pass the closing check of ``_solved_values``.

    The x^0 .. x^4 part of a_i takes only that part of u and v.
    """
    return tuple(_q_coeffs(chain, _solved_values(system, outcome, free_values), 5))


def residual_eq2(Q: QPoly, V: XPoly, W: XPoly) -> QPoly:
    """Left side of the commutation identity; zero iff Q certifies closure.

    It is linear in Q = sum_k a_k z^k: the z^k coefficient is

        R_k = E(a_k) + 4 a_(k-1)',   E = ``eq2_operator(V, W)``,

    with E built once and applied to each a_k by ``DiffOp.apply``.
    """
    ring = Q.ring
    E = eq2_operator(V.lift(ring), W.lift(ring))
    a = (XPoly.zero(ring),) + Q.coeffs + (XPoly.zero(ring),)  # a_(-1) = 0 and a_(m+1) = 0
    return QPoly._raw(ring, [E.apply(hi) + lo.derivative().scale(4) for lo, hi in zip(a, a[1:])])
