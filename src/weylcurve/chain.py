"""The order-reduction recursion for operators L = (D^2 + V)^2 + W.

L commutes with an operator of order 4m + 2 (of rank 2) exactly when there is
a polynomial Q = z^m + a_1 z^(m-1) + ... + a_m, with coefficients a_i
depending on x, satisfying

    Q''''' + 4 V Q''' + 6 V' Q'' + 2 Q' (2z - 2W + V'') - 2 Q W' = 0,

where primes are x-derivatives and z enters as a formal spectral variable.
Matching powers of z turns this into a chain: a_1 = W/2 + C_1 and

    a_{i+1} = 1/4 * Integral(-a_i''''' - 4 V a_i''' - 6 V' a_i''
                             - 2 a_i' V'' + 2 a_i W' + 4 a_i' W) dx + C_{i+1},

with integration constants C_i.  The chain closes iff a_{m+1} can be made
constant in x, which is an affine-linear condition on C_1 ... C_m.  This
module builds the chain, extracts that linear system, solves it exactly over
the parameter field, and reassembles Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .scalars import ParamPoly, ParamRing, ParamScalar, RatLike
from .weyl import XPoly, dense_add, dense_mul, xpoly_integrate


class ChainError(ValueError):
    """A structural problem while building or solving a chain."""


class QPoly:
    """Polynomial in the spectral variable z with XPoly coefficients."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: ParamRing, coeffs: Iterable = ()):
        cs = []
        for c in coeffs:
            if isinstance(c, XPoly):
                if c.ring != ring:
                    raise ValueError("mixed parameter rings in QPoly")
                cs.append(c)
            else:
                cs.append(XPoly.const(ring, c))
        while cs and cs[-1].is_zero():
            cs.pop()
        self.ring = ring
        self.coeffs = tuple(cs)

    @classmethod
    def from_xpoly(cls, p: XPoly) -> "QPoly":
        return cls(p.ring, [p])

    @classmethod
    def z(cls, ring: ParamRing) -> "QPoly":
        return cls(ring, [XPoly.zero(ring), XPoly.const(ring, 1)])

    @property
    def z_degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def coefficient(self, power: int) -> XPoly:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return XPoly.zero(self.ring)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _same_ring(self, other: "QPoly") -> None:
        if self.ring != other.ring:
            raise ValueError("mixed parameter rings in QPoly arithmetic")

    def __add__(self, other: "QPoly") -> "QPoly":
        self._same_ring(other)
        return QPoly(self.ring, dense_add(self.coeffs, other.coeffs))

    def __neg__(self) -> "QPoly":
        return QPoly(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        self._same_ring(other)
        return QPoly(self.ring, dense_mul(self.coeffs, other.coeffs, XPoly.zero(self.ring)))

    def scale_x(self, p) -> "QPoly":
        """Multiply every z-coefficient by an x-polynomial or scalar."""
        if not isinstance(p, XPoly):
            p = XPoly.const(self.ring, p)
        return QPoly(self.ring, [c * p for c in self.coeffs])

    def times_z(self) -> "QPoly":
        return QPoly(self.ring, (XPoly.zero(self.ring),) + self.coeffs)

    def dx(self, order: int = 1) -> "QPoly":
        """Derivative in x, coefficientwise."""
        return QPoly(self.ring, [c.derivative(order) for c in self.coeffs])

    def substitute_params(self, bindings: Mapping[str, "RatLike | ParamScalar"]) -> "QPoly":
        return QPoly(self.ring, [c.substitute_params(bindings) for c in self.coeffs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ring.names, self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coefficient(power)
            if c.is_zero():
                continue
            if power == 0:
                body = f"({c})"
            else:
                z_part = "z" if power == 1 else f"z^{power}"
                body = z_part if c == 1 else f"({c})*{z_part}"
            parts.append(body)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"QPoly({self})"


def recursion_step(a: XPoly, V: XPoly, W: XPoly, constant) -> XPoly:
    """One rung of the chain: a_i -> a_{i+1}.

    `constant` is the integration constant: a scalar-like value or the name
    of a ring parameter.  The antiderivative itself is taken with zero
    constant term, so the produced polynomial has `constant` as its exact
    x-free part whenever the integrand has no 1/x obstruction (the integrand
    of a closing chain never does).
    """
    integrand = (
        -a.derivative(5)
        - 4 * V * a.derivative(3)
        - 6 * V.derivative() * a.derivative(2)
        - 2 * a.derivative() * V.derivative(2)
        + 2 * a * W.derivative()
        + 4 * a.derivative() * W
    )
    return xpoly_integrate(integrand.scale(Fraction(1, 4)), constant)


@dataclass(frozen=True)
class QChain:
    """Chain a_1 ... a_{m+1} over a ring extended with constants C_1 ... C_{m+1}."""

    ring: ParamRing
    V: XPoly
    W: XPoly
    m: int
    constants: tuple[str, ...]
    entries: tuple[XPoly, ...]  # entries[i] = a_{i+1}, so entries has m+1 items

    def entry(self, i: int) -> XPoly:
        """a_i for 1 <= i <= m+1."""
        if not 1 <= i <= self.m + 1:
            raise ValueError(f"chain index {i} out of range 1..{self.m + 1}")
        return self.entries[i - 1]

    @property
    def closing_entry(self) -> XPoly:
        """a_{m+1}, whose x-dependence must vanish for L to commute."""
        return self.entries[-1]


def build_qchain(
    V: XPoly,
    W: XPoly,
    m: int,
    constant_prefix: str = "C",
) -> QChain:
    """Run the recursion m times starting from a_1 = W/2 + C_1.

    The parameter ring of V and W is extended with fresh constant names
    C_1 ... C_{m+1}; the prefix must not collide with existing parameters.
    """
    if V.ring != W.ring:
        raise ChainError("V and W must share a parameter ring")
    if m < 1:
        raise ChainError(f"chain length m must be >= 1, got {m}")
    constants = tuple(f"{constant_prefix}{i}" for i in range(1, m + 2))
    for name in constants:
        if name in V.ring:
            raise ChainError(f"constant name {name!r} collides with a ring parameter")
    ring = V.ring.extend(constants)
    V = V.lift(ring)
    W = W.lift(ring)
    entries = [W.scale(Fraction(1, 2)) + XPoly.const(ring, ring.param(constants[0]))]
    for i in range(1, m + 1):
        entries.append(recursion_step(entries[-1], V, W, constants[i]))
    return QChain(ring=ring, V=V, W=W, m=m, constants=constants, entries=tuple(entries))


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
    """Closing conditions for a chain, ordered by descending x-power."""

    ring: ParamRing
    unknowns: tuple[str, ...]  # C_1 ... C_m; C_{m+1} never appears
    equations: tuple[LinearEquation, ...]


def _affine_parts(
    value: ParamScalar, unknowns: Sequence[str]
) -> tuple[dict[str, ParamScalar], ParamScalar]:
    """Split a scalar into sum_j coeff_j * C_j + rest, requiring degree <= 1."""
    ring = value.ring
    idx = {ring.index(name): name for name in unknowns}
    for exp in value.den.terms:
        if any(exp[i] for i in idx):
            raise ChainError("integration constant appears in a denominator")
    coeffs: dict[str, dict] = {}
    const_terms: dict = {}
    for exp, c in value.num.terms.items():
        hits = [(i, exp[i]) for i in idx if exp[i]]
        if not hits:
            const_terms[exp] = c
            continue
        if len(hits) > 1 or hits[0][1] > 1:
            raise ChainError("closing condition is not affine in the constants")
        i = hits[0][0]
        stripped = exp[:i] + (0,) + exp[i + 1 :]
        coeffs.setdefault(idx[i], {})[stripped] = c
    den = value.den
    out = {
        name: ParamScalar(ParamPoly(ring, terms), den) for name, terms in coeffs.items()
    }
    rest = ParamScalar(ParamPoly(ring, const_terms), den)
    return out, rest


def extract_constraints(chain: QChain) -> ConstraintSystem:
    """Closing conditions: every positive x-power of a_{m+1} must vanish."""
    closing = chain.closing_entry
    unknowns = chain.constants[:-1]
    equations = []
    degree = closing.degree or 0
    for power in range(degree, 0, -1):
        c = closing.coefficient(power)
        if c.is_zero():
            continue
        coeffs, rest = _affine_parts(c, unknowns)
        ordered = tuple(
            (name, coeffs[name]) for name in unknowns if name in coeffs
        )
        equations.append(LinearEquation(power=power, coeffs=ordered, constant=rest))
    return ConstraintSystem(
        ring=chain.ring, unknowns=unknowns, equations=tuple(equations)
    )


@dataclass(frozen=True)
class SolveOutcome:
    """Result of eliminating the integration constants.

    status is "unique" when every unknown is pinned, "underdetermined" when
    some remain free, and "infeasible" when a condition has no solution.
    Side conditions are nonconstant parameter polynomials that were divided
    by along the way; the solution is valid wherever none of them vanish.
    """

    status: str
    assignment: dict[str, ParamScalar] = field(default_factory=dict)
    free: tuple[str, ...] = ()
    side_conditions: tuple[ParamPoly, ...] = ()
    witness: LinearEquation | None = None

    @property
    def feasible(self) -> bool:
        return self.status != "infeasible"


def solve_constants(system: ConstraintSystem) -> SolveOutcome:
    """Gaussian elimination over the parameter field, in equation order.

    Each equation is solved for the highest-index constant it still
    contains, mirroring the way the chain introduces a fresh constant per
    rung; earlier constants stay free unless a later equation pins them.
    """
    ring = system.ring
    order = {name: i for i, name in enumerate(system.unknowns)}
    assignment: dict[str, ParamScalar] = {}
    side: list[ParamPoly] = []

    def substitute_known(eq: LinearEquation) -> tuple[dict[str, ParamScalar], ParamScalar]:
        total = eq.constant
        live: dict[str, ParamScalar] = {}
        for name, c in eq.coeffs:
            if name in assignment:
                total = total + c * assignment[name]
            elif not c.is_zero():
                live[name] = c
        return live, total

    for eq in system.equations:
        live, rest = substitute_known(eq)
        live = {name: c for name, c in live.items() if not c.is_zero()}
        if not live:
            if rest.is_zero():
                continue  # redundant condition
            return SolveOutcome(
                status="infeasible",
                witness=LinearEquation(power=eq.power, coeffs=(), constant=rest),
            )
        pivot = max(live, key=lambda name: order[name])
        coeff = live.pop(pivot)
        if not coeff.num.is_constant():
            side.append(coeff.num.primitive())
        value = -rest / coeff
        for name, c in live.items():
            value = value - (c / coeff) * ring.param(name)
        assignment[pivot] = value

    # Back-substitute so pinned values only mention genuinely free constants.
    changed = True
    while changed:
        changed = False
        for name, value in assignment.items():
            updates = {
                other: assignment[other]
                for other in value.free_params()
                if other in assignment and other != name
            }
            if updates:
                assignment[name] = value.substitute(updates)
                changed = True

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
        free=free,
        side_conditions=tuple(seen),
    )


def assemble_q(
    chain: QChain,
    outcome: SolveOutcome,
    free_values: Mapping[str, RatLike] | None = None,
) -> QPoly:
    """Substitute the solved constants into the chain and build Q.

    Free constants default to 0 unless overridden.  The closing entry must
    become x-constant after substitution; anything else is a logic error.
    """
    if not outcome.feasible:
        raise ChainError("cannot assemble Q from an infeasible outcome")
    ring = chain.ring
    free_values = dict(free_values or {})
    for name in free_values:
        if name not in outcome.free:
            raise ChainError(f"{name!r} is not a free constant of this chain")
    bindings: dict[str, ParamScalar] = {}
    for name in outcome.free:
        bindings[name] = ring.const(free_values.get(name, 0))
    for name, value in outcome.assignment.items():
        bindings[name] = value.substitute(bindings) if bindings else value
    # The last constant shifts Q by a scalar; it stays a formal choice and we
    # take the canonical representative 0.
    bindings[chain.constants[-1]] = ring.const(0)
    coeffs = [XPoly.const(ring, 1)]
    for i in range(1, chain.m + 1):
        coeffs.append(chain.entry(i).substitute_params(bindings))
    closing = chain.closing_entry.substitute_params(bindings)
    if not closing.is_constant():
        raise ChainError("closing entry stayed x-dependent after substitution")
    q_coeffs = [XPoly.zero(ring)] * (chain.m + 1)
    for i, c in enumerate(coeffs):
        q_coeffs[chain.m - i] = c
    return QPoly(ring, q_coeffs)


def residual_eq2(Q: QPoly, V: XPoly, W: XPoly) -> QPoly:
    """Left side of the commutation identity; zero iff Q certifies closure.

    It is linear in Q = sum_k a_k z^k: the z^k coefficient is

        a_k''''' + 4 V a_k''' + 6 V' a_k'' + 2 (V'' - 2 W) a_k' - 2 W' a_k
        + 4 a_(k-1)',

    four x-products per coefficient against the sparse V and W terms.
    """
    ring = Q.ring
    V = V.lift(ring)
    W = W.lift(ring)
    four_v = V.scale(4)
    six_dv = V.derivative().scale(6)
    first = (V.derivative(2) - W.scale(2)).scale(2)
    zeroth = W.derivative().scale(-2)
    out = []
    below = XPoly.zero(ring)  # 4 a_(k-1)'
    for a in Q.coeffs + (XPoly.zero(ring),):
        d1 = a.derivative()
        d2 = d1.derivative()
        d3 = d2.derivative()
        out.append(
            d3.derivative(2) + four_v * d3 + six_dv * d2 + first * d1 + zeroth * a + below
        )
        below = d1.scale(4)
    return QPoly(ring, out)
