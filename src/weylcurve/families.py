"""Named families of candidate operator pairs and their expected behavior.

Each family fixes a polynomial potential pair (V, W) with coefficients that
may stay symbolic or be bound to rationals:

  * ``thm1``: V = A6 x^6 + A2 x^2, W = 16 g (g+1) A6 x^4 (A6 != 0); closes at
    every degree m >= g.
  * ``thm2``: V = A4 x^4 + A2 x^2 + A0, W = 4 g (g+1) A4 x^2 (A4 != 0).
  * ``thm3``: V = A x^n, W = B x^k for n > 3 (A != 0); closure at some degree
    requires k = n - 2 and, for a degree-m chain, B = (n-2)^2 m (m+1) A;
    for n in {4, 6} that family extends to all higher degrees, for n = 5 only
    B = 18 A (m = 1) closes, and for n >= 7 no choice closes.
  * ``mironov_x3``: V = A3 x^3 + A2 x^2 + A1 x + A0, W = g (g+1) A3 x
    (A3 != 0).
  * ``dixmier_rank2`` / ``dixmier_rank3``: the two classical commuting pairs
    built from D^2 + x^3 + alpha and D^3 + x^2 + alpha.

``FAMILIES`` gives each kind's coefficient symbols and the shape keys it
takes; a spec with a key outside its kind's entry is refused.

Closed-form single-monomial images of the chain recursion are provided for
the first three families as independent oracles; they drop pure constants
(absorbed by the integration constant, matching the zero-constant
antiderivative used by the recursion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Sequence

from .scalars import ParamRing, ParamScalar, RatLike, _coerce_scalar
from .weyl import DiffOp, XPoly
from .curve import SpectralCurve, solve_pair

# The graded families: V's (power, symbol) terms in declaration order, and
# W = scale g (g+1) S x^power with S the first symbol, which must be nonzero.
_GRADED = {
    "thm1": (((6, "A6"), (2, "A2")), 16, 4),
    "thm2": (((4, "A4"), (2, "A2"), (0, "A0")), 4, 2),
    "mironov_x3": (((3, "A3"), (2, "A2"), (1, "A1"), (0, "A0")), 1, 1),
}


# What a named family takes: its coefficient symbols, in declaration order,
# and its shape keys.
Family = NamedTuple("Family", [("symbols", tuple), ("shape_keys", tuple)])


def _graded(kind: str) -> Family:
    return Family(tuple(name for _, name in _GRADED[kind][0]), ("g",))


FAMILIES = {
    "thm1": _graded("thm1"),
    "thm2": _graded("thm2"),
    "thm3": Family(("A",), ("n", "k", "m", "b_mult", "b_over_a")),
    "mironov_x3": _graded("mironov_x3"),
    "dixmier_rank2": Family(("alpha",), ()),
    "dixmier_rank3": Family(("alpha",), ()),
}
KINDS = tuple(FAMILIES)

# The coefficient symbols of all families together.
COEFFICIENT_SYMBOLS = frozenset(name for family in FAMILIES.values() for name in family.symbols)

# The classical commuting pairs, by family kind, with their rank.
PAIR_RANKS = {"dixmier_rank2": 2, "dixmier_rank3": 3}


class FamilySpecError(ValueError):
    """A family description is malformed or inconsistent."""


@dataclass
class FamilySpec:
    """A family kind plus its parameters.

    ``parameters`` holds the shape keys of the kind's ``FAMILIES`` entry (for
    thm3, give one of m, b_mult and b_over_a: m fixes B = (n-2)^2 m(m+1) A and
    b_mult is an alias for m) together with optional rational bindings for
    its coefficient symbols.  Unbound symbols stay symbolic.
    """

    kind: str
    parameters: dict = field(default_factory=dict)

    def symbol_bindings(self) -> dict[str, Fraction]:
        family = FAMILIES.get(self.kind)
        out = {}
        for name in family.symbols if family else ():
            if name in self.parameters:
                out[name] = Fraction(self.parameters[name])
        return out

    def shape(self, key: str, default=None):
        return self.parameters.get(key, default)


def _validate(spec: FamilySpec) -> None:
    if spec.kind not in FAMILIES:
        raise FamilySpecError(f"unknown family kind {spec.kind!r}; known: {', '.join(KINDS)}")
    family = FAMILIES[spec.kind]
    for key, value in spec.parameters.items():
        if key in family.symbols:
            continue
        if key not in family.shape_keys:
            raise FamilySpecError(f"family {spec.kind!r} does not accept parameter {key!r}")
        # b_over_a is a rational; every other shape key counts something
        if key != "b_over_a" and not isinstance(value, int):
            raise FamilySpecError(f"parameter {key!r} must be an integer, got {value!r}")


def _ring_for(spec: FamilySpec) -> tuple[ParamRing, dict[str, ParamScalar]]:
    """Ring containing the family's unbound symbols, plus a value per symbol."""
    bindings = spec.symbol_bindings()
    symbols = FAMILIES[spec.kind].symbols
    ring = ParamRing(tuple(n for n in symbols if n not in bindings))
    values = {}
    for name in symbols:
        if name in bindings:
            values[name] = ring.const(bindings[name])
        else:
            values[name] = ring.param(name)
    return ring, values


def _require_g(spec: FamilySpec) -> int:
    g = spec.shape("g")
    if not isinstance(g, int) or g < 1:
        raise FamilySpecError(f"family {spec.kind!r} needs an integer parameter g >= 1")
    return g


def _require_nonzero(spec: FamilySpec, name: str) -> None:
    bindings = spec.symbol_bindings()
    if name in bindings and bindings[name] == 0:
        raise FamilySpecError(f"family {spec.kind!r} needs {name} != 0")


def build_family(spec: FamilySpec) -> tuple[ParamRing, XPoly, XPoly]:
    """The potential pair (V, W) of a family; dixmier_rank3 has none."""
    _validate(spec)
    kind = spec.kind
    if kind in _GRADED:
        v_terms, scale, w_power = _GRADED[kind]
        lead = v_terms[0][1]
        g = _require_g(spec)
        _require_nonzero(spec, lead)
        ring, val = _ring_for(spec)
        V = XPoly.zero(ring)
        for power, name in v_terms:
            V = V + XPoly.monomial(ring, power, val[name])
        W = XPoly.monomial(ring, w_power, scale * g * (g + 1) * val[lead])
        return ring, V, W
    if kind == "thm3":
        n = spec.shape("n")
        if not isinstance(n, int) or n <= 3:
            raise FamilySpecError("family 'thm3' needs an integer parameter n > 3")
        _require_nonzero(spec, "A")
        ring, val = _ring_for(spec)
        a = val["A"]
        k = spec.shape("k", n - 2)
        if not isinstance(k, int) or k < 0:
            raise FamilySpecError("parameter k must be a nonnegative integer")
        if sum(key in spec.parameters for key in ("m", "b_mult", "b_over_a")) > 1:
            raise FamilySpecError("give at most one of m, b_mult and b_over_a")
        b_mult = spec.shape("m", spec.shape("b_mult"))
        b_over_a = spec.shape("b_over_a")
        if b_mult is not None:
            if b_mult < 1:
                raise FamilySpecError("m must be a positive integer")
            b = (n - 2) ** 2 * b_mult * (b_mult + 1) * a
        elif b_over_a is not None:
            b = Fraction(b_over_a) * a
        else:
            raise FamilySpecError("family 'thm3' needs m or b_over_a")
        V = XPoly.monomial(ring, n, a)
        W = XPoly.monomial(ring, k, b)
        return ring, V, W
    if kind == "dixmier_rank2":
        ring, val = _ring_for(spec)
        V = XPoly.monomial(ring, 3) + XPoly.const(ring, val["alpha"])
        W = XPoly.monomial(ring, 1, 2)
        return ring, V, W
    raise FamilySpecError(f"family {kind!r} has no (D^2+V)^2+W presentation")


# -- closed-form recursion images (oracles) ------------------------------------

# The ring parameter that stands for the integration constant of one rung.
STEP_CONSTANT = "C"


def _step_image(ring: ParamRing, terms) -> XPoly:
    """C plus the (power, coefficient) terms of positive power; C absorbs the rest."""
    out = XPoly.const(ring, ring.param(STEP_CONSTANT))
    for power, coeff in terms:
        if power >= 1 and not coeff.is_zero():
            out = out + XPoly.monomial(ring, power, coeff)
    return out


def thm1_monomial_step(ring: ParamRing, k: int, g: int, a6, a2) -> XPoly:
    """Image of x^(4k) under one chain rung for the x^6 family.

    x^(4k) -> C - k(4k-1)(4k-2)(4k-3) x^(4k-4) - 16 A2 k^2 x^(4k)
              + 8 A6 (2k+1)/(k+1) (g-k)(g+k+1) x^(4k+4),
    with pure constants folded into C.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    a6 = _coerce_scalar(ring, a6)
    a2 = _coerce_scalar(ring, a2)
    return _step_image(ring, [
        (4 * k - 4, ring.const(-k * (4 * k - 1) * (4 * k - 2) * (4 * k - 3))),
        (4 * k, -16 * k * k * a2),
        (4 * k + 4, 8 * Fraction(2 * k + 1, k + 1) * (g - k) * (g + k + 1) * a6),
    ])


def thm2_monomial_step(ring: ParamRing, k: int, g: int, a4, a2, a0) -> XPoly:
    """Image of x^(2k) under one chain rung for the x^4 family.

    x^(2k) -> C - k(2k-1)(k-1)(2k-3) x^(2k-4) - 2 A0 k(2k-1) x^(2k-2)
              - 4 A2 k^2 x^(2k) + 2 A4 (2k+1)/(k+1) (g-k)(g+k+1) x^(2k+2),
    with pure constants folded into C.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    a4 = _coerce_scalar(ring, a4)
    a2 = _coerce_scalar(ring, a2)
    a0 = _coerce_scalar(ring, a0)
    return _step_image(ring, [
        (2 * k - 4, ring.const(-k * (2 * k - 1) * (k - 1) * (2 * k - 3))),
        (2 * k - 2, -2 * k * (2 * k - 1) * a0),
        (2 * k, -4 * k * k * a2),
        (2 * k + 2, 2 * Fraction(2 * k + 1, k + 1) * (g - k) * (g + k + 1) * a4),
    ])


def thm3_monomial_step(ring: ParamRing, k: int, n: int, a, b) -> XPoly:
    """Image of x^k under one chain rung for V = A x^n, W = B x^(n-2).

    x^k -> C - 1/4 k(k-1)(k-2)(k-3) x^(k-4)
           + (n+2k-2)/(2(n+k-2)) (B - A k (n+k-2)) x^(n+k-2),
    with pure constants folded into C.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if n <= 3:
        raise ValueError("n must be > 3")
    a = _coerce_scalar(ring, a)
    b = _coerce_scalar(ring, b)
    low = Fraction(-k * (k - 1) * (k - 2) * (k - 3), 4)
    high = Fraction(n + 2 * k - 2, 2 * (n + k - 2)) * (b - k * (n + k - 2) * a)
    return _step_image(ring, [(k - 4, ring.const(low)), (n + k - 2, high)])


def thm3_admissible_B(n: int, a: RatLike, b: RatLike) -> int | None:
    """The m with B = (n-2)^2 m (m+1) A, or None when no positive integer fits."""
    if n <= 3:
        raise ValueError("n must be > 3")
    a = Fraction(a)
    b = Fraction(b)
    if a == 0:
        raise ValueError("A must be nonzero")
    q = b / ((n - 2) ** 2 * a)
    if q <= 0 or q.denominator != 1:
        return None
    disc = 1 + 4 * q.numerator
    root = isqrt(disc)
    if root * root != disc or (root - 1) % 2:
        return None
    m = (root - 1) // 2
    return m if m >= 1 else None


# -- the two classical pairs -----------------------------------------------------


def dixmier_pair(rank: int, alpha: RatLike | None = None) -> tuple[DiffOp, DiffOp]:
    """The classical commuting pair of the given rank (2 or 3).

    With P = D^2 + x^3 + alpha:   L = P^2 + 2x,
        M = P^3 + (3/2)(x P + P x) + ... written in normal form below;
    with R = D^3 + x^2 + alpha:   L = R^2 + 2D, M = R^3 + (3/2)(D R + R D).
    Both satisfy [L, M] = 0 and M^2 = L^3 - alpha.
    """
    ring = ParamRing(() if alpha is not None else ("alpha",))
    a = ring.const(alpha) if alpha is not None else ring.param("alpha")
    if rank == 2:
        P = DiffOp(ring, [XPoly.monomial(ring, 3) + XPoly.const(ring, a), 0, 1])
        L = P * P + DiffOp.from_xpoly(XPoly.monomial(ring, 1, 2))
        M = P**3 + DiffOp.from_xpoly(XPoly.monomial(ring, 1, 3)) * P + DiffOp.d(ring) * 3
        return L, M
    if rank == 3:
        R = DiffOp(ring, [XPoly.monomial(ring, 2) + XPoly.const(ring, a), 0, 0, 1])
        L = R * R + DiffOp.d(ring) * 2
        M = (
            R**3
            + DiffOp.d(ring, 4) * 3
            + DiffOp(ring, [0, XPoly.monomial(ring, 2) + XPoly.const(ring, a)]) * 3
            + DiffOp.from_xpoly(XPoly.monomial(ring, 1, 3))
        )
        return L, M
    raise FamilySpecError(f"no classical pair of rank {rank!r}")


def family_pair(spec: FamilySpec) -> tuple[DiffOp, DiffOp]:
    """The classical pair (L, M) of a spec whose kind is in PAIR_RANKS,
    after the spec is validated."""
    _validate(spec)
    return dixmier_pair(PAIR_RANKS[spec.kind], spec.parameters.get("alpha"))


# -- family-level verdicts ----------------------------------------------------------


def expected_feasible(spec: FamilySpec, degree: int) -> bool | None:
    """Whether the chain is expected to close at this degree; None = no claim."""
    kind = spec.kind
    if kind in _GRADED:
        return degree >= _require_g(spec)
    if kind == "thm3":
        n = spec.shape("n")
        k = spec.shape("k", n - 2)
        if k != n - 2:
            return False
        b_mult = spec.shape("m", spec.shape("b_mult"))
        if b_mult is None:
            b_over_a = Fraction(spec.shape("b_over_a"))
            b_mult = thm3_admissible_B(n, 1, b_over_a)
        if b_mult is None:
            return False
        if n in (4, 6):
            return degree >= b_mult
        if n == 5:
            return b_mult == 1
        return False
    return None


@dataclass(frozen=True)
class DegreeResult:
    """Outcome of attempting closure at one chain degree m."""

    degree: int
    status: str
    assignment: dict[str, str]
    free: tuple[str, ...]
    side_conditions: tuple[str, ...]
    curve: SpectralCurve | None
    expected: bool | None
    matches_expected: bool


@dataclass(frozen=True)
class FamilyVerdict:
    """Every checked degree (or identity) for a family, plus the verdict."""

    kind: str
    rows: tuple[DegreeResult, ...]
    identities: dict[str, bool] | None
    verified: bool


def attempt_degrees(
    V: XPoly, W: XPoly, claims: Sequence[tuple[int, bool | None]]
) -> tuple[DegreeResult, ...]:
    """Try closure of (V, W) at each (degree, expected) of `claims`, free
    constants set to 0; each chain extends the sequence of the one before.

    ``expected`` is the family's claim for the degree; None makes no claim,
    as for an explicit pair.
    """
    rows = []
    chain = None
    for degree, expected in claims:
        solution = solve_pair(V, W, degree, prefix=chain)
        chain = solution.chain
        outcome = solution.outcome
        rows.append(
            DegreeResult(
                degree=degree,
                status=outcome.status,
                assignment={k: str(v) for k, v in sorted(outcome.assignment.items())},
                free=outcome.free,
                side_conditions=tuple(str(p) for p in outcome.side_conditions),
                curve=solution.curve,
                expected=expected,
                matches_expected=expected is None or outcome.feasible == expected,
            )
        )
    return tuple(rows)


def probe_degrees(m: int | None, g_bound: int) -> list[int]:
    """The degrees a verdict probes: [m] if m is given, else 1..g_bound."""
    degrees = [m] if m is not None else list(range(1, g_bound + 1))
    if not degrees:
        raise FamilySpecError(f"g_bound {g_bound} leaves no degree to probe; it must be >= 1")
    return degrees


def run_family_verdict(
    spec: FamilySpec,
    m: int | None = None,
    g_bound: int = 4,
) -> FamilyVerdict:
    """Check a family against its expected closure behavior.

    For the g-indexed families a single degree is tried (m, defaulting to
    g); for the monomial family every degree 1..g_bound is tried unless m
    pins one.  The classical pairs are checked through their defining
    identities instead.
    """
    _validate(spec)
    if spec.kind in PAIR_RANKS:
        L, M = family_pair(spec)
        commutes = L.commutator(M).is_zero()
        ring = L.ring
        # the pair's own alpha: its ring's parameter, else the bound value
        a = ring.param("alpha") if "alpha" in ring.names else ring.const(spec.parameters["alpha"])
        gap = M * M - L**3 + DiffOp(ring, [XPoly.const(ring, a)])
        identities = {
            "commutes": commutes,
            "spectral_identity": gap.is_zero(),
        }
        return FamilyVerdict(
            kind=spec.kind,
            rows=(),
            identities=identities,
            verified=all(identities.values()),
        )
    if "g" in FAMILIES[spec.kind].shape_keys:
        degrees = [m if m is not None else _require_g(spec)]
    else:
        degrees = probe_degrees(m, g_bound)
    ring, V, W = build_family(spec)
    rows = attempt_degrees(V, W, [(d, expected_feasible(spec, d)) for d in degrees])
    return FamilyVerdict(
        kind=spec.kind,
        rows=rows,
        identities=None,
        verified=all(r.matches_expected for r in rows),
    )
