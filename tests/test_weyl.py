"""Operators with polynomial coefficients: composition, commutators, calculus."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcurve import (
    DiffOp,
    ExprError,
    FamilySpec,
    ParamPoly,
    ParamRing,
    QPoly,
    SpectralCurve,
    XPoly,
    build_family,
    build_square_form,
    dixmier_pair,
    parse_diffop,
    parse_xpoly,
    xpoly_integrate,
)

from support import apply_reference


def _xops(ring):
    return XPoly.x(ring), DiffOp.d(ring)


def test_xpoly_construction_and_queries():
    ring = ParamRing(("A6",))
    p = XPoly.monomial(ring, 4, ring.param("A6")) + XPoly.x(ring) - 3
    assert p.degree == 4
    assert p.coefficient(4) == ring.param("A6")
    assert p.coefficient(1) == 1
    assert p.coefficient(3) == 0
    assert XPoly.zero(ring).degree is None
    assert XPoly.const(ring, 5).constant_value() == 5
    assert p.free_params() == {"A6"}
    # products: a zero operand gives zero, another ring is refused, and a
    # subclass operand gives a plain XPoly
    zero = XPoly.zero(ring)
    assert (p * zero).is_zero() and (zero * p).is_zero() and (zero * zero).is_zero()
    with pytest.raises(ValueError, match="mixed parameter rings"):
        p * XPoly.x(ParamRing(("B",)))
    curve = SpectralCurve(ring, [ring.param("A6"), 0, 1])
    for product in (curve * p, p * curve):
        assert type(product) is XPoly and product == XPoly(ring, curve.coeffs) * p


def test_dense_containers_share_their_plumbing():
    ring, other = ParamRing(("A",)), ParamRing(("B",))
    p = XPoly(ring, [1, ring.param("A")])
    one = XPoly.const(ring, 1)
    cases = (
        (p, ring.zero(), other.param("B")),
        (DiffOp(ring, [p, 1]), XPoly.zero(ring), XPoly.x(other)),
        (QPoly(ring, [p, 1]), XPoly.zero(ring), XPoly.x(other)),
    )
    for value, zero, foreign in cases:
        cls = type(value)
        for index in (-1, len(value.coeffs), 9):
            past = value.coefficient(index)
            assert type(past) is type(zero) and past == zero
        assert value.lift(ring) is value
        assert value.lift(ring.extend(("C",))) != value
        assert cls.zero(ring) == cls(ring, [zero]) and not cls.zero(ring)
        with pytest.raises(ValueError, match="mixed parameter rings"):
            cls(ring, [1, foreign])
    # the trusted constructor and the coercing one agree on value and hash
    for built, raw in (
        (QPoly(ring, [p, 1]), QPoly._raw(ring, [p, one, XPoly.zero(ring)])),
        (DiffOp(ring, [0, p]), DiffOp._raw(ring, [XPoly.zero(ring), p])),
    ):
        assert built == raw and hash(built) == hash(raw)
    # an operand over another ring compares unequal instead of raising
    assert DiffOp.from_xpoly(p) != XPoly.x(other)
    assert p != other.param("B") and p != 1


@pytest.mark.parametrize("kind", ["ParamPoly", "ParamScalar", "XPoly", "DiffOp"])
def test_reflected_subtraction(kind):
    ring = ParamRing(("A",))
    a = ring.param("A")
    p = {
        "ParamPoly": ring.poly_param("A") + 3,
        "ParamScalar": (a + 3) / (a - 1),
        "XPoly": XPoly(ring, [3, a]),
        "DiffOp": DiffOp(ring, [XPoly.x(ring), a]),
    }[kind]
    for c in (1, Fraction(1, 2)):
        assert type(c - p) is type(p)
        assert c - p == -(p - c)


def test_xpoly_derivative_examples():
    ring, (_, V, W) = ParamRing(("A6", "A2")), build_family(FamilySpec("thm1", {"g": 1}))
    # W = 32 A6 x^4, so the fourth derivative is the constant 768 A6
    w4 = W.derivative(4)
    assert w4.is_constant()
    assert w4.constant_value() == 768 * W.ring.param("A6")
    assert W.derivative(5).is_zero()
    p = XPoly.x(ring) ** 3 - 2 * XPoly.x(ring)
    assert p.derivative() == 3 * XPoly.x(ring) ** 2 - 2


def test_xpoly_integrate():
    ring = ParamRing(("C2",))
    x = XPoly.x(ring)
    assert xpoly_integrate(4 * x**3) == x**4
    assert xpoly_integrate(4 * x**3, "C2") == x**4 + XPoly.const(ring, ring.param("C2"))
    assert xpoly_integrate(x, Fraction(1, 2)) == x**2 * Fraction(1, 2) + Fraction(1, 2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=5))
def test_derivative_inverts_antiderivative(coeffs):
    ring = ParamRing(())
    p = XPoly(ring, [Fraction(c) for c in coeffs])
    q = p.antiderivative()
    assert q.derivative() == p
    assert q.coefficient(0) == 0


SCALE_RING = ParamRing(("A",))
_A = SCALE_RING.param("A")


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.sampled_from((0, 1, -3, Fraction(2, 5), _A, 1 / _A, (_A - 1) / (_A + 2))), max_size=6
    ),
    st.integers(0, 6),
    st.one_of(st.integers(-4, 4), st.fractions(max_denominator=7)),
)
def test_rational_scaling_matches_scalar_products(coeffs, order, factor):
    # derivative, antiderivative and scale by a rational take one Fraction
    # product per term; the full scalar product is the reference
    p = XPoly(SCALE_RING, coeffs)
    want = p
    for _ in range(order):
        want = XPoly(SCALE_RING, [SCALE_RING.const(i) * c for i, c in enumerate(want.coeffs) if i])
    assert p.derivative(order) == want
    assert p.antiderivative() == XPoly(
        SCALE_RING, [0] + [c / SCALE_RING.const(i + 1) for i, c in enumerate(p.coeffs)]
    )
    assert p.scale(factor) == XPoly(SCALE_RING, [c * SCALE_RING.const(factor) for c in p.coeffs])
    op = DiffOp(SCALE_RING, [p, 1])
    assert op.scale(factor) == op.scale(SCALE_RING.const(factor)) == op * factor


def test_compose_basics():
    ring = ParamRing(())
    x, d = _xops(ring)
    X = DiffOp.from_xpoly(x)
    # D x = x D + 1
    assert d * X == X * d + 1
    # D^2 x^3 = x^3 D^2 + 6 x^2 D + 6 x
    lhs = d * d * DiffOp.from_xpoly(x**3)
    rhs = DiffOp(ring, [6 * x, 6 * x**2, x**3])
    assert lhs == rhs
    assert (d * d).commutator(DiffOp.from_xpoly(x**3)) == DiffOp(ring, [6 * x, 6 * x**2])


def test_operator_pow_and_apply():
    ring = ParamRing(())
    x, d = _xops(ring)
    s = d + DiffOp.from_xpoly(x)
    assert s**2 == DiffOp(ring, [x**2 + 1, 2 * x, XPoly.const(ring, 1)])
    assert s**0 == DiffOp.identity(ring)
    assert s**1 == s
    assert s**3 == s * s * s
    assert DiffOp.zero(ring) ** 0 == DiffOp.identity(ring)
    assert DiffOp.zero(ring) ** 1 == DiffOp.zero(ring)
    assert x**0 == 1 and x**1 == x and (x + 1) ** 5 == (x + 1) * (x + 1) ** 4
    L = d * d + DiffOp.from_xpoly(x)
    assert L.apply(x**2) == x**3 + 2


def test_commutator_with_self_is_zero():
    ring = ParamRing(("A2",))
    x, d = _xops(ring)
    L = d * d * d + DiffOp.from_xpoly(x**2 * ring.param("A2")) * d + 5
    assert L.commutator(L).is_zero()


def test_square_form_matches_composition():
    ring, V, W = build_family(FamilySpec("thm2", {"g": 2}))
    A = DiffOp.d(ring, 2) + DiffOp.from_xpoly(V)
    assert build_square_form(V, W) == A * A + DiffOp.from_xpoly(W)
    # explicit normal form: D^4 + 2V D^2 + 2V' D + (V'' + V^2 + W)
    op = build_square_form(V, W)
    assert op.coefficient(4) == XPoly.const(ring, 1)
    assert op.coefficient(3).is_zero()
    assert op.coefficient(2) == 2 * V
    assert op.coefficient(1) == 2 * V.derivative()
    assert op.coefficient(0) == V.derivative(2) + V * V + W


def test_dixmier_rank2_identities():
    L, M = dixmier_pair(2)
    ring = L.ring
    alpha = ring.param("alpha")
    assert (L.order, M.order) == (4, 6)
    assert L.commutator(M).is_zero()
    relation = M * M - L * L * L + DiffOp.identity(ring).scale(alpha)
    assert relation.is_zero()


def test_dixmier_rank3_identities():
    L, M = dixmier_pair(3, alpha=Fraction(2))
    assert (L.order, M.order) == (6, 9)
    assert L.commutator(M).is_zero()
    relation = M * M - L * L * L
    assert relation.order == 0
    assert relation.coefficient(0).constant_value() == -2


def test_dixmier_rejects_other_ranks():
    with pytest.raises(ValueError):
        dixmier_pair(4)


# -- randomized operator laws ----------------------------------------------------------

_RING = ParamRing(("A2", "B2"))
_Q = ParamRing(())
_A2, _B2 = _RING.param("A2"), _RING.param("B2")
# zero often, so operators stay sparse
_POLYNOMIAL = (0, 0, 0, 1, -2, Fraction(3, 2), _A2, _B2, _A2 * _B2 - 1)
# 1/(A2+1) and 1/A2 (which gives x/A2 and the like) make products clear denominators
_RATIONAL = _POLYNOMIAL + (1 / (_A2 + 1), 1 / _A2)


@st.composite
def xpolys(draw, max_degree=5, rational=True):
    pool = st.sampled_from(_RATIONAL if rational else _POLYNOMIAL)
    return XPoly(_RING, draw(st.lists(pool, max_size=max_degree + 1)))


@st.composite
def ops(draw):
    order = draw(st.integers(0, 4))
    rational = draw(st.booleans())
    return DiffOp(_RING, [draw(xpolys(rational=rational)) for _ in range(order + 1)])


@st.composite
def param_polys(draw):
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    coeffs = st.sampled_from((1, -2, Fraction(3, 2), Fraction(-1, 3)))
    return ParamPoly(_RING, draw(st.dictionaries(exps, coeffs, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        param_polys(),
        xpolys(max_degree=3),
        st.builds(lambda cs: DiffOp(_RING, cs), st.lists(xpolys(max_degree=2), max_size=3)),
    ),
    st.integers(0, 8),
)
def test_power_is_the_repeated_product(base, n):
    want = {
        ParamPoly: _RING.poly_one(),
        XPoly: XPoly.const(_RING, 1),
        DiffOp: DiffOp.identity(_RING),
    }[type(base)]
    for _ in range(n):
        want = want * base
    assert base**n == want


def _count_products(monkeypatch, cls) -> list:
    calls = []
    mul = cls.__mul__

    def counted(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(cls, "__mul__", counted)
    return calls


def test_polynomial_power_squares_up_to_its_top_bit(monkeypatch):
    p = ParamPoly(_RING, {(1, 0): 1, (0, 1): Fraction(3, 2), (0, 0): -1})
    x = XPoly(_RING, [-1, Fraction(3, 2), _A2])
    compositions = _count_products(monkeypatch, DiffOp)
    x_calls = _count_products(monkeypatch, XPoly)
    x8 = x**8
    assert len(x_calls) == 3 and x8 == naive_xpoly_mul(x**4, x**4)
    # x-polynomial products compose order-0 symbols without a DiffOp product
    assert x * x8 == naive_xpoly_mul(x, x8) and not compositions
    calls = _count_products(monkeypatch, ParamPoly)
    p8 = p**8
    assert len(calls) == 3  # p^2, p^4, p^8; no square past the top bit
    assert len(p8.terms) == 45


@pytest.mark.parametrize("n", range(7))
def test_operator_power_composes_one_factor_at_a_time(monkeypatch, n):
    ring = ParamRing(())
    op = DiffOp.d(ring) + 2 * XPoly.x(ring)
    calls = _count_products(monkeypatch, DiffOp)
    power = op**n
    assert len(calls) == max(n - 1, 0)
    assert power.order == n


def leibniz_compose(a: DiffOp, b: DiffOp) -> DiffOp:
    """Composition by (a D^i)(b D^j) = sum_k C(i,k) a b^(k) D^(i+j-k), on XPolys."""
    zero = XPoly.zero(a.ring)
    if a.is_zero() or b.is_zero():
        return DiffOp.zero(a.ring)
    out = [zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for j, bj in enumerate(b.coeffs):
        derivs = [bj]
        for i, ai in enumerate(a.coeffs):
            while len(derivs) <= i:
                derivs.append(derivs[-1].derivative())
            for k in range(i + 1):
                out[i + j - k] = out[i + j - k] + comb(i, k) * ai * derivs[k]
    return DiffOp(a.ring, out)


@settings(max_examples=60, deadline=None)
@given(ops(), ops())
def test_composition_matches_leibniz_reference(a, b):
    # the product is built through the trusted constructor, the reference not
    product, reference = a * b, leibniz_compose(a, b)
    assert product == reference and hash(product) == hash(reference)


def test_family_compositions_match_leibniz_reference():
    L, M = dixmier_pair(3)
    ring, V, W = build_family(FamilySpec("thm2", {"g": 2}))
    S = build_square_form(V, W)
    T = build_square_form(*build_family(FamilySpec("thm1", {"g": 1}))[1:])
    for a, b in ((L, M), (M, L), (L, L), (M, M), (S, S), (T, T), (S, DiffOp.d(ring, 3))):
        assert a * b == leibniz_compose(a, b)
    assert L**3 == leibniz_compose(leibniz_compose(L, L), L)
    # (D + 2x)^k on either side of D + 2x up to k = 18, and (D + 2x)^9 squared, whose
    # term pairs reach every k up to 9
    op = DiffOp.d(_Q) + 2 * XPoly.x(_Q)
    power = op
    for k in range(1, 19):
        assert power * op == leibniz_compose(power, op)
        assert op * power == leibniz_compose(op, power)
        if k == 9:
            assert power * power == leibniz_compose(power, power)
        power = power * op


@settings(max_examples=30, deadline=None)
@given(ops(), xpolys(), st.sampled_from((_RING.zero(), _A2, _A2 * _B2 - 1, 1 / (_A2 + 1))))
def test_left_multiplication_scales_or_composes(op, p, s):
    # a number or scalar on the left scales; an x-polynomial composes as an operator
    assert 2 * op == op.scale(2)
    assert Fraction(-3, 4) * op == op.scale(Fraction(-3, 4))
    assert s * op == op.scale(s)
    assert p * op == DiffOp.from_xpoly(p) * op


def naive_xpoly_mul(a: XPoly, b: XPoly) -> XPoly:
    """Coefficient-by-coefficient product with scalar arithmetic."""
    out = [a.ring.zero()] * (len(a.coeffs) + len(b.coeffs) - 1) if a and b else []
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] = out[i + j] + ca * cb
    return XPoly(a.ring, out)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(max_denominator=9), max_size=7),
    st.lists(st.fractions(max_denominator=9), max_size=7),
    xpolys(6),
    xpolys(6),
)
def test_xpoly_product_matches_naive(qa, qb, a, b):
    for p, r in ((XPoly(_Q, qa), XPoly(_Q, qb)), (a, b)):
        for product, reference in ((p * r, naive_xpoly_mul(p, r)), (p * p, naive_xpoly_mul(p, p))):
            assert product == reference and hash(product) == hash(reference)


@settings(max_examples=40, deadline=None)
@given(ops(), ops(), ops())
def test_composition_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(ops(), ops(), ops())
def test_commutator_jacobi(a, b, c):
    total = (
        a.commutator(b.commutator(c))
        + b.commutator(c.commutator(a))
        + c.commutator(a.commutator(b))
    )
    assert total.is_zero()


@st.composite
def q_ops(draw):
    rows = draw(st.lists(st.lists(st.fractions(max_denominator=9), max_size=6), max_size=5))
    return DiffOp(_Q, [XPoly(_Q, row) for row in rows])


@settings(max_examples=60, deadline=None)
@given(
    ops(),
    st.one_of(
        ops(), xpolys(), st.integers(-3, 3), st.sampled_from((_A2, _A2 * _B2 - 1, 1 / (_A2 + 1)))
    ),
    q_ops(),
    st.one_of(
        q_ops(), st.builds(lambda cs: XPoly(_Q, cs), st.lists(st.fractions(max_denominator=9)))
    ),
)
def test_commutator_is_the_difference_of_products(a, b, qa, qb):
    # over Q(A2, B2) with parameter denominators and over Q; an int, scalar or
    # x-polynomial operand is the operator it promotes to
    for x, y in ((a, b), (qa, qb)):
        bracket, reference = x.commutator(y), x * y - y * x
        assert bracket == reference and hash(bracket) == hash(reference)


def test_commutator_refuses_what_a_product_refuses():
    ring, other = ParamRing(("A",)), ParamRing(("B",))
    L = DiffOp.d(ring, 2) + XPoly.x(ring)
    for bad in ("D", 1.5):
        with pytest.raises(TypeError):
            L.commutator(bad)
    for foreign in (DiffOp.d(other), XPoly.x(other), other.param("B")):
        with pytest.raises(ValueError, match="mixed parameter rings"):
            L.commutator(foreign)


def test_named_commutators():
    S = build_square_form(*build_family(FamilySpec("thm1", {"g": 1}))[1:])
    for k in (2, 3):
        assert S.commutator(S**k).is_zero()
    L = DiffOp.d(_Q, 2) + XPoly.x(_Q) ** 2
    for k in (10, 14, 18):
        M = (DiffOp.d(_Q) + 2 * XPoly.x(_Q)) ** k
        bracket = L.commutator(M)
        assert bracket == L * M - M * L and not bracket.is_zero()


def test_commutator_builds_no_product(monkeypatch):
    L, M = dixmier_pair(3)
    calls = _count_products(monkeypatch, DiffOp)
    assert L.commutator(M).is_zero()
    assert DiffOp.d(L.ring).commutator(XPoly.x(L.ring)) == DiffOp.identity(L.ring)
    assert not calls


@settings(max_examples=60, deadline=None)
@given(
    ops(),
    xpolys(6),
    st.lists(st.fractions(max_denominator=9), max_size=6),
    st.lists(st.fractions(max_denominator=9), max_size=8),
)
def test_apply_matches_reference(op, p, qop, qp):
    # over Q(A2, B2) with rational coefficients and parameter denominators, and over Q
    rational_op = DiffOp(_Q, [XPoly(_Q, qop[i:]) for i in range(0, len(qop), 2)])
    for a, f in ((op, p), (rational_op, XPoly(_Q, qp))):
        applied, reference = a.apply(f), apply_reference(a, f)
        assert applied == reference and hash(applied) == hash(reference)
    assert op.apply(XPoly.zero(_RING)).is_zero() and DiffOp.zero(_RING).apply(p).is_zero()


@settings(max_examples=40, deadline=None)
@given(ops(), ops(), xpolys(6))
def test_apply_respects_composition(a, b, f):
    assert (a * b).apply(f) == a.apply(b.apply(f))


def test_parse_powers_and_exponent_cap():
    ring = ParamRing(("A",))
    x, d = _xops(ring)
    # an order-0 base is raised in x; the value matches repeated composition
    assert parse_xpoly(ring, "(x + 3)^32") == (x + 3) ** 32
    assert parse_diffop(ring, "(A*x - 1)^5") == DiffOp.from_xpoly(x.scale(ring.param("A")) - 1) ** 5
    assert parse_diffop(ring, "(D + x)^3") == (d + x) ** 3
    assert parse_xpoly(ring, "x^2^3") == x**8
    assert parse_xpoly(ring, "(0*x)^0") == 1
    assert parse_xpoly(ring, "x^10000").degree == 10000
    # the cap holds at every step of a tower, before any power is computed
    for text in ("x^10001", "x^2^14", "x^9^9^9", "x^0^9^9^9"):
        with pytest.raises(ExprError, match="exponent too large"):
            parse_xpoly(ring, text)
