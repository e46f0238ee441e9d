"""Exact parameter arithmetic: polynomials, gcds, and rational scalars."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcurve import (
    ParamPoly,
    ParamRing,
    ParamScalar,
    PoleError,
    Rat,
    mpoly_gcd,
    thm1_monomial_step,
)
from weylcurve import scalars as scalar_module
from weylcurve.curve import SpectralCurve, curve_structure
from weylcurve.parsing import parse_scalar
from weylcurve.weyl import DiffOp, XPoly


def ring2():
    return ParamRing(("A6", "A2"))


def test_rat_is_stdlib_fraction():
    assert Rat is Fraction
    assert Rat(6, 4) == Fraction(3, 2)


def test_ring_rejects_reserved_and_bad_names():
    for bad in ("x", "z", "D"):
        with pytest.raises(ValueError):
            ParamRing((bad,))
    with pytest.raises(ValueError):
        ParamRing(("A6", "A6"))
    with pytest.raises(ValueError):
        ParamRing(("not a name",))


def test_ring_extend_preserves_order():
    ring = ring2().extend(("C1", "C2"))
    assert ring.names == ("A6", "A2", "C1", "C2")
    assert ring.index("C1") == 2
    with pytest.raises(ValueError):
        ring.index("B")


def test_poly_arithmetic_examples():
    ring = ring2()
    a2 = ring.poly_param("A2")
    assert (a2 + 3) * (a2 - 3) == a2**2 - 9
    assert (a2 - 4) ** 2 == a2**2 - 8 * a2 + 16
    p = 2 * a2 + ring.poly_param("A6")
    assert p - p == ring.poly_zero()
    assert p * 0 == ring.poly_zero()
    assert (p * Fraction(1, 2)) * 2 == p


def test_poly_queries():
    ring = ring2()
    a6, a2 = ring.poly_param("A6"), ring.poly_param("A2")
    p = a6 * a2**2 + 5
    assert p.total_degree() == 3
    assert p.free_params() == {"A6", "A2"}
    assert ring.poly_zero().total_degree() == -1
    assert ring.poly_const(7).constant_value() == 7
    assert not p.is_constant()


def test_graded_lex_rendering():
    ring = ring2()
    a6, a2 = ring.poly_param("A6"), ring.poly_param("A2")
    # graded ordering: total degree first, then earlier names outrank later
    assert str(a2**2 + a6 + 1) == "A2^2 + A6 + 1"
    assert str(a6 * a2 - a2**2) == "A6*A2 - A2^2"
    assert str(-3 * a6) == "-3*A6"


def test_division_exact_and_inexact():
    ring = ring2()
    a6, a2 = ring.poly_param("A6"), ring.poly_param("A2")
    prod = (a6 + a2) * (a6 - 2)
    assert prod.try_div(a6 - 2) == a6 + a2
    assert prod.exact_div(a6 + a2) == a6 - 2
    assert (a6 + 1).try_div(a2) is None
    with pytest.raises(ValueError):
        (a6 + 1).exact_div(a2)


def test_division_needs_every_slot_of_the_divisor():
    # A^2 is the larger key but not a multiple of A*B: the guard bits tell
    ring = ParamRing(("A", "B"))
    a, b = ring.poly_param("A"), ring.poly_param("B")
    assert (a**2).try_div(a * b) is None
    assert (a * b**3 + a).try_div(b**2) is None
    assert (a**2 * b).try_div(a * b) == a


def test_gcd_examples():
    ring = ring2()
    a6, a2 = ring.poly_param("A6"), ring.poly_param("A2")
    assert mpoly_gcd(a2**2 - 256, a2 - 16) == a2 - 16
    assert mpoly_gcd(a6 + 1, a2 + 1).is_one()
    g = mpoly_gcd((a6 * a2 + a2) * (a6 - a2), (a6 * a2 + a2) * (a6 + 3))
    assert g == a6 * a2 + a2
    assert mpoly_gcd(ring.poly_zero(), ring.poly_zero()).is_zero()
    assert mpoly_gcd(ring.poly_zero(), 4 * a2) == a2  # primitive normalization


def test_content_and_primitive():
    ring = ring2()
    a6, a2 = ring.poly_param("A6"), ring.poly_param("A2")
    p = 6 * a6 * a2 - 9 * a2
    assert p.content_fraction() == 3
    assert p.primitive() == 2 * a6 * a2 - 3 * a2
    assert (-p).content_fraction() == -3  # sign follows the leading term
    assert (-p).primitive() == p.primitive()
    half = a6 * Fraction(1, 2) + a2 * Fraction(3, 4)
    assert half.primitive() == 2 * a6 + 3 * a2


def test_poly_substitute():
    ring = ring2()
    a6, a2 = ring.poly_param("A6"), ring.poly_param("A2")
    p = 3072 * a6 * a2
    assert p.substitute({"A6": 1, "A2": Fraction(1, 16)}) == 192
    full = (a2**2 * 256 + 192 * a6).substitute({"A2": 30, "A6": 1800})
    assert full == 576000
    partial = p.substitute({"A6": 2})
    assert partial == 6144 * a2.as_scalar()
    with pytest.raises(ValueError):
        p.substitute({"B": 1})


def test_scalar_normalization():
    ring = ring2()
    a6, a2 = ring.param("A6"), ring.param("A2")
    s = (a2**2 - 256) / (a2 - 16)
    assert s == a2 + 16  # common factor cancelled
    t = a6 / (2 * a6 * a2)
    assert str(t) == "(1/2)/(A2)"  # denominator kept primitive, positive leading
    assert (a6 / a2) * a2 == a6
    assert a6 / a6 == 1
    with pytest.raises(ZeroDivisionError):
        a6 / (a2 - a2)


def test_scalar_arithmetic_and_pow():
    ring = ring2()
    a6, a2 = ring.param("A6"), ring.param("A2")
    s = a6 / a2
    assert s + s == 2 * a6 / a2
    assert s * s == a6**2 / a2**2
    assert s ** (-2) == a2**2 / a6**2
    assert (1 + s) * a2 == a2 + a6
    assert ring.const(Fraction(3, 2)).numeric_value() == Fraction(3, 2)
    assert not s.is_numeric()


def test_scalar_substitute_and_pole():
    ring = ring2()
    s = ring.param("A6") / (ring.param("A2") - 16)
    assert s.substitute({"A6": 4, "A2": 18}) == 2
    with pytest.raises(PoleError):
        s.substitute({"A2": 16})
    # unbound names survive
    kept = s.substitute({"A6": 8})
    assert kept.free_params() == {"A2"}


def test_scalar_render_round_trip_samples():
    ring = ring2()
    a6, a2 = ring.param("A6"), ring.param("A2")
    samples = [
        a2**2 - 256,
        (a2**2 - 256) / (3 * a6),
        -a6 + Fraction(1, 3),
        (a6 * a2 + 1) / (a2 - 16),
        ring.const(Fraction(-7, 12)),
    ]
    for s in samples:
        assert parse_scalar(ring, str(s)) == s


# -- randomized algebra laws ---------------------------------------------------------

_RING = ParamRing(("A6", "A2"))


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exp = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
        terms[exp] = terms.get(exp, 0) + coeff
    return ParamPoly(_RING, terms)


@st.composite
def scalars(draw):
    num = draw(polys())
    den = draw(polys().filter(lambda p: not p.is_zero()))
    return num.as_scalar() / den.as_scalar()


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_poly_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + _RING.poly_zero() == p
    assert p * _RING.poly_one() == p


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_scalar_field_axioms(s, t):
    assert s + t == t + s
    assert s * t == t * s
    assert s - s == 0
    if not t.is_zero():
        assert (s / t) * t == s
        assert t / t == 1


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys().filter(lambda p: not p.is_constant()))
def test_sum_over_a_shared_denominator_matches_cross_multiplying(a, b, d):
    for c in (b, b * d - a):  # the second sum reduces to b: the shared d cancels
        s, t = ParamScalar(a, d), ParamScalar(c, d)
        crossed = ParamScalar(s.num * t.den + t.num * s.den, s.den * t.den)
        total = s + t
        assert (total.num, total.den) == (crossed.num, crossed.den)


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_scalar_canonical_form(s):
    # equal values share one representation: num/den already reduced
    g = mpoly_gcd(s.num, s.den)
    assert g.is_constant()
    assert s.den.content_fraction() in (0, 1) or s.den.is_one() or s.den.content_fraction() == 1
    assert ParamScalar(s.num, s.den) == s
    assert hash(ParamScalar(s.num, s.den)) == hash(s)


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_scalar_render_round_trip(s):
    assert parse_scalar(_RING, str(s)) == s


def _is_constant_by_scan(p):
    return all(not any(exp) for exp in p.terms)


def _substitute_by_terms(p, bindings):
    """Reference substitution: every term built as const * prod param^e."""
    ring = p.ring
    out = ring.zero()
    for exp, coeff in p.terms.items():
        term = ring.const(coeff)
        for name, e in zip(ring.names, exp):
            if e:
                base = bindings[name] if name in bindings else ring.param(name)
                term = term * base**e
        out = out + term
    return out


constant_polys = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(
    _RING.poly_const
)


@settings(max_examples=80, deadline=None)
@given(st.one_of(polys(), constant_polys, st.just(_RING.poly_one())))
def test_constant_and_one_match_a_full_scan(p):
    assert p.is_constant() == _is_constant_by_scan(p)
    assert p.is_one() == (_is_constant_by_scan(p) and p.constant_value() == 1)


def test_shared_unit():
    one = _RING.poly_one()
    assert one is _RING.poly_one() is _RING.one().den is _RING.param("A6").den
    # a 1 built another way still reads as one
    other = ParamPoly(_RING, {(0, 0): 1})
    assert other is not one and other.is_one() and other == one
    assert not ParamPoly(_RING, {(0, 0): 2}).is_one()
    # an equal ring that is another object still mixes
    twin = ParamRing(_RING.names)
    assert twin.param("A6") * _RING.param("A2") == _RING.param("A6") * _RING.param("A2")


@settings(max_examples=80, deadline=None)
@given(polys(), st.one_of(constant_polys, polys()))
def test_poly_product_matches_term_by_term(p, q):
    # a constant factor takes one Fraction product per term
    want = ParamPoly(
        _RING,
        [((ea[0] + eb[0], ea[1] + eb[1]), ca * cb)
         for ea, ca in p.terms.items() for eb, cb in q.terms.items()],
    )
    assert p * q == want
    assert q * p == want


_A6, _A2 = _RING.param("A6"), _RING.param("A2")

binding_values = st.one_of(
    st.integers(-2, 2),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.sampled_from([_A2 + 1, -_A6, _A6 / (_A2 - 1), 1 / _A2, _A6 * _A2]),
)


@st.composite
def partial_bindings(draw):
    names = draw(st.lists(st.sampled_from(_RING.names), unique=True))
    return {name: draw(binding_values) for name in names}


@settings(max_examples=80, deadline=None)
@given(polys(), partial_bindings())
def test_poly_substitute_matches_term_by_term(p, bindings):
    assert p.substitute(bindings) == _substitute_by_terms(p, bindings)


@st.composite
def scalars_and_bindings(draw):
    """A scalar and partial bindings; half the time the bindings set A2 = k
    under a denominator that vanishes there."""
    bindings = draw(partial_bindings())
    if draw(st.booleans()):
        return draw(scalars()), bindings
    k = draw(st.integers(-2, 2))
    bindings["A2"] = k
    den = draw(st.sampled_from([_A2 - k, (_A2 - k) * (_A6 + 1), _A6 * _A2 - k * _A6]))
    return draw(polys()).as_scalar() / den, bindings


@settings(max_examples=80, deadline=None)
@given(scalars_and_bindings())
def test_scalar_substitute_matches_term_by_term_or_poles(case):
    s, bindings = case
    num = _substitute_by_terms(s.num, bindings)
    den = _substitute_by_terms(s.den, bindings)
    if den.is_zero():
        with pytest.raises(PoleError):
            s.substitute(bindings)
    else:
        assert s.substitute(bindings) == num / den


# -- the multivariate gcd: GCDHEU checked by division, PRS as the fallback -------------

# z is reserved in the grammar; curve.py names the lifted z "z_" as well
_GCD_RING = ParamRing(("A", "B", "z_"))
_A, _B, _Z = (_GCD_RING.poly_param(name) for name in _GCD_RING.names)


@st.composite
def gcd_factors(draw, max_terms=3):
    """Rational coefficients of either sign; one term (maybe constant) at times."""
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exp = tuple(draw(st.integers(0, 2)) for _ in range(3))
        terms[exp] = Fraction(draw(st.integers(-12, 12).filter(bool)), draw(st.integers(1, 4)))
    return ParamPoly(_GCD_RING, terms)


@st.composite
def gcd_pairs(draw):
    """Two operands with a shared factor that has integer content and a power of z_."""
    shared = draw(gcd_factors()) * draw(st.integers(1, 12)) * _Z ** draw(st.integers(0, 3))
    a = draw(gcd_factors()) * shared
    b = draw(
        st.one_of(
            gcd_factors().map(lambda f: f * shared),
            gcd_factors(max_terms=1),
            st.integers(-6, 6).filter(bool).map(_GCD_RING.poly_const),
        )
    )
    return (a, -b) if draw(st.booleans()) else (a, b)


@settings(max_examples=60, deadline=None)
@given(gcd_pairs())
def test_gcd_matches_prs(pair):
    a, b = pair
    g = mpoly_gcd(a, b)
    assert g == scalar_module._gcd_rec(a, b).primitive()
    assert a.try_div(g) is not None and b.try_div(g) is not None
    assert mpoly_gcd(b, a) == g


@settings(max_examples=40, deadline=None)
@given(gcd_pairs())
def test_gcd_matches_sympy(pair):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("A B z_")

    def expr(p):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
            gens,
            domain="QQ",
        ).as_expr()

    a, b = pair
    ratio = sympy.cancel(expr(mpoly_gcd(a, b)) / sympy.gcd(expr(a), expr(b)))
    assert ratio.is_Rational and ratio != 0


def test_gcd_keeps_integer_content_of_the_evaluated_variable():
    # z_ -> xi turns a shared z_ into integer content one level down
    assert mpoly_gcd(_Z * (_A + 1 + _Z), _Z * (_B - _Z + 2)) == _Z
    assert mpoly_gcd(_Z**2 * (_A * _Z + 1), 3 * _Z * (_B + _Z)) == _Z
    assert mpoly_gcd(6 * _Z**2 * (_A - _Z), 4 * _Z**2 * (_A - _Z) * (_B + 1)) == _Z**2 * (_A - _Z)


def test_gcd_rejects_a_candidate_that_does_not_divide():
    # at xi = 6 the integer gcd of 8 and 4 rebuilds to z_ - 2, which does not divide z_ + 2
    assert mpoly_gcd(_Z + 2, _Z - 2).is_one()
    assert mpoly_gcd(_A * _Z + 2, _A * _Z - 2).is_one()


def test_gcd_with_a_single_term():
    assert mpoly_gcd(-3 * _A**2 * _Z, _A**3 * _B + 2 * _A * _Z**2) == _A
    assert mpoly_gcd(Fraction(1, 2) * _B, _A + 1).is_one()
    assert mpoly_gcd(_GCD_RING.poly_const(-4), _A * _Z).is_one()


def test_gcd_falls_back_to_prs_when_the_heuristic_gives_up(monkeypatch):
    pairs = [
        ((_A + _B) * (_Z - 3) * _Z, (_A + _B) * (_Z + _A) * 5),
        (_Z + 2, _Z - 2),
        ((_A * _Z - 1) ** 2, (_A * _Z - 1) * (_B * _Z + Fraction(1, 3))),
    ]
    expected = [mpoly_gcd(a, b) for a, b in pairs]
    prs = scalar_module._gcd_rec
    calls = []
    monkeypatch.setattr(scalar_module, "_HEU_TRIES", 0)
    monkeypatch.setattr(scalar_module, "_gcd_rec", lambda a, b: calls.append(1) or prs(a, b))
    assert [mpoly_gcd(a, b) for a, b in pairs] == expected
    assert calls


def _monic_from_roots(ring, roots):
    coeffs = [ring.one()]
    for r in roots:
        shifted = [ring.zero(), *coeffs]
        coeffs = [s - r * c for s, c in zip(shifted, [*coeffs, ring.zero()])]
    return SpectralCurve(ring, tuple(coeffs))


def test_structure_of_a_two_parameter_curve_with_a_double_root():
    # two parameters in the roots make the PRS remainders swell on this curve
    ring = ParamRing(("A", "B"))
    a, b = ring.param("A"), ring.param("B")
    curve = _monic_from_roots(ring, [-5, -5, 6, -2, a * b / (b - 2), -1 / a])
    structure = {mult: coeffs for coeffs, mult in curve_structure(curve)}
    assert set(structure) == {1, 2}
    assert structure[2] == (ring.const(5), ring.one())
    assert len(structure[1]) == 5


# -- the canonical coefficient: an int when integral, a Fraction otherwise ----------------


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/2"])
def test_const_rejects_a_float(bad):
    # Fraction(0.1) would store 3602879701896397/36028797018963968 without a word
    with pytest.raises(TypeError, match="cannot interpret"):
        ParamRing(["A"]).const(bad)
    with pytest.raises(TypeError, match="cannot interpret"):
        XPoly.const(ParamRing(["A"]), bad)


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/2"])
def test_poly_const_rejects_a_float(bad):
    with pytest.raises(TypeError, match="cannot interpret"):
        ParamRing(["A"]).poly_const(bad)


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/2"])
def test_poly_constructor_rejects_a_float(bad):
    with pytest.raises(TypeError, match="cannot interpret"):
        ParamPoly(ParamRing(["A"]), {(0,): bad})


# the ring of a monomial step; _A6, over the same names without the step's C, is foreign to it
_STEP_RING = ParamRing(["A6", "A2", "C"])
_STEP_A6 = _STEP_RING.param("A6")


@pytest.mark.parametrize(
    "call",
    [
        lambda: _STEP_A6 + _A6,
        lambda: _A6 * _STEP_A6,
        lambda: _STEP_A6 / _A6.num,
        lambda: DiffOp.d(_STEP_RING).scale(_A6),
        lambda: DiffOp.zero(_STEP_RING).scale(_A6),
        lambda: thm1_monomial_step(_STEP_RING, 1, 2, _A6, 1),
    ],
    ids=["add", "mul", "div-by-poly", "diffop-scale", "zero-diffop-scale", "thm1-step"],
)
def test_a_scalar_over_another_ring_is_refused(call):
    with pytest.raises(ValueError, match="mixed parameter rings"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: _STEP_A6 + 0.5,
        lambda: 0.5 - _STEP_A6,
        lambda: _STEP_A6 * 0.5,
        lambda: _STEP_A6 / 0.5,
        lambda: DiffOp.d(_STEP_RING).scale(0.5),
        lambda: DiffOp.zero(_STEP_RING).scale(0.5),
    ],
    ids=["add", "rsub", "mul", "div", "diffop-scale", "zero-diffop-scale"],
)
def test_a_float_is_refused(call):
    with pytest.raises(TypeError):
        call()


def test_integral_inputs_become_ints():
    ring = ParamRing(["A"])
    assert type(ring.const(Fraction(6, 3)).numeric_value()) is int
    assert type(ring.poly_const(True).constant_value()) is int
    p = ParamPoly(ring, [((1,), Fraction(1, 2)), ((1,), Fraction(1, 2)), ((0,), Fraction(4, 2))])
    assert p.terms == {(1,): 1, (0,): 2}
    assert all(type(c) is int for c in p.terms.values())


_QAB = ParamRing(("A", "B"))

coefficients = st.one_of(
    st.integers(-12, 12),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)),
)


@st.composite
def ab_polys(draw):
    """Polynomials over Q(A, B) with int and p/q coefficients."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exp = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        terms[exp] = terms.get(exp, 0) + draw(coefficients)
    return ParamPoly(_QAB, terms)


def _assert_canonical(*values):
    """Every coefficient in `values` is an int, or a Fraction that is not integral;
    a polynomial stores no zero coefficient."""
    for value in values:
        if isinstance(value, (XPoly, DiffOp)):
            _assert_canonical(*value.coeffs)
        elif isinstance(value, ParamScalar):
            _assert_canonical(value.num, value.den)
        elif isinstance(value, ParamPoly):
            assert all(value.terms.values()), value.terms
            _assert_canonical(*value.terms.values())
        else:
            assert type(value) is int or (type(value) is Fraction and value.denominator != 1), value


@settings(max_examples=80, deadline=None)
@given(ab_polys(), ab_polys(), ab_polys(), coefficients.filter(bool), st.integers(0, 3))
def test_every_source_keeps_coefficients_canonical(p, q, r, factor, power):
    _assert_canonical(p + q, p - q, p - p, p * q, p * factor, factor * q, p**power)
    _assert_canonical(p.primitive(), p.content_fraction(), mpoly_gcd(p * r, q * r))
    if q:
        _assert_canonical((p * q).exact_div(q), p.try_div(q) or 0)
    if p.is_constant():
        _assert_canonical(p.constant_value())
    s = p.as_scalar() / q.as_scalar() if q else p.as_scalar()
    t = r.as_scalar()
    _assert_canonical(s, s + t, s - t, s * t, s._scale(factor), s**power)
    if s:
        _assert_canonical(s ** -power, t / s)
    if s.is_numeric():
        _assert_canonical(s.numeric_value())
    _assert_canonical(p.substitute({"A": factor}), r.substitute({"A": t, "B": factor}))
    try:
        _assert_canonical(s.substitute({"B": factor}))
    except PoleError:
        pass
    x = XPoly(_QAB, [s, t, p.as_scalar()])
    y = XPoly(_QAB, [t, factor, s])
    _assert_canonical(x.derivative(), x.derivative(2), x.antiderivative(), x * y, x * x)
    _assert_canonical(DiffOp(_QAB, [x, y]) * DiffOp(_QAB, [y.antiderivative(), x, factor]))


# -- packed keys against a tuple-keyed reference -------------------------------------

_TOP = scalar_module.DEGREE_LIMIT - 1  # the largest total degree a polynomial may have


def _grlex(exp):
    return (sum(exp), exp)


def _nonzero(terms):
    return {e: c for e, c in terms.items() if c}


def _ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return _nonzero(out)


def _ref_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return _nonzero(out)


def _ref_div(p, q):
    """The exact quotient p / q by leading terms in graded lex order, or None."""
    rem, quot = dict(p), {}
    lead = max(q, key=_grlex)
    while rem:
        top = max(rem, key=_grlex)
        d = tuple(a - b for a, b in zip(top, lead))
        if any(e < 0 for e in d):
            return None
        c = Fraction(rem[top]) / q[lead]
        quot[d] = c
        rem = _ref_add(rem, {tuple(a + b for a, b in zip(d, e)): -c * v for e, v in q.items()})
    return quot


def _ref_str(names, p):
    parts = []
    for exp in sorted(p, key=_grlex, reverse=True):
        c = p[exp]
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exp) if e)
        body = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        sign = ("-" if c < 0 else "") if not parts else (" - " if c < 0 else " + ")
        parts.append(sign + body)
    return "".join(parts) or "0"


def _ref_substitute(names, p, values):
    out = {}
    for exp, c in p.items():
        for name, e in zip(names, exp):
            if name in values:
                c = c * values[name] ** e
        rest = tuple(0 if name in values else e for name, e in zip(names, exp))
        out[rest] = out.get(rest, 0) + c
    return _nonzero(out)


@st.composite
def packed_rings(draw):
    return ParamRing(("A", "B", "C", "E")[: draw(st.integers(0, 4))])


@st.composite
def tuple_terms(draw, ring, budget, max_terms=4):
    """A tuple-keyed term dict over ring: nonzero coefficients, each total degree
    at most budget, exponents either small or close to what the budget leaves."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp, left = [], budget
        for _ in ring.names:
            e = min(left, draw(st.one_of(st.integers(0, 3), st.integers(max(0, left - 3), left))))
            exp.append(e)
            left -= e
        exp = tuple(draw(st.permutations(exp))) if exp else ()
        terms[exp] = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 3)))
    return terms


@st.composite
def packed_cases(draw):
    ring = draw(packed_rings())
    return ring, draw(tuple_terms(ring, _TOP // 2)), draw(tuple_terms(ring, _TOP // 2))


@settings(max_examples=150, deadline=None)
@given(packed_cases())
def test_packed_kernels_match_a_tuple_keyed_reference(case):
    ring, p, q = case
    names = ring.names
    P, Q = ParamPoly(ring, p), ParamPoly(ring, q)
    assert dict(P.terms) == p
    assert dict((P * Q).terms) == _ref_mul(p, q)
    assert dict((P + Q).terms) == _ref_add(p, q)
    assert str(P) == _ref_str(names, p)
    assert P.total_degree() == max((sum(e) for e in p), default=-1)
    assert P.free_params() == {n for e in p for n, k in zip(names, e) if k}
    if p:
        lead = max(p, key=_grlex)
        assert P.leading() == (lead, p[lead])
    if q:
        assert (P * Q).try_div(Q) == P
        # a one-term divisor: every step clears one term, whatever the exponents
        mono = dict([next(iter(q.items()))])
        got = P.try_div(ParamPoly(ring, mono))
        assert (None if got is None else dict(got.terms)) == _ref_div(p, mono)
        low = tuple(map(min, zip(*(p.keys() | mono.keys())))) if names else ()
        want = ParamPoly(ring, {low: 1}) if any(low) else ring.poly_one()
        assert mpoly_gcd(P, ParamPoly(ring, mono)) == want
    # a lift that appends names shifts the keys; any other lift repacks them
    wide = ring.extend(["F", "G"])
    assert dict(P.lift(wide).terms) == {e + (0, 0): c for e, c in p.items()}
    turned = ParamRing(("G", *reversed(names)))
    assert dict(P.lift(turned).terms) == {(0, *reversed(e)): c for e, c in p.items()}
    values = dict(zip(names[::2], (0, 1, -1)))
    assert P.substitute(values) == ParamPoly(ring, _ref_substitute(names, p, values)).as_scalar()


@st.composite
def small_cases(draw):
    ring = draw(packed_rings())
    p, q, s = (draw(tuple_terms(ring, 3, max_terms=3)) for _ in range(3))
    return ring, p, q, s


@settings(max_examples=80, deadline=None)
@given(small_cases())
def test_packed_division_and_gcd_match_a_tuple_keyed_reference(case):
    ring, p, q, s = case
    P, Q, S = ParamPoly(ring, p), ParamPoly(ring, q), ParamPoly(ring, s)
    if q:
        got = P.try_div(Q)
        assert (None if got is None else dict(got.terms)) == _ref_div(p, q)
    a, b = dict((P * S).terms), dict((Q * S).terms)
    g = dict(mpoly_gcd(P * S, Q * S).terms)
    if g:
        assert _ref_div(a, g) is not None and _ref_div(b, g) is not None
    if s and g:
        assert _ref_div(g, s) is not None


def test_a_product_past_the_degree_bound_raises():
    limit = scalar_module.DEGREE_LIMIT
    ring = ParamRing(("A", "B"))
    top = ParamPoly(ring, {(limit - 1, 0): 1})  # the largest total degree there is
    assert top.total_degree() == limit - 1
    with pytest.raises(scalar_module.DegreeLimitError):
        top * ring.poly_param("B")
    half = ParamPoly(ring, {(0, limit // 2): 1, (1, 0): 1})
    with pytest.raises(scalar_module.DegreeLimitError):
        half * half
    with pytest.raises(scalar_module.DegreeLimitError):
        ParamPoly(ring, {(limit, 0): 1})
    with pytest.raises(scalar_module.DegreeLimitError):
        scalar_module._shift_var(top, 1, 1)
