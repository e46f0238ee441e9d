"""Spectral curves: construction, singularity detection, squarefree structure."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcurve import (
    FamilySpec,
    ParamRing,
    SpectralCurve,
    UnboundParameterError,
    XDependenceError,
    XPoly,
    assemble_q,
    build_family,
    curve_is_singular,
    curve_structure,
    render_zpoly,
    residual_eq2,
    solve_pair,
    spectral_curve,
)
from weylcurve import curve as curve_module
from weylcurve import scalars as scalar_module
from weylcurve.chain import QPoly
from weylcurve.weyl import dense_mul

from support import dx, q_z, scale_x, solved_family, times_z


def numeric_curve(*ascending) -> SpectralCurve:
    ring = ParamRing(())
    return SpectralCurve(ring, tuple(ring.const(c) for c in ascending))


def test_order_zero_q_gives_line():
    ring = ParamRing(())
    Q = QPoly.from_xpoly(XPoly.const(ring, 1))
    curve = spectral_curve(Q, XPoly.x(ring) ** 2, XPoly.const(ring, 5))
    assert curve.degree == 1
    assert curve.coeffs == (ring.const(-5), ring.one())
    assert curve.genus_bound == 0


def test_curve_is_monic_of_odd_degree():
    for kind, params, m in [
        ("thm1", {"g": 1}, 1),
        ("thm1", {"g": 1}, 2),
        ("thm2", {"g": 2}, 2),
        ("mironov_x3", {"g": 1}, 1),
    ]:
        _, _, _, curve = solved_family(kind, params, m)
        assert curve.degree == 2 * m + 1
        assert curve.genus_bound == m
        assert curve.coeffs[-1].is_one()


def test_monic_constraint_enforced():
    ring = ParamRing(())
    with pytest.raises(ValueError):
        SpectralCurve(ring, (ring.one(), ring.const(2)))


def test_spectral_curve_is_a_checked_xpoly():
    _, _, _, curve = solved_family("thm1", {"g": 1}, 1)
    _, _, _, again = solved_family("thm1", {"g": 1}, 1)
    ring = curve.ring
    assert isinstance(curve, XPoly)
    assert curve.degree == 3 and curve.genus_bound == 1
    assert curve.coefficient(4) == ring.zero()
    assert curve.free_params() == frozenset({"A2", "A6"})
    assert curve == again and hash(curve) == hash(again)
    # inherited arithmetic need not stay monic, so it yields a plain XPoly
    for value in (curve - curve, -curve, curve * curve, curve.scale(2)):
        assert type(value) is XPoly
    assert (curve - curve).is_zero()
    bound = curve.substitute_params({"A2": 1, "A6": 2})
    assert type(bound) is SpectralCurve and bound.coeffs[-1].is_one()
    assert str(bound) == "z^3 + (32)*z^2 + (640)*z + 6144"


def test_x_dependence_is_an_error_with_offenders():
    ring = ParamRing(())
    V = XPoly.zero(ring)
    Q = q_z(ring) + QPoly.from_xpoly(XPoly.x(ring))  # does not certify closure
    with pytest.raises(XDependenceError) as err:
        spectral_curve(Q, V, V)
    assert err.value.offenders  # the non-constant z-coefficients are reported
    assert any(not p.is_constant() for p in err.value.offenders.values())


def full_expansion(Q: QPoly, V: XPoly, W: XPoly) -> QPoly:
    """4 F with every x-power kept: the module formula expanded in full."""
    ring = Q.ring
    V, W = V.lift(ring), W.lift(ring)
    q1, q2, q3, q4 = dx(Q), dx(Q, 2), dx(Q, 3), dx(Q, 4)
    return (
        scale_x((times_z(Q) - scale_x(Q, W)) * Q, 4)
        - scale_x(q1 * q1, 4 * V)
        + q2 * q2
        - scale_x(q1 * q3, 2)
        + scale_x(Q * (scale_x(q1, 2 * V.derivative()) + scale_x(q2, 4 * V) + q4), 2)
    )


def expanded_curve(Q: QPoly, V: XPoly, W: XPoly) -> SpectralCurve:
    """Reference spectral_curve: read F off the full expansion, or report
    every z-coefficient that depends on x."""
    four_f = full_expansion(Q, V, W)
    offenders = {p: c for p, c in enumerate(four_f.coeffs) if not c.is_constant()}
    if offenders:
        raise XDependenceError(offenders)
    return SpectralCurve(Q.ring, tuple(c.constant_value() / 4 for c in four_f.coeffs))


ROOT_RING = ParamRing(("A", "B"))
_A, _B = ROOT_RING.param("A"), ROOT_RING.param("B")
# Scalars over Q(A, B), some with parameter denominators.
CURVE_SCALARS = (0, 1, -2, 3, Fraction(1, 2), _A, -_B, _A * _B - 1, 1 / _A, _B / (_A + 1))


def xpolys(max_degree):
    return st.lists(st.sampled_from(CURVE_SCALARS), max_size=max_degree + 1).map(
        lambda cs: XPoly(ROOT_RING, cs)
    )


@st.composite
def qpolys(draw, monic=True):
    coeffs = draw(st.lists(xpolys(2), max_size=3 if monic else 4))
    if monic:
        coeffs.append(XPoly.const(ROOT_RING, 1))
    return QPoly(ROOT_RING, coeffs)


@settings(max_examples=60, deadline=None)
@given(qpolys(), xpolys(3), xpolys(3))
def test_curve_matches_full_expansion(Q, V, W):
    try:
        expected = expanded_curve(Q, V, W)
    except XDependenceError as err:
        with pytest.raises(XDependenceError) as got:
            spectral_curve(Q, V, W)
        assert got.value.offenders == err.offenders
    else:
        assert spectral_curve(Q, V, W) == expected


def test_family_curves_match_full_expansion():
    for kind, params, m in [
        ("thm1", {"g": 2}, 2),
        ("thm1", {"g": 1}, 3),
        ("thm2", {"g": 2}, 2),
        ("mironov_x3", {"g": 2}, 3),
        ("mironov_x3", {"g": 3}, 3),  # Q has x^1 and x^3 parts: the 2 Q' Q''' term counts
        ("thm3", {"n": 4, "b_mult": 2}, 2),
    ]:
        chain, _, Q, curve = solved_family(kind, params, m)
        assert curve == expanded_curve(Q, chain.V, chain.W)


@pytest.mark.parametrize(
    "kind,params,m,free_values",
    [
        ("thm1", {"g": 1}, 3, {"C1": Fraction(3, 7), "C2": -2}),  # the free-constant golden
        ("thm1", {"g": 2}, 3, {"C1": 5}),
        ("thm2", {"g": 2}, 2, {}),
        ("mironov_x3", {"g": 1}, 2, {}),
    ],
)
def test_solution_q_is_assembled_when_read(kind, params, m, free_values, monkeypatch):
    _, V, W = build_family(FamilySpec(kind, params))
    with monkeypatch.context() as patched:
        for name in ("assemble_q", "residual_eq2", "spectral_curve"):
            patched.setattr(curve_module, name, None)  # the solve must not call them
        solution = solve_pair(V, W, m, free_values)
    assert solution.curve is not None
    assert solution.Q == assemble_q(solution.chain, solution.outcome, free_values)
    assert solution.Q is solution.Q
    assert spectral_curve(solution.Q, V, W) == solution.curve


@settings(max_examples=40, deadline=None)
@given(qpolys(monic=False), xpolys(3), xpolys(3))
def test_curve_expression_is_a_first_integral(Q, V, W):
    # d(4F)/dx = 2 Q R, so R = 0 proves 4F free of x
    assert dx(full_expansion(Q, V, W)) == scale_x(Q * residual_eq2(Q, V, W), 2)


def test_singularity_examples():
    assert curve_is_singular(numeric_curve(0, 0, 0, 1)).witness == (0, 0, 1)  # z^3
    report = curve_is_singular(numeric_curve(3072, 448, 32, 1))
    assert not report.singular and report.witness is None
    # repeated root away from the origin: (z-1)^2 (z+2)
    report = curve_is_singular(numeric_curve(2, -3, 0, 1))
    assert report.singular and report.witness == (-1, 1)


def test_singularity_respects_bindings():
    _, _, _, curve = solved_family("thm1", {"g": 1}, 1)
    with pytest.raises(UnboundParameterError):
        curve_is_singular(curve)
    report = curve_is_singular(curve, {"A6": 1, "A2": 1})
    assert not report.singular
    # leftover symbol still rejected, by name
    with pytest.raises(UnboundParameterError) as err:
        curve_is_singular(curve, {"A6": 1})
    assert "A2" in str(err.value)


def shift_curve(curve: SpectralCurve, r: Fraction) -> SpectralCurve:
    ring = curve.ring
    shifted = [ring.zero()] * len(curve.coeffs)
    z_plus_r = [ring.const(r), ring.one()]
    power = [ring.one()]
    for k, c in enumerate(curve.coeffs):
        for i, p in enumerate(power):
            shifted[i] = shifted[i] + c * p
        power = dense_mul(power, z_plus_r, ring.zero())
    return SpectralCurve(ring, tuple(shifted))


def test_shift_invariance_of_singularity():
    singular = numeric_curve(2, -3, 0, 1)
    smooth = numeric_curve(3072, 448, 32, 1)
    for r in (Fraction(3), Fraction(-7, 2)):
        assert curve_is_singular(shift_curve(singular, r)).singular
        assert not curve_is_singular(shift_curve(smooth, r)).singular


def test_structure_examples():
    # (z-1)^2 (z+2) = z^3 - 3z + 2
    structure = curve_structure(numeric_curve(2, -3, 0, 1))
    assert [(tuple(Fraction(str(c)) for c in f), m) for f, m in structure] == [
        ((2, 1), 1),
        ((-1, 1), 2),
    ]
    assert curve_structure(numeric_curve(0, 0, 0, 1)) == (((0, 1), 3),)
    squarefree = curve_structure(numeric_curve(3072, 448, 32, 1))
    assert len(squarefree) == 1 and squarefree[0][1] == 1


def test_structure_of_a_constant_curve_is_empty():
    assert curve_structure(SpectralCurve(ParamRing(()), [1])) == ()


def test_certificate_display():
    _, _, Q, _ = solved_family("thm1", {"g": 1}, 1)
    assert str(Q) == "z + (16*A6*x^4 + 16*A2)"
    _, _, Q, _ = solved_family("thm3", {"n": 5, "m": 1}, 1)
    assert str(Q) == "z + (9*A*x^3)"


def test_structure_symbolic_square():
    _, _, _, curve = solved_family("thm1", {"g": 1}, 3)
    ring = curve.ring
    a2, a6 = ring.param("A2"), ring.param("A6")
    structure = dict()
    for coeffs, mult in curve_structure(curve):
        structure[mult] = coeffs
    assert structure[2] == (256 * a2**2, -16 * a2, ring.one())
    assert structure[1] == (3072 * a6 * a2, 256 * a2**2 + 192 * a6, 32 * a2, ring.one())
    square = dense_mul(structure[2], structure[2], ring.zero())
    rebuilt = dense_mul(structure[1], square, ring.zero())
    assert tuple(rebuilt) == curve.coeffs


# roots with parameter denominators make the lift clear them by their lcm
SYMBOLIC_ROOTS = (-1 / _A, _B / (_A + 1), _A * _B / (_B - 2))


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.integers(-6, 6).map(ROOT_RING.const), st.sampled_from(SYMBOLIC_ROOTS)),
    st.lists(st.integers(-6, 6).map(ROOT_RING.const), min_size=2, max_size=4),
    st.integers(1, 3),
)
def test_structure_multiplies_back(first, rest, extra_mult):
    ring = ROOT_RING
    roots = [first, *rest]
    factors = [[-r, ring.one()] for r in roots]
    factors += [[-roots[0], ring.one()]] * (extra_mult - 1)
    coeffs = [ring.one()]
    for f in factors:
        coeffs = dense_mul(coeffs, f, ring.zero())
    if len(coeffs) % 2 == 0:  # keep the degree odd as the constructor demands
        coeffs = dense_mul(coeffs, [-roots[-1], ring.one()], ring.zero())
    curve = SpectralCurve(ring, tuple(coeffs))
    rebuilt = [ring.one()]
    for f, mult in curve_structure(curve):
        for _ in range(mult):
            rebuilt = dense_mul(rebuilt, f, ring.zero())
    assert tuple(rebuilt) == curve.coeffs


def test_render_zpoly():
    ring = ParamRing(("A2",))
    text = render_zpoly((ring.const(5), ring.param("A2"), ring.one()))
    assert text == "z^2 + (A2)*z + 5"


# -- the squarefree check at one point modulo p ------------------------------------


def yun_structure(curve: SpectralCurve):
    """curve_structure with the point check turned off: Yun's split alone."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(curve_module, "_squarefree_mod_p", lambda curve: False)
        return curve_structure(curve)


def curve_from_factors(factors) -> SpectralCurve:
    ring = ROOT_RING
    coeffs = [ring.one()]
    for f in factors:
        coeffs = dense_mul(coeffs, [ring.zero() + c for c in f], ring.zero())
    return SpectralCurve(ring, tuple(coeffs))


# the check evaluates A at 3, where 1/(A - 3) has a pole
FACTOR_SCALARS = CURVE_SCALARS + (1 / (_A - 3),)


@st.composite
def factored_curves(draw):
    """(F, repeated): F = prod P_i^(m_i) for monic P_i over Q(A, B), and whether
    some P_i is repeated, by its multiplicity or by being drawn twice."""
    lows = st.lists(st.sampled_from(FACTOR_SCALARS), min_size=1, max_size=2)
    drawn = draw(st.lists(st.tuples(lows, st.sampled_from((1, 1, 2, 3))), min_size=1, max_size=3))
    polys = [(*low, 1) for low, _ in drawn]
    repeated = any(mult > 1 for _, mult in drawn) or len(set(polys)) < len(polys)
    return curve_from_factors(p for p, (_, mult) in zip(polys, drawn) for _ in range(mult)), repeated


@settings(max_examples=60, deadline=None)
@given(factored_curves())
def test_point_check_proves_only_squarefree_curves(case):
    curve, repeated = case
    proved = curve_module._squarefree_mod_p(curve)
    if repeated:
        assert not proved
    yun = yun_structure(curve)
    if proved:
        assert yun == ((curve.coeffs, 1),)
    assert curve_structure(curve) == yun



@pytest.mark.parametrize(
    "factors,multiplicities",
    [
        # a coefficient denominator that vanishes at the point
        ([[-1 / (_A - 3), 1], [-_B, 1], [1, 1]], [1]),
        ([[-1 / (_A - 3), 1], [-1 / (_A - 3), 1], [-_B, 1]], [1, 2]),
        # z (z^2 - (A - 3)): F(c) = z^3 has a triple root that F lacks
        ([[0, 1], [3 - _A, 0, 1]], [1]),
        # a rational coefficient whose denominator is p
        ([[-_A, 1], [Fraction(-1, curve_module._P), 1], [_B, 1]], [1]),
    ],
)
def test_unlucky_points_fall_through_to_yun(factors, multiplicities):
    curve = curve_from_factors(factors)
    assert not curve_module._squarefree_mod_p(curve)
    structure = curve_structure(curve)
    assert [mult for _, mult in structure] == multiplicities
    assert structure == yun_structure(curve)


def test_point_check_spares_the_gcds_of_a_squarefree_curve(monkeypatch):
    _, _, _, squarefree = solved_family("thm2", {"g": 2}, 2)
    _, _, _, repeated = solved_family("thm1", {"g": 1}, 3)
    calls = []
    gcd = scalar_module.mpoly_gcd

    def counted(a, b):
        calls.append(1)
        return gcd(a, b)

    monkeypatch.setattr(scalar_module, "mpoly_gcd", counted)
    monkeypatch.setattr(curve_module, "mpoly_gcd", counted)
    assert curve_structure(squarefree) == ((squarefree.coeffs, 1),)
    assert not calls
    structure = curve_structure(repeated)
    with_check = len(calls)
    assert structure == yun_structure(repeated)
    assert with_check > 0 and len(calls) == 2 * with_check
