"""Acceptance suite: one check per headline claim, exact arithmetic throughout.

Every comparison is exact (integers and rationals); there are no tolerances.
Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import random
from fractions import Fraction

from weylcurve import (
    DiffOp,
    FamilySpec,
    ParamRing,
    XPoly,
    build_family,
    build_qchain,
    curve_is_singular,
    curve_structure,
    dixmier_pair,
    extract_constraints,
    recursion_step,
    solve_constants,
    thm1_monomial_step,
    thm2_monomial_step,
    thm3_monomial_step,
)
from weylcurve.weyl import dense_mul

from support import family_chain, solved_family


def _line(n: int, text: str) -> None:
    print(f"criterion {n:2d}: PASS — {text}")


def test_criterion_01_x6_family_base_curve():
    _, outcome, _, curve = solved_family("thm1", {"g": 1}, 1)
    ring = curve.ring
    a2 = ring.param("A2")
    a6 = ring.param("A6")
    expected = dense_mul([16 * a2, ring.one()], [192 * a6, 16 * a2, ring.one()], ring.zero())
    assert outcome.status == "unique"
    assert curve.coeffs == tuple(expected)
    _line(1, "V=A6x^6+A2x^2, m=g=1: F = (z+16A2)(z^2+16A2z+192A6), exact")


def test_criterion_02_x6_family_g3_even_curve():
    _, outcome, _, curve = solved_family("thm1", {"g": 3, "A2": 0}, 3)
    ring = curve.ring
    a6 = ring.param("A6")
    expected = dense_mul(
        dense_mul([ring.zero(), ring.one()], [288000 * a6, ring.zero(), ring.one()], ring.zero()),
        [273715200 * a6**2, ring.zero(), 289152 * a6, ring.zero(), ring.one()],
        ring.zero(),
    )
    assert outcome.status == "unique"
    assert curve.coeffs == tuple(expected)
    _line(2, "V=A6x^6, m=g=3: F = z(z^2+288000A6)(z^4+289152A6z^2+273715200A6^2), exact")


def test_criterion_03_x4_family_base_curve():
    _, outcome, _, curve = solved_family("thm2", {"g": 1}, 1)
    ring = curve.ring
    a4, a2, a0 = ring.param("A4"), ring.param("A2"), ring.param("A0")
    expected = (
        64 * a0 * a2 * a4 + 16 * a4**2,
        16 * (a2**2 + a0 * a4),
        8 * a2,
        ring.one(),
    )
    assert outcome.status == "unique"
    assert curve.coeffs == expected
    _line(3, "V=A4x^4+A2x^2+A0, m=g=1: F = z^3+8A2z^2+16(A2^2+A0A4)z+64A0A2A4+16A4^2, exact")


def test_criterion_04_x4_family_g3_odd_curve():
    _, outcome, _, curve = solved_family("thm2", {"g": 3, "A2": 0, "A0": 0}, 3)
    ring = curve.ring
    a4 = ring.param("A4")
    expected = dense_mul(
        [ring.zero(), ring.one()],
        [3382560000 * a4**4, ring.zero(), ring.zero(), 117216 * a4**2,
         ring.zero(), ring.zero(), ring.one()],
        ring.zero(),
    )
    assert outcome.status == "unique"
    assert curve.coeffs == tuple(expected)
    _line(4, "V=A4x^4, m=g=3: F = z(3382560000A4^4+117216A4^2z^3+z^6), exact")


def test_criterion_05_classical_rank2_pair():
    L, M = dixmier_pair(2)
    ring = L.ring
    alpha = ring.param("alpha")
    assert L.commutator(M).is_zero()
    gap = M * M - L**3 + DiffOp.identity(ring).scale(alpha)
    assert gap.is_zero()
    _line(5, "rank-2 classical pair: [L,M]=0 and M^2-L^3+alpha=0, symbolic alpha, exact")


def test_criterion_06_classical_rank3_pair():
    L, M = dixmier_pair(3)
    assert L.commutator(M).is_zero()
    gap = M * M - L**3
    assert gap.order == 0
    _line(6, "rank-3 classical pair: [L,M]=0 and M^2-L^3 has order 0, exact")


def test_criterion_07_x5_family_positives():
    for g in (1, 2, 3):
        chain = family_chain("thm3", {"n": 5, "m": 1}, g)
        ring = chain.ring
        a = ring.param("A")
        # raw closing entry keeps the x^3 ladder shape
        expected = XPoly.monomial(ring, 3, 9 * a * ring.param(f"C{g}")) + XPoly.const(
            ring, ring.param(f"C{g + 1}")
        )
        assert chain.entry(chain.m + 1) == expected
        outcome = solve_constants(extract_constraints(chain))
        assert outcome.feasible
        _, _, Q, _ = solved_family("thm3", {"n": 5, "m": 1}, g)
        assert Q.coefficient(g).is_constant()  # leading coefficient of Q is 1*z^g
    _line(7, "V=Ax^5, W=18Ax^3: closes at degrees 1,2,3; a_{g+1} = C~_{g+1} + 9A C~_g x^3")


def test_criterion_08_monomial_family_negatives():
    # (a) n=7, B = 25*6*A, A=1: no closure through degree 4
    for m in (1, 2, 3, 4):
        outcome = solve_constants(
            extract_constraints(family_chain("thm3", {"n": 7, "m": 2, "A": 1}, m))
        )
        assert outcome.status == "infeasible"
    # (b) n=5, B = 54A: no closure through degree 4
    for m in (1, 2, 3, 4):
        outcome = solve_constants(
            extract_constraints(family_chain("thm3", {"n": 5, "m": 2}, m))
        )
        assert outcome.status == "infeasible"
    # (c) n=4 with W = x^3 (wrong power, k != n-2): no closure through degree 3
    for m in (1, 2, 3):
        outcome = solve_constants(
            extract_constraints(
                family_chain("thm3", {"n": 4, "k": 3, "b_over_a": 1, "A": 1}, m)
            )
        )
        assert outcome.status == "infeasible"
    # the degree invariant behind the all-g claim: deg a_i = (n-2) i while the
    # transition coefficient keeps its sign, so the closing entry cannot be
    # x-free at any degree past the checked window either
    assert [e.degree for e in family_chain("thm3", {"n": 7, "m": 2}, 4).entries] == [
        5, 10, 10, 11, 16,
    ]
    assert [e.degree for e in family_chain("thm3", {"n": 5, "m": 2}, 4).entries] == [
        3, 6, 6, 6, 8,
    ]
    assert [
        e.degree
        for e in family_chain("thm3", {"n": 4, "k": 3, "b_over_a": 1}, 3).entries
    ] == [3, 6, 9, 12]
    _line(8, "negatives: n=7 (m=2) and n=5 (B=54A) infeasible to degree 4; "
             "n=4 with W=x^3 infeasible to degree 3; degree law holds")


def test_criterion_09_singularity_verdicts():
    cases = [
        ("thm1", {"g": 1, "A6": 1, "A2": 1}, 1, False),
        ("thm2", {"g": 2, "A4": 1, "A2": 0, "A0": 0}, 2, True),
        ("thm2", {"g": 5, "A4": 1, "A2": 0, "A0": 0}, 5, True),
        ("thm3", {"n": 5, "m": 1, "A": 1}, 1, True),
        ("thm3", {"n": 5, "m": 1, "A": 1}, 2, True),
    ]
    for kind, params, m, expected in cases:
        _, _, _, curve = solved_family(kind, params, m)
        assert curve_is_singular(curve).singular is expected
    _line(9, "singularity: x^6 family g=m=1 smooth; x^4 family g=m=2,5 singular; "
             "x^5 family g=1,2 singular (unit A-bindings)")


def test_criterion_10a_oracle_agreement():
    checked = 0
    ring1 = ParamRing(("A6", "A2", "C"))
    for g in (1, 2, 3):
        _, V, W = build_family(FamilySpec("thm1", {"g": g}))
        V, W = V.lift(ring1), W.lift(ring1)
        for k in range(5):
            oracle = thm1_monomial_step(ring1, k, g, ring1.param("A6"), ring1.param("A2"))
            assert oracle == recursion_step(XPoly.monomial(ring1, 4 * k), V, W, "C")
            checked += 1
    ring2 = ParamRing(("A4", "A2", "A0", "C"))
    for g in (1, 2, 3):
        _, V, W = build_family(FamilySpec("thm2", {"g": g}))
        V, W = V.lift(ring2), W.lift(ring2)
        for k in range(5):
            oracle = thm2_monomial_step(
                ring2, k, g, ring2.param("A4"), ring2.param("A2"), ring2.param("A0")
            )
            assert oracle == recursion_step(XPoly.monomial(ring2, 2 * k), V, W, "C")
            checked += 1
    ring3 = ParamRing(("A", "B", "C"))
    for n in (4, 5, 6, 7, 8):
        V = XPoly.monomial(ring3, n, ring3.param("A"))
        W = XPoly.monomial(ring3, n - 2, ring3.param("B"))
        for k in range(4):
            oracle = thm3_monomial_step(ring3, k, n, ring3.param("A"), ring3.param("B"))
            assert oracle == recursion_step(XPoly.monomial(ring3, k), V, W, "C")
            checked += 1
    assert checked >= 50
    _line(10, f"(a) closed-form steps equal the recursion on {checked} symbolic instances")


def test_criterion_10b_curves_are_x_free():
    cases = [
        ("thm1", {"g": 1}, 1),
        ("thm1", {"g": 1}, 2),
        ("thm1", {"g": 3, "A2": 0}, 3),
        ("thm2", {"g": 1}, 1),
        ("thm2", {"g": 2}, 2),
        ("thm3", {"n": 5, "m": 1}, 1),
        ("thm3", {"n": 5, "m": 1}, 2),
        ("mironov_x3", {"g": 1}, 1),
    ]
    for kind, params, m in cases:
        # spectral_curve raises if any z-coefficient keeps x-dependence
        _, _, _, curve = solved_family(kind, params, m)
        assert curve.degree == 2 * m + 1
    _line(10, f"(b) spectral expression is x-free for all {len(cases)} solved chains")


def test_criterion_10c_chains_affine_in_constants():
    for kind, params, m in [("thm1", {"g": 1}, 3), ("thm3", {"n": 5, "m": 1}, 3)]:
        chain = family_chain(kind, params, m)
        ring = chain.ring
        idx = [ring.index(name) for name in chain.constants]
        for entry in chain.entries:
            for power in range(entry.degree + 1):
                coeff = entry.coefficient(power)
                assert not (coeff.den.free_params() & set(chain.constants))
                for exp in coeff.num.terms:
                    assert sum(exp[j] for j in idx) <= 1
    _line(10, "(c) chain entries are affine-linear in the integration constants")


def test_criterion_10d_operator_laws_randomized():
    ring = ParamRing(("A2",))
    rng = random.Random(20240817)

    def rand_op():
        coeffs = []
        for _ in range(rng.randint(1, 3)):
            poly = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:
                poly.append(ring.param("A2"))
            coeffs.append(XPoly(ring, poly))
        return DiffOp(ring, coeffs)

    for _ in range(20):
        a, b, c = rand_op(), rand_op(), rand_op()
        assert (a * b) * c == a * (b * c)
        jacobi = (
            a.commutator(b.commutator(c))
            + b.commutator(c.commutator(a))
            + c.commutator(a.commutator(b))
        )
        assert jacobi.is_zero()
    _line(10, "(d) associativity and Jacobi hold on 20 seeded random operator triples")


def test_criterion_10e_underdetermined_above_g():
    for kind, g, m in [("thm1", 1, 2), ("thm1", 1, 3), ("thm2", 2, 3)]:
        chain = family_chain(kind, {"g": g}, m)
        outcome = solve_constants(extract_constraints(chain))
        assert outcome.status == "underdetermined"
        assert len(outcome.free) >= 1
    _, _, _, curve = solved_family("thm1", {"g": 1}, 3)
    ring = curve.ring
    a2 = ring.param("A2")
    structure = dict((mult, coeffs) for coeffs, mult in curve_structure(curve))
    assert 2 in structure
    assert structure[2] == (256 * a2**2, -16 * a2, ring.one())
    _line(10, "(e) m>g solves stay underdetermined; the g=1,m=3 curve has a squared factor")
