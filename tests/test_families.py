"""Family builders, closed-form step oracles, and whole-family verdicts."""

from fractions import Fraction

import pytest

from weylcurve import (
    DiffOp,
    FamilySpec,
    FamilySpecError,
    ParamRing,
    XPoly,
    build_family,
    build_square_form,
    dixmier_pair,
    expected_feasible,
    recursion_step,
    run_family_verdict,
    solve_pair,
    thm1_monomial_step,
    thm2_monomial_step,
    thm3_monomial_step,
    thm3_admissible_B,
)

from support import family_chain


def test_build_family_shapes():
    ring, V, W = build_family(FamilySpec("thm1", {"g": 1}))
    x = XPoly.x(ring)
    assert V == x**6 * ring.param("A6") + x**2 * ring.param("A2")
    assert W == x**4 * (32 * ring.param("A6"))

    ring, V, W = build_family(FamilySpec("thm2", {"g": 2}))
    assert W == XPoly.x(ring) ** 2 * (24 * ring.param("A4"))
    assert V.coefficient(0) == ring.param("A0")

    ring, V, W = build_family(FamilySpec("thm3", {"n": 5, "m": 1}))
    assert V == XPoly.x(ring) ** 5 * ring.param("A")
    assert W == XPoly.x(ring) ** 3 * (18 * ring.param("A"))

    ring, V, W = build_family(FamilySpec("mironov_x3", {"g": 2}))
    assert W == XPoly.x(ring) * (6 * ring.param("A3"))


def test_build_family_bindings_and_symbolic_mix():
    ring, V, W = build_family(FamilySpec("thm1", {"g": 1, "A6": Fraction(1, 2)}))
    assert ring.names == ("A2",)
    assert W == XPoly.x(ring) ** 4 * 16
    assert V.coefficient(6) == Fraction(1, 2)
    assert V.coefficient(2) == ring.param("A2")


def test_build_family_validation():
    with pytest.raises(FamilySpecError):
        build_family(FamilySpec("nope", {}))
    with pytest.raises(FamilySpecError):
        build_family(FamilySpec("thm1", {}))  # g missing
    with pytest.raises(FamilySpecError):
        build_family(FamilySpec("thm1", {"g": 1, "A6": 0}))
    with pytest.raises(FamilySpecError):
        build_family(FamilySpec("thm1", {"g": 1, "bogus": 2}))
    with pytest.raises(FamilySpecError):
        build_family(FamilySpec("thm3", {"n": 5}))  # no B given
    with pytest.raises(FamilySpecError):
        build_family(FamilySpec("thm3", {"n": 5, "m": 1, "b_over_a": 18}))
    with pytest.raises(FamilySpecError):
        build_family(FamilySpec("thm3", {"n": 5, "m": 0}))
    with pytest.raises(FamilySpecError):
        build_family(FamilySpec("thm1", {"g": "one"}))
    with pytest.raises(FamilySpecError):
        build_family(FamilySpec("dixmier_rank3", {}))  # no square form exists


@pytest.mark.parametrize(
    "kind, parameters, key",
    [
        ("thm1", {"g": 1, "n": 9}, "n"),
        ("thm3", {"n": 5, "m": 1, "g": 2}, "g"),
        ("dixmier_rank2", {"g": 3}, "g"),
    ],
    ids=["thm1-n", "thm3-g", "dixmier_rank2-g"],
)
def test_family_refuses_a_shape_key_it_never_uses(kind, parameters, key):
    message = f"family '{kind}' does not accept parameter '{key}'"
    with pytest.raises(FamilySpecError, match=message):
        run_family_verdict(FamilySpec(kind, parameters))


def test_thm3_takes_at_most_one_b_choice():
    for choice in ({"m": 1, "b_mult": 2}, {"b_mult": 1, "b_over_a": 18}, {"m": 1, "b_over_a": 18}):
        with pytest.raises(FamilySpecError, match="give at most one of m, b_mult and b_over_a"):
            build_family(FamilySpec("thm3", {"n": 5, **choice}))


def test_monomial_step_constant_input():
    # x^0 is the start of every chain: the image is W/2 + C
    ring = ParamRing(("A6", "A2", "C"))
    a6, a2 = ring.param("A6"), ring.param("A2")
    step = thm1_monomial_step(ring, 0, 1, a6, a2)
    assert step == XPoly.monomial(ring, 4, 16 * a6) + XPoly.const(ring, ring.param("C"))


def test_thm1_step_top_term_vanishes_at_k_equals_g():
    ring = ParamRing(("A6", "A2", "C"))
    a6, a2 = ring.param("A6"), ring.param("A2")
    for g in (1, 2, 3):
        for k in (1, 2, 3, 4):
            step = thm1_monomial_step(ring, k, g, a6, a2)
            top = step.coefficient(4 * k + 4)
            if k == g:
                assert top.is_zero()  # the chain stops growing exactly at x^(4g)
            else:
                assert top == 8 * a6 * Fraction(2 * k + 1, k + 1) * (g - k) * (g + k + 1)


def test_thm3_step_top_term_vanishes_at_admissible_degree():
    ring = ParamRing(("A", "C"))
    a = ring.param("A")
    for n in (4, 5, 6, 7):
        for m in (1, 2):
            b = (n - 2) ** 2 * m * (m + 1) * a
            step = thm3_monomial_step(ring, m * (n - 2), n, a, b)
            assert step.coefficient((m + 1) * (n - 2)).is_zero()
            other = thm3_monomial_step(ring, (m + 1) * (n - 2), n, a, b)
            assert not other.coefficient((m + 2) * (n - 2)).is_zero()


def test_monomial_steps_match_recursion():
    # closed forms against the defining integral, symbolically, on every g
    # and n that the benchmark's decide ladder uses, through every x-power its
    # chains reach; the antiderivative has no constant term, so agreement is
    # exact, not just up to the folded constant
    checked = 0
    ring1 = ParamRing(("A6", "A2", "C"))
    for g in range(1, 9):
        _, V, W = build_family(FamilySpec("thm1", {"g": g}))
        V, W = V.lift(ring1), W.lift(ring1)
        for k in range(max(5, g + 2)):
            oracle = thm1_monomial_step(ring1, k, g, ring1.param("A6"), ring1.param("A2"))
            assert oracle == recursion_step(XPoly.monomial(ring1, 4 * k), V, W, "C")
            checked += 1

    ring2 = ParamRing(("A4", "A2", "A0", "C"))
    for g in range(1, 9):
        _, V, W = build_family(FamilySpec("thm2", {"g": g}))
        V, W = V.lift(ring2), W.lift(ring2)
        for k in range(max(5, g + 2)):
            oracle = thm2_monomial_step(
                ring2, k, g, ring2.param("A4"), ring2.param("A2"), ring2.param("A0")
            )
            assert oracle == recursion_step(XPoly.monomial(ring2, 2 * k), V, W, "C")
            checked += 1

    ring3 = ParamRing(("A", "B", "C"))
    a, b = ring3.param("A"), ring3.param("B")
    for n in range(4, 9):
        V = XPoly.monomial(ring3, n, a)
        W = XPoly.monomial(ring3, n - 2, b)
        for k in range(5 * (n - 2) + 1):
            oracle = thm3_monomial_step(ring3, k, n, a, b)
            assert oracle == recursion_step(XPoly.monomial(ring3, k), V, W, "C")
            checked += 1
    assert checked >= 50


def test_admissible_b():
    assert thm3_admissible_B(5, 1, 18) == 1
    assert thm3_admissible_B(5, 1, 54) == 2
    assert thm3_admissible_B(7, 1, 150) == 2
    assert thm3_admissible_B(5, 1, 7) is None
    assert thm3_admissible_B(4, 1, 32) is None  # 32 = 4*8, 8 is not m(m+1)
    assert thm3_admissible_B(4, 1, 24) == 2
    assert thm3_admissible_B(5, 3, 54) == 1  # scales with A
    assert thm3_admissible_B(5, 1, -18) is None
    with pytest.raises(ValueError):
        thm3_admissible_B(3, 1, 18)
    with pytest.raises(ValueError):
        thm3_admissible_B(5, 0, 18)


def test_thm3_chain_shape_x5():
    # for V=Ax^5, W=18Ax^3 every entry past the first is C_{i+1} + 9A C_i x^3
    chain = family_chain("thm3", {"n": 5, "m": 1}, 3)
    ring = chain.ring
    a = ring.param("A")
    a1 = chain.entry(1)
    assert a1 == XPoly.monomial(ring, 3, 9 * a) + XPoly.const(ring, ring.param("C1"))
    for i in (1, 2, 3):
        expected = XPoly.monomial(ring, 3, 9 * a * ring.param(f"C{i}")) + XPoly.const(
            ring, ring.param(f"C{i + 1}")
        )
        assert chain.entry(i + 1) == expected


def test_dixmier_pairs():
    L2, M2 = dixmier_pair(2)
    assert (L2.order, M2.order) == (4, 6)
    L3, M3 = dixmier_pair(3)
    assert (L3.order, M3.order) == (6, 9)
    for L, M in ((L2, M2), (L3, M3)):
        assert L.commutator(M).is_zero()
        gap = M * M - L**3
        assert gap.order == 0
        assert gap.coefficient(0).constant_value() == -L.ring.param("alpha")


@pytest.mark.parametrize("alpha", [None, 3])
def test_dixmier_rank2_l_is_the_square_form_of_its_family(alpha):
    # P^2 + 2x with P = D^2 + x^3 + alpha, the classical form, against the
    # square form of the (V, W) that build_family gives dixmier_rank2
    L, _ = dixmier_pair(2, alpha)
    bindings = {} if alpha is None else {"alpha": alpha}
    ring, V, W = build_family(FamilySpec("dixmier_rank2", bindings))
    assert L == build_square_form(V, W)
    a = ring.param("alpha") if alpha is None else ring.const(alpha)
    P = DiffOp(ring, [XPoly.monomial(ring, 3) + XPoly.const(ring, a), 0, 1])
    classical = P * P + DiffOp.from_xpoly(XPoly.monomial(ring, 1, 2))
    assert L == classical
    assert str(L) == str(classical)


def test_expected_feasible_table():
    assert expected_feasible(FamilySpec("thm1", {"g": 2}), 1) is False
    assert expected_feasible(FamilySpec("thm1", {"g": 2}), 2) is True
    assert expected_feasible(FamilySpec("thm1", {"g": 2}), 5) is True
    assert expected_feasible(FamilySpec("thm2", {"g": 1}), 3) is True
    assert expected_feasible(FamilySpec("mironov_x3", {"g": 3}), 2) is False
    # monomial family: k must be n-2 and B admissible; n >= 7 never closes
    assert expected_feasible(FamilySpec("thm3", {"n": 5, "m": 1}), 1) is True
    assert expected_feasible(FamilySpec("thm3", {"n": 5, "m": 1}), 2) is True
    assert expected_feasible(FamilySpec("thm3", {"n": 5, "m": 2}), 2) is False
    assert expected_feasible(FamilySpec("thm3", {"n": 4, "m": 2}), 1) is False
    assert expected_feasible(FamilySpec("thm3", {"n": 4, "m": 2}), 2) is True
    assert expected_feasible(FamilySpec("thm3", {"n": 6, "m": 1}), 3) is True
    assert expected_feasible(FamilySpec("thm3", {"n": 7, "m": 2}), 2) is False
    assert expected_feasible(FamilySpec("thm3", {"n": 5, "k": 4, "b_over_a": 18}), 1) is False
    assert expected_feasible(FamilySpec("thm3", {"n": 6, "b_over_a": 33}), 2) is False
    assert expected_feasible(FamilySpec("dixmier_rank2", {}), 1) is None


def test_verdict_thm1():
    verdict = run_family_verdict(FamilySpec("thm1", {"g": 1}))
    assert verdict.verified
    assert verdict.identities is None
    (row,) = verdict.rows
    assert (row.degree, row.status) == (1, "unique")
    assert row.curve is not None and row.curve.degree == 3
    assert row.expected is True and row.matches_expected


def test_verdict_thm3_positive_and_negative():
    good = run_family_verdict(FamilySpec("thm3", {"n": 5, "m": 1}), g_bound=3)
    assert good.verified
    assert [r.status for r in good.rows] == ["unique", "underdetermined", "underdetermined"]
    assert all(r.curve is not None for r in good.rows)

    bad = run_family_verdict(FamilySpec("thm3", {"n": 7, "m": 2}), g_bound=4)
    assert bad.verified  # infeasible everywhere is exactly what is expected
    assert [r.status for r in bad.rows] == ["infeasible"] * 4
    assert all(r.curve is None for r in bad.rows)
    assert all(r.expected is False and r.matches_expected for r in bad.rows)


def test_thm3_verdict_rows_match_separate_solves():
    # the rows of one verdict share a chain prefix; each must equal a solve on its own
    for n in range(4, 9):
        spec = FamilySpec("thm3", {"n": n, "b_mult": 2})
        _, V, W = build_family(spec)
        rows = run_family_verdict(spec, g_bound=4).rows
        assert [row.degree for row in rows] == [1, 2, 3, 4]
        for row in rows:
            solution = solve_pair(V, W, row.degree)
            outcome = solution.outcome
            assert row.status == outcome.status
            assert row.assignment == {k: str(v) for k, v in sorted(outcome.assignment.items())}
            assert row.free == outcome.free
            assert row.side_conditions == tuple(str(p) for p in outcome.side_conditions)
            assert row.curve == solution.curve
            assert row.expected == expected_feasible(spec, row.degree)


def test_verdict_wrong_k_never_closes():
    for n in (4, 5, 6):
        for k in (n - 3, n - 1):
            spec = FamilySpec("thm3", {"n": n, "k": k, "b_over_a": 1})
            verdict = run_family_verdict(spec, g_bound=3)
            assert verdict.verified
            assert [r.status for r in verdict.rows] == ["infeasible"] * 3


def test_verdict_dixmier():
    for kind in ("dixmier_rank2", "dixmier_rank3"):
        verdict = run_family_verdict(FamilySpec(kind, {}))
        assert verdict.verified
        assert verdict.rows == ()
        assert verdict.identities == {"commutes": True, "spectral_identity": True}
    bound = run_family_verdict(FamilySpec("dixmier_rank2", {"alpha": Fraction(5, 3)}))
    assert bound.verified


def test_verdict_mironov():
    verdict = run_family_verdict(FamilySpec("mironov_x3", {"g": 1}))
    assert verdict.verified
    (row,) = verdict.rows
    assert row.status == "unique"
    assert row.curve is not None and row.curve.degree == 3
