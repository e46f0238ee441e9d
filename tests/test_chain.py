"""The closing recursion: chains, constraint extraction, and the exact solver."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcurve import (
    ChainError,
    ConstraintSystem,
    FamilySpec,
    LinearEquation,
    ParamRing,
    XPoly,
    assemble_q,
    build_family,
    build_qchain,
    expected_feasible,
    extract_constraints,
    recursion_step,
    residual_eq2,
    solve_constants,
)
from weylcurve.chain import QPoly, closed_jets, eq2_operator
from weylcurve.parsing import parse_scalar

from support import family_chain, q_z, solved_family


def raw_q(chain) -> QPoly:
    """Q with the integration constants left symbolic."""
    ring = chain.ring
    coeffs = [XPoly.zero(ring)] * (chain.m + 1)
    coeffs[chain.m] = XPoly.const(ring, 1)
    for i in range(1, chain.m + 1):
        coeffs[chain.m - i] = chain.entry(i)
    return QPoly(ring, coeffs)


def test_first_entry_is_half_w():
    chain = family_chain("thm1", {"g": 1}, 1)
    ring = chain.ring
    a1 = chain.entry(1)
    assert a1 == chain.W.lift(ring).scale(Fraction(1, 2)) + XPoly.const(ring, ring.param("C1"))
    assert a1.coefficient(4) == 16 * ring.param("A6")


def test_second_entry_closed_form():
    # a_2 agrees with -W''''/8 - V W''/2 - V' W'/4 + 3W^2/8 + C1 W/2 + C2
    # up to an x-free term (absorbed into the meaning of C2)
    for kind, params in [("thm1", {"g": 1}), ("thm2", {"g": 2})]:
        chain = family_chain(kind, params, 2)
        ring = chain.ring
        V, W = chain.V.lift(ring), chain.W.lift(ring)
        c1 = XPoly.const(ring, ring.param("C1"))
        c2 = XPoly.const(ring, ring.param("C2"))
        closed = (
            W.derivative(4).scale(Fraction(-1, 8))
            - (V * W.derivative(2)).scale(Fraction(1, 2))
            - (V.derivative() * W.derivative()).scale(Fraction(1, 4))
            + (W * W).scale(Fraction(3, 8))
            + (c1 * W).scale(Fraction(1, 2))
            + c2
        )
        diff = chain.entry(2) - closed
        assert diff.is_zero() or diff.degree == 0


def test_thm1_second_entry_top_coefficient():
    chain = family_chain("thm1", {"g": 1}, 1)
    ring = chain.ring
    a2 = chain.entry(chain.m + 1)
    assert a2.coefficient(4) == 16 * ring.param("A6") * (ring.param("C1") - 16 * ring.param("A2"))


def test_thm2_second_entry_display():
    # g=2: a_2 = C~_2 + 2A4(C1 - 4A2) g(g+1) x^2 + 6 A4^2 g(g+1)(g-1)(g+2) x^4
    chain = family_chain("thm2", {"g": 2}, 2)
    ring = chain.ring
    a4, a2c, c1 = ring.param("A4"), ring.param("A2"), ring.param("C1")
    a2 = chain.entry(2)
    assert a2.coefficient(2) == 12 * a4 * (c1 - 4 * a2c)
    assert a2.coefficient(4) == 144 * a4**2
    assert a2.degree == 4


def test_zero_w_chain_is_all_constants():
    ring = ParamRing(())
    V = XPoly.x(ring) ** 3 + 2
    W = XPoly.zero(ring)
    chain = build_qchain(V, W, 2)
    for i in range(1, 4):
        assert chain.entry(i).is_constant()
    system = extract_constraints(chain)
    assert system.equations == ()
    outcome = solve_constants(system)
    assert outcome.status == "underdetermined"
    assert outcome.free == ("C1", "C2")
    Q = assemble_q(chain, outcome)
    assert residual_eq2(Q, chain.V, chain.W).is_zero()


def test_build_qchain_validation():
    ring = ParamRing(("C1",))
    V = XPoly.x(ring)
    with pytest.raises(ChainError):
        build_qchain(V, V, 0)
    with pytest.raises(ChainError):
        build_qchain(V, V, 1)  # C1 collides
    other = ParamRing(())
    with pytest.raises(ChainError):
        build_qchain(V, XPoly.x(other), 1)


def test_constraints_shape():
    chain = family_chain("thm1", {"g": 1}, 2)
    system = extract_constraints(chain)
    assert system.unknowns == ("C1", "C2")
    powers = [eq.power for eq in system.equations]
    assert powers == sorted(powers, reverse=True)
    assert all(p >= 1 for p in powers)
    constants = set(chain.constants)
    for eq in system.equations:
        names = [name for name, _ in eq.coeffs]
        assert "C3" not in names  # the last constant shifts Q and never binds
        for _, coeff in eq.coeffs:
            assert not (coeff.free_params() & constants)
        assert not (eq.constant.free_params() & constants)


def test_chain_entries_affine_in_constants():
    chain = family_chain("thm1", {"g": 1}, 3)
    ring = chain.ring
    cs = [ring.index(name) for name in chain.constants]
    for i in range(1, 5):
        for power in range(chain.entry(i).degree + 1):
            coeff = chain.entry(i).coefficient(power)
            for exp in coeff.num.terms:
                assert sum(exp[j] for j in cs) <= 1
            assert not (coeff.den.free_params() & set(chain.constants))


def test_solve_unique_with_side_condition():
    chain = family_chain("thm1", {"g": 1}, 1)
    outcome = solve_constants(extract_constraints(chain))
    ring = chain.ring
    assert outcome.status == "unique"
    assert outcome.assignment == {"C1": 16 * ring.param("A2")}
    assert [str(p) for p in outcome.side_conditions] == ["A6"]


def test_solve_underdetermined_back_substitution():
    chain = family_chain("thm1", {"g": 1}, 3)
    outcome = solve_constants(extract_constraints(chain))
    ring = chain.ring
    a2, c1, c2 = ring.param("A2"), ring.param("C1"), ring.param("C2")
    assert outcome.status == "underdetermined"
    assert outcome.free == ("C1", "C2")
    assert outcome.assignment["C3"] == 4096 * a2**3 - 256 * a2**2 * c1 + 16 * a2 * c2


def test_solve_runs_over_the_ring_of_v_and_w():
    # only the assignment, where free constants appear, lives over the chain ring
    for kind in ("thm1", "thm2"):
        chain = family_chain(kind, {"g": 2}, 4)
        system = extract_constraints(chain)
        outcome = solve_constants(system)
        base = chain.V.ring
        assert system.ring == chain.ring and outcome.free == ("C1", "C2")
        for eq in system.equations:
            assert all(c.ring == base for c in (eq.constant, *dict(eq.coeffs).values()))
        assert outcome.forms.keys() == outcome.assignment.keys() == {"C3", "C4"}
        for name, form in outcome.forms.items():
            assert all(c.ring == base for c in form.values())
            assert outcome.assignment[name].ring == chain.ring


def test_solve_infeasible_witness():
    chain = family_chain("thm3", {"n": 7, "m": 2}, 1)
    outcome = solve_constants(extract_constraints(chain))
    assert outcome.status == "infeasible"
    assert not outcome.feasible
    assert outcome.witness is not None
    assert outcome.witness.coeffs == ()  # no constant can absorb it
    assert not outcome.witness.constant.is_zero()
    assert "= 0" in outcome.witness.render()
    with pytest.raises(ChainError):
        assemble_q(chain, outcome)


# -- the solve on hand-made systems in C1 .. C3 over Q(A) ------------------------------

SOLVE_RING = ParamRing(("A", "C1", "C2", "C3"))
SOLVE_UNKNOWNS = ("C1", "C2", "C3")


def linear_system(rows) -> ConstraintSystem:
    """The system of rows [c_C1, c_C2, c_C3, constant] of expression texts,
    the first row at the highest x-power; zero coefficients are left out, as
    extract_constraints leaves them out."""
    equations = []
    for power, row in zip(range(len(rows), 0, -1), rows):
        values = [parse_scalar(SOLVE_RING, text) for text in row]
        coeffs = tuple((n, c) for n, c in zip(SOLVE_UNKNOWNS, values) if not c.is_zero())
        equations.append(LinearEquation(power, coeffs, values[3]))
    return ConstraintSystem(SOLVE_RING, SOLVE_UNKNOWNS, tuple(equations))


def assert_solves(system, outcome):
    """Each equation vanishes identically once the pinned constants are put
    in, the free ones left symbolic, and no value mentions a pinned one."""
    pinned = outcome.assignment.keys()
    assert set(pinned) | set(outcome.free) == set(system.unknowns)
    assert not set(pinned) & set(outcome.free)
    for value in outcome.assignment.values():
        assert not value.free_params() & pinned
    for eq in system.equations:
        total = eq.constant
        for name, c in eq.coeffs:
            total = total + c * outcome.assignment.get(name, SOLVE_RING.param(name))
        assert total.is_zero(), eq.render()


def solved(rows):
    outcome = solve_constants(linear_system(rows))
    return outcome.status, {k: str(v) for k, v in outcome.assignment.items()}, outcome.free


def test_solve_pivots_on_the_combined_coefficient():
    # C1 + C2 = 0, 5 C1 + C2 + 1 = 0: with C2 = -C1 in, the second row reads 4 C1 + 1
    assert solved([["1", "1", "0", "0"], ["5", "1", "0", "1"]]) == (
        "underdetermined", {"C2": "1/4", "C1": "-1/4"}, ("C3",))
    # C1 + C2 = 0, C2 + 3 = 0: the second row pins C1 through C2 = -C1
    assert solved([["1", "1", "0", "0"], ["0", "1", "0", "3"]]) == (
        "underdetermined", {"C2": "-3", "C1": "3"}, ("C3",))


def test_solve_constant_part_that_cancels():
    # C2 - C1 - 1 = 0, C1 + 1 = 0: C2 = C1 + 1 loses its constant part once C1 = -1
    assert solved([["-1", "1", "0", "-1"], ["1", "0", "0", "1"]]) == (
        "underdetermined", {"C2": "0", "C1": "-1"}, ("C3",))


def test_solve_skips_a_redundant_row():
    system = linear_system([["1", "1", "0", "0"], ["2", "2", "0", "0"], ["0", "0", "A", "1"]])
    outcome = solve_constants(system)
    assert outcome.status == "underdetermined"
    assert {k: str(v) for k, v in outcome.assignment.items()} == {"C2": "-C1", "C3": "(-1)/(A)"}
    assert outcome.free == ("C1",)
    assert [str(p) for p in outcome.side_conditions] == ["A"]
    assert_solves(system, outcome)


def test_solve_witness_after_substitution():
    # C1 + C2 = 0 and 2 C1 + 2 C2 + 1 = 0 leave 1 = 0 once C2 = -C1 is put in
    outcome = solve_constants(linear_system([["1", "1", "0", "0"], ["2", "2", "0", "1"]]))
    assert outcome.status == "infeasible"
    assert outcome.witness.render() == "0 + (1) = 0"


# zero often, so rows go rank-deficient and some systems turn infeasible
_SOLVE_COEFFS = ("0", "0", "0", "1", "-1", "2", "A", "A + 1", "1/(A + 1)")


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(_SOLVE_COEFFS), min_size=4, max_size=4), min_size=1, max_size=4
    )
)
def test_solve_random_systems(rows):
    system = linear_system(rows)
    outcome = solve_constants(system)
    if outcome.feasible:
        assert_solves(system, outcome)
    else:
        assert outcome.witness.coeffs == () and not outcome.witness.constant.is_zero()
    sympy = pytest.importorskip("sympy")
    cs = sympy.symbols(SOLVE_UNKNOWNS)
    eqs = [
        sum(sympy.sympify(c, locals={"A": sympy.Symbol("A")}) * x for c, x in zip(row, cs))
        + sympy.sympify(row[3], locals={"A": sympy.Symbol("A")})
        for row in rows
    ]
    solutions = sympy.linsolve(eqs, *cs)
    assert (solutions == sympy.EmptySet) == (outcome.status == "infeasible")
    if outcome.feasible:
        (solution,) = solutions
        free = set().union(*(e.free_symbols for e in solution)) & set(cs)
        assert len(free) == len(outcome.free)


def test_assemble_q_free_values():
    chain = family_chain("thm1", {"g": 1}, 2)
    outcome = solve_constants(extract_constraints(chain))
    assert outcome.status == "underdetermined"
    Q0 = assemble_q(chain, outcome)
    Q1 = assemble_q(chain, outcome, {outcome.free[0]: Fraction(3, 2)})
    assert Q0 != Q1
    assert residual_eq2(Q0, chain.V, chain.W).is_zero()
    assert residual_eq2(Q1, chain.V, chain.W).is_zero()
    with pytest.raises(ChainError):
        assemble_q(chain, outcome, {"C9": 1})


def test_closing_check_refuses_a_corrupted_form():
    # a pinned value that misses its closing condition must not reach the curve
    chain = family_chain("thm1", {"g": 1}, 3)
    system = extract_constraints(chain)
    outcome = solve_constants(system)
    assert len(closed_jets(chain, system, outcome, {"C1": 1})) == chain.m + 1
    form = dict(outcome.forms["C3"])
    form[None] = form[None] + 1
    corrupted = replace(outcome, forms={**outcome.forms, "C3": form})
    with pytest.raises(ChainError, match="closing entry stayed x-dependent"):
        closed_jets(chain, system, corrupted)
    with pytest.raises(ChainError, match="closing entry stayed x-dependent"):
        assemble_q(chain, corrupted)
    with pytest.raises(ChainError, match="not a free constant"):
        closed_jets(chain, system, outcome, {"C3": 1})


@pytest.mark.parametrize("free_values", [{}, {"C1": Fraction(3, 7), "C2": -2}])
def test_jets_are_the_low_part_of_q(free_values):
    chain = family_chain("thm1", {"g": 1}, 3)
    system = extract_constraints(chain)
    outcome = solve_constants(system)
    Q = assemble_q(chain, outcome, free_values)
    jets = closed_jets(chain, system, outcome, free_values)
    assert jets == tuple(XPoly(c.ring, c.coeffs[:5]) for c in Q.coeffs)


def test_residual_examples():
    ring = ParamRing(())
    V = XPoly.zero(ring)
    Q = q_z(ring) + QPoly.from_xpoly(XPoly.x(ring))
    res = residual_eq2(Q, V, V)
    assert res.coefficient(1).constant_value() == 4  # residual is exactly 4z
    assert res.coefficient(0).is_zero()
    one = QPoly.from_xpoly(XPoly.const(ring, 1))
    assert residual_eq2(one, V, XPoly.const(ring, 5)).is_zero()


def test_solved_chain_residual_vanishes():
    for kind, params, m in [("thm1", {"g": 1}, 1), ("thm2", {"g": 1}, 1), ("mironov_x3", {"g": 1}, 1)]:
        chain, outcome, Q, _ = solved_family(kind, params, m)
        assert residual_eq2(Q, chain.V, chain.W).is_zero()


def test_rederivation_identity():
    # differentiating the defining integral recovers the integrand exactly
    chain = family_chain("thm1", {"g": 1}, 2)
    V, W = chain.V.lift(chain.ring), chain.W.lift(chain.ring)
    for i in (1, 2):
        a, nxt = chain.entry(i), chain.entry(i + 1)
        total = (
            nxt.derivative().scale(4)
            + a.derivative(5)
            + 4 * V * a.derivative(3)
            + 6 * V.derivative() * a.derivative(2)
            + 2 * a.derivative() * V.derivative(2)
            - 2 * a * W.derivative()
            - 4 * a.derivative() * W
        )
        assert total.is_zero()


@pytest.mark.parametrize("kind", ["thm1", "thm2", "mironov_x3"])
def test_rung_is_minus_a_quarter_of_the_integral_of_e(kind):
    # T(a)' = -E(a)/4 on each graded family's sequence and on monomials, with
    # E integral as V and W are
    chain = family_chain(kind, {"g": 3}, 3)
    V, W = chain.V, chain.W
    E = eq2_operator(V, W)
    assert all(type(c) is int for e in E.coeffs for s in e.coeffs for c in s.num.terms.values())
    for a in chain.u + chain.v + tuple(XPoly.monomial(V.ring, k) for k in range(8)):
        assert recursion_step(a, V, W, 0).derivative() == E.apply(a).scale(Fraction(-1, 4))


def test_criterion_equivalence_via_telescoping():
    # the commutation residual of the raw chain is -4 d/dx a_{m+1}: the z-poly
    # identity holds iff the closing entry is x-free, in both directions
    for kind, params, m in [("thm1", {"g": 1}, 1), ("thm1", {"g": 1}, 2), ("thm2", {"g": 2}, 2)]:
        chain = family_chain(kind, params, m)
        res = residual_eq2(raw_q(chain), chain.V, chain.W)
        assert res == QPoly.from_xpoly(chain.entry(chain.m + 1).derivative().scale(-4))
        assert not res.is_zero()  # constants unsolved, so closure fails


def test_thm3_degree_law():
    # deg a_i = (n-2) i while the leading transition coefficient stays nonzero:
    # through rung m for the admissible B = (n-2)^2 m(m+1) A, at every rung
    # for non-admissible B
    degs = [e.degree for e in family_chain("thm3", {"n": 7, "m": 2}, 4).entries]
    assert degs == [5, 10, 10, 11, 16]
    degs = [e.degree for e in family_chain("thm3", {"n": 5, "m": 2}, 4).entries]
    assert degs == [3, 6, 6, 6, 8]
    degs = [e.degree for e in family_chain("thm3", {"n": 6, "b_over_a": 33}, 4).entries]
    assert degs == [4, 8, 12, 16, 20]


def reference_chain(V, W, m):
    """The chain rung by rung over the ring extended with C_1 ... C_{m+1}:
    a_1 = W/2 + C_1 and a_{i+1} = recursion_step(a_i, V, W, C_{i+1})."""
    constants = tuple(f"C{i}" for i in range(1, m + 2))
    ring = V.ring.extend(constants)
    V, W = V.lift(ring), W.lift(ring)
    entries = [W.scale(Fraction(1, 2)) + XPoly.const(ring, ring.param(constants[0]))]
    for name in constants[1:]:
        entries.append(recursion_step(entries[-1], V, W, name))
    return ring, constants, tuple(entries)


def reference_equations(constants, closing):
    """Rendered closing conditions of a reference chain: each positive x-power
    of a_{m+1}, split into its C_j coefficients by setting C_j = 1 and every
    other constant to 0."""
    zero = {name: 0 for name in constants}
    out = []
    for power in range(closing.degree or 0, 0, -1):
        c = closing.coefficient(power)
        if c.is_zero():
            continue
        rest = c.substitute(zero)
        coeffs = [(name, c.substitute({**zero, name: 1}) - rest) for name in constants[:-1]]
        equation = LinearEquation(power, tuple((n, k) for n, k in coeffs if k), rest)
        out.append(equation.render())
    return out


def reference_q(ring, constants, entries, outcome, free_values):
    """Q from substituting the solved constants into the reference entries."""
    bindings = {name: ring.const(free_values.get(name, 0)) for name in outcome.free}
    for name, value in outcome.assignment.items():
        bindings[name] = value.substitute(bindings)
    bindings[constants[-1]] = ring.const(0)
    solved = [entry.substitute_params(bindings) for entry in entries]
    assert solved[-1].is_constant()
    return QPoly(ring, solved[-2::-1] + [XPoly.const(ring, 1)])


def assert_matches_reference(V, W, m, free_values=None):
    ring, constants, entries = reference_chain(V, W, m)
    chain = build_qchain(V, W, m)
    assert chain.ring == ring and chain.constants == constants
    assert chain.entries == entries
    system = extract_constraints(chain)
    assert [eq.render() for eq in system.equations] == reference_equations(constants, entries[-1])
    outcome = solve_constants(system)
    if not outcome.feasible:
        return outcome
    free_values = {k: v for k, v in (free_values or {}).items() if k in outcome.free}
    Q = assemble_q(chain, outcome, free_values)
    assert Q.ring == V.ring
    lifted = QPoly(ring, [c.lift(ring) for c in Q.coeffs])
    assert lifted == reference_q(ring, constants, entries, outcome, free_values)
    return outcome


CHAIN_RING = ParamRing(("A", "B"))
_A, _B = CHAIN_RING.param("A"), CHAIN_RING.param("B")
CHAIN_SCALARS = (0, 1, -2, 3, Fraction(1, 2), _A, -_B, _A * _B - 1, 1 / _A)


def chain_xpolys(degree):
    """x-polynomials of exactly the given degree."""
    return st.tuples(
        st.lists(st.sampled_from(CHAIN_SCALARS), min_size=degree, max_size=degree),
        st.sampled_from(CHAIN_SCALARS[1:]),
    ).map(lambda cs: XPoly(CHAIN_RING, cs[0] + [cs[1]]))


@st.composite
def chain_cases(draw):
    """(V, W, m): a random pair with m <= 3, or up to m = 5 a pair that
    closes: W a nonzero constant (with free constants), or the thm2 shape
    V = s x^4 + t x^2 + r, W = 4 g(g+1) s x^2 + w (closes at m >= g
    whatever the shift w)."""
    kind = draw(st.sampled_from(("random", "constant_w", "thm2")))
    V = draw(chain_xpolys(draw(st.integers(0, 3))))
    if kind == "random":
        return V, draw(chain_xpolys(draw(st.integers(1, 2)))), draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    if kind == "constant_w":
        return V, draw(chain_xpolys(0)), m
    s, t, r = (draw(st.sampled_from(CHAIN_SCALARS[1:])) for _ in range(3))
    g = draw(st.integers(1, 2))
    V = XPoly(CHAIN_RING, [r, 0, t, 0, s])
    return V, XPoly(CHAIN_RING, [draw(st.sampled_from(CHAIN_SCALARS)), 0, 4 * g * (g + 1) * s]), m


@settings(max_examples=30, deadline=None)
@given(
    chain_cases(),
    st.dictionaries(
        st.sampled_from(("C1", "C2", "C3", "C4", "C5")),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ),
)
def test_sequence_matches_rung_by_rung_reference(case, free_values):
    V, W, m = case
    assert_matches_reference(V, W, m, free_values)


def test_family_sequences_match_rung_by_rung_reference():
    cases = [("thm1", {"g": g}, g) for g in range(1, 9)]
    cases += [("thm2", {"g": g}, g) for g in range(1, 9)]
    cases += [("thm3", {"n": n, "b_mult": 2}, m) for n in range(4, 9) for m in (1, 2, 3, 4)]
    cases += [("mironov_x3", {"g": g}, g) for g in range(1, 6)]
    for kind, params, m in cases:
        ring, V, W = build_family(FamilySpec(kind, params))
        outcome = assert_matches_reference(V, W, m)
        assert outcome.feasible == expected_feasible(FamilySpec(kind, params), m)


def test_pinned_constant_at_two_nonzero_free_values():
    # C3 = 4096 A2^3 - 256 A2^2 C1 + 16 A2 C2, taken at C1 = 3/7 and C2 = -2
    ring, V, W = build_family(FamilySpec("thm1", {"g": 1}))
    outcome = assert_matches_reference(V, W, 3, {"C1": Fraction(3, 7), "C2": -2})
    assert outcome.free == ("C1", "C2")
    assert set(outcome.forms["C3"]) == {None, "C1", "C2"}


def test_prefix_chain_matches_a_fresh_build():
    ring, V, W = build_family(FamilySpec("thm2", {"g": 2, "A0": 1}))
    short = build_qchain(V, W, 2)
    for m in (1, 2, 4):
        fresh = build_qchain(V, W, m)
        reused = build_qchain(V, W, m, prefix=short)
        assert (reused.u, reused.v, reused.ring) == (fresh.u, fresh.v, fresh.ring)
        assert reused.entries == fresh.entries
    with pytest.raises(ChainError):
        build_qchain(V, W.scale(2), 3, prefix=short)
