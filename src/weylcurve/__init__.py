"""Exact tools for rank-2 commuting differential operators with polynomial coefficients.

The pipeline: build a potential pair (V, W), run the order-reduction chain to
a target degree m, solve the closing conditions for the integration
constants, check the solved values against every condition, and read the
hyperelliptic spectral curve w^2 = F(z) off the x^0 .. x^4 part of the
certificate polynomial Q, then analyse its singularity structure.  Q in full
is assembled only on request.
"""

from .scalars import (
    DEGREE_LIMIT,
    DegreeLimitError,
    ParamPoly,
    ParamRing,
    ParamScalar,
    PoleError,
    Rat,
    RESERVED_NAMES,
    mpoly_gcd,
)
from .weyl import DiffOp, XPoly, build_square_form, xpoly_integrate
from .chain import (
    ChainError,
    ConstraintSystem,
    LinearEquation,
    QChain,
    QPoly,
    SolveOutcome,
    assemble_q,
    build_qchain,
    extract_constraints,
    recursion_step,
    residual_eq2,
    solve_constants,
)
from .curve import (
    PairSolution,
    SingularityReport,
    SpectralCurve,
    UnboundParameterError,
    XDependenceError,
    curve_is_singular,
    curve_structure,
    render_zpoly,
    solve_pair,
    spectral_curve,
)
from .families import (
    KINDS,
    DegreeResult,
    FamilySpec,
    FamilySpecError,
    FamilyVerdict,
    build_family,
    dixmier_pair,
    expected_feasible,
    run_family_verdict,
    thm1_monomial_step,
    thm2_monomial_step,
    thm3_monomial_step,
    thm3_admissible_B,
)
from .parsing import ExprError, parse_diffop, parse_scalar, parse_xpoly

__all__ = [
    "ChainError",
    "ConstraintSystem",
    "DEGREE_LIMIT",
    "DegreeLimitError",
    "DegreeResult",
    "DiffOp",
    "ExprError",
    "FamilySpec",
    "FamilySpecError",
    "FamilyVerdict",
    "KINDS",
    "LinearEquation",
    "PairSolution",
    "ParamPoly",
    "ParamRing",
    "ParamScalar",
    "PoleError",
    "QChain",
    "QPoly",
    "RESERVED_NAMES",
    "Rat",
    "SingularityReport",
    "SolveOutcome",
    "SpectralCurve",
    "UnboundParameterError",
    "XDependenceError",
    "XPoly",
    "assemble_q",
    "build_family",
    "build_qchain",
    "build_square_form",
    "curve_is_singular",
    "curve_structure",
    "dixmier_pair",
    "expected_feasible",
    "extract_constraints",
    "mpoly_gcd",
    "parse_diffop",
    "parse_scalar",
    "parse_xpoly",
    "recursion_step",
    "render_zpoly",
    "residual_eq2",
    "run_family_verdict",
    "solve_constants",
    "solve_pair",
    "spectral_curve",
    "thm1_monomial_step",
    "thm2_monomial_step",
    "thm3_monomial_step",
    "thm3_admissible_B",
    "xpoly_integrate",
]
