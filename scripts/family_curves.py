#!/usr/bin/env python3
"""Print the certifying data for the closed-form families.

For each showcase family this solves the closing chain, prints the solved
constants, the certificate Q, and the hyperelliptic curve w^2 = F(z), all
symbolically.  The classical rank-2/rank-3 pairs are checked through their
defining operator identities.
"""

import argparse

from weylcurve import DiffOp, FamilySpec, build_family, dixmier_pair, solve_pair

SHOWCASES = [
    ("x^6 family, g=m=1", "thm1", {"g": 1}, 1),
    ("x^6 family, g=m=3, A2=0", "thm1", {"g": 3, "A2": 0}, 3),
    ("x^4 family, g=m=1", "thm2", {"g": 1}, 1),
    ("x^4 family, g=m=3, A2=A0=0", "thm2", {"g": 3, "A2": 0, "A0": 0}, 3),
    ("x^5 family, B=18A, m=1", "thm3", {"n": 5, "m": 1}, 1),
    ("x^3 family, g=1", "mironov_x3", {"g": 1}, 1),
]


def show_family(title: str, kind: str, params: dict, m: int) -> None:
    ring, V, W = build_family(FamilySpec(kind, params))
    solution = solve_pair(V, W, m)
    outcome = solution.outcome
    print(f"== {title}")
    print(f"   V = {V}")
    print(f"   W = {W}")
    print(f"   solve: {outcome.status}")
    for name in sorted(outcome.assignment):
        print(f"     {name} = {outcome.assignment[name]}")
    if outcome.free:
        print(f"     free: {', '.join(outcome.free)} (set to 0 below)")
    if outcome.side_conditions:
        conds = ", ".join(f"{p} != 0" for p in outcome.side_conditions)
        print(f"     valid where {conds}")
    print(f"   Q = {solution.Q}")
    print(f"   w^2 = {solution.curve}")
    print()


def show_classical(rank: int) -> None:
    L, M = dixmier_pair(rank)
    ring = L.ring
    alpha = ring.param("alpha")
    gap = M * M - L**3 + DiffOp.identity(ring).scale(alpha)
    print(f"== classical rank-{rank} pair (orders {L.order}, {M.order})")
    print(f"   [L, M] = {L.commutator(M)}")
    print(f"   M^2 - L^3 + alpha = {gap}")
    print(f"   spectral curve: w^2 = z^3 - alpha")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()
    for title, kind, params, m in SHOWCASES:
        show_family(title, kind, params, m)
    for rank in (2, 3):
        show_classical(rank)


if __name__ == "__main__":
    main()
