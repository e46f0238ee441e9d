#!/usr/bin/env python3
"""Scan spectral-curve singularity over (g, m) grids.

Evidence-gathering for two unproved patterns, with all coefficient symbols
bound to simple rationals:

  * x^6 family (A6=A2=1): at m=g the curve looks non-singular for every g,
    and for m>g always singular.
  * x^4 family reduced to V=A4x^4 (A4=1, A2=A0=0): at m=g the curve looks
    singular exactly when g = 3k-1 (g = 2, 5, 8, ...).

The script prints one row per grid cell and asserts nothing; re-run with a
larger --g-max to push the evidence further.
"""

import argparse

from weylcurve import FamilySpec, build_family, curve_is_singular, solve_pair


def scan_cell(kind: str, params: dict, m: int) -> str:
    ring, V, W = build_family(FamilySpec(kind, params))
    solution = solve_pair(V, W, m)
    if solution.curve is None:
        return "infeasible"
    tag = "singular" if curve_is_singular(solution.curve).singular else "smooth"
    if solution.outcome.free:
        tag += " (free " + ",".join(solution.outcome.free) + " -> 0)"
    return tag


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g-max", type=int, default=6, help="largest g on the diagonal")
    parser.add_argument(
        "--above-diagonal", type=int, default=2,
        help="how far past m=g to probe in the x^6 family",
    )
    args = parser.parse_args()

    print("x^6 family, A6=A2=1 (diagonal should stay smooth, above it singular):")
    for g in range(1, args.g_max + 1):
        for m in range(g, g + args.above_diagonal + 1):
            verdict = scan_cell("thm1", {"g": g, "A6": 1, "A2": 1}, m)
            marker = "m=g" if m == g else "m>g"
            print(f"  g={g} m={m} [{marker}]: {verdict}")
    print()
    print("x^4 family, A4=1, A2=A0=0 (singular expected exactly at g=3k-1):")
    for g in range(1, args.g_max + 1):
        verdict = scan_cell("thm2", {"g": g, "A4": 1, "A2": 0, "A0": 0}, g)
        expected = "singular" if (g + 1) % 3 == 0 else "smooth"
        print(f"  g=m={g}: {verdict}    (pattern says {expected})")


if __name__ == "__main__":
    main()
