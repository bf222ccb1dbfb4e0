#!/usr/bin/env python3
"""Certify and scan a randomized corpus of parity-symmetric planar systems.

Each system has the monomial shape P = a x^N1 y^M1, Q = b x^N2 y^M2 with
M1 odd and M2 even, so the symbolic layer certifies a center; the
displacement scan then confirms the certificate numerically.  The script
prints one row per system with the certificate basis, the scan verdict,
and the worst displacement over the default grid.
"""

from __future__ import annotations

import argparse

import numpy as np

from abelcenter import (
    HomogPoly,
    PlanarSystem,
    SolverConfig,
    abel_from_planar,
    classify_planar,
    default_rho_grid,
    displacement_scan,
)


def make_system(rng: np.random.Generator) -> PlanarSystem:
    """Random monomial system whose circle functions have odd/even parity.

    P = a x^N1 y^M1 with M1 odd and Q = b x^N2 y^M2 with M2 even, so
    P(cos, sin) is odd and Q(cos, sin) is even in the angle.
    """
    n = int(rng.choice([2, 4, 6]))
    m1 = int(rng.choice(np.arange(1, n + 1, 2)))
    m2 = int(rng.choice(np.arange(0, n + 1, 2)))
    a = int(rng.choice([-3, -2, -1, 1, 2, 3]))
    b = int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return PlanarSystem(
        n=n,
        P=HomogPoly.monomial(n, m1, a),
        Q=HomogPoly.monomial(n, m2, b),
    )


def describe(system: PlanarSystem) -> str:
    def term(p: HomogPoly) -> str:
        for j, c in enumerate(p.coeffs):
            if c:
                return f"{c}*x^{p.degree - j}*y^{j}"
        return "0"

    return f"n={system.n}  P={term(system.P):>14}  Q={term(system.Q):>14}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=20, help="corpus size")
    parser.add_argument("--seed", type=int, default=20250817, help="corpus seed")
    parser.add_argument(
        "--rel-tol", type=float, default=1e-10, help="integrator relative tolerance"
    )
    args = parser.parse_args()

    config = SolverConfig(rel_tol=args.rel_tol)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    print(f"{'system':<52} {'verdict':<18} {'scan':<17} max|d|")
    for _ in range(args.count):
        system = make_system(rng)
        cert = classify_planar(system)
        problem = abel_from_planar(system)
        report = displacement_scan(problem, default_rho_grid(problem, config), config)
        max_d = float(np.max(np.abs(report.displacements)))
        worst = max(worst, max_d)
        print(
            f"{describe(system):<52} {cert.verdict.value:<18} "
            f"{report.classification.value:<17} {max_d:.3e}"
        )
    print(f"\nworst displacement over the corpus: {worst:.3e}")


if __name__ == "__main__":
    main()
