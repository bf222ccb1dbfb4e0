#!/usr/bin/env python3
"""Certify and scan a randomized corpus of planar centers of two kinds.

The rows alternate.  Even rows have the monomial shape P = a x^N1 y^M1,
Q = b x^N2 y^M2 with M1 odd and M2 even, so the planar parity test
certifies a center.  Odd rows are quadratics P = (q/2)(x^2 - y^2) + p xy,
Q = q xy with q != 0: no circle parity test applies, but the reduced
coefficients f and g are odd, so the paper's odd-coefficient theorem
certifies a center.  The displacement scan then confirms each certificate
numerically.  The script prints one row per system with the certificate
basis and verdict, the scan verdict, and the worst displacement over the
default grid.
"""

from __future__ import annotations

import argparse
from fractions import Fraction

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


def quadratic_subclass(p, q) -> PlanarSystem:
    """P = (q/2)(x^2 - y^2) + p xy, Q = q xy.

    For q != 0 neither the planar parity test nor a nonzero mean of A
    decides, yet the reduced f and g are both odd.
    """
    p, q = Fraction(p), Fraction(q)
    return PlanarSystem(n=2, P=HomogPoly((q / 2, p, -q / 2)), Q=HomogPoly((0, q, 0)))


def make_quadratic(rng: np.random.Generator) -> PlanarSystem:
    """Random member of :func:`quadratic_subclass` with small integer p and q != 0."""
    p = int(rng.integers(-3, 4))
    q = int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return quadratic_subclass(p, q)


def describe(system: PlanarSystem) -> str:
    def poly(p: HomogPoly) -> str:
        terms = [f"{c}*x^{p.degree - j}*y^{j}" for j, c in enumerate(p.coeffs) if c]
        return " + ".join(terms) or "0"

    return f"n={system.n}  P={poly(system.P)}  Q={poly(system.Q)}"


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
    print(f"{'system':<60} {'basis':<16} {'verdict':<18} {'scan':<17} max|d|")
    for i in range(args.count):
        system = (make_system, make_quadratic)[i % 2](rng)
        cert = classify_planar(system)
        problem = abel_from_planar(system)
        report = displacement_scan(problem, default_rho_grid(problem, config), config)
        max_d = float(np.max(np.abs(report.displacements)))
        worst = max(worst, max_d)
        print(
            f"{describe(system):<60} {cert.basis.value:<16} {cert.verdict.value:<18} "
            f"{report.classification.value:<17} {max_d:.3e}"
        )
    print(f"\nworst displacement over the corpus: {worst:.3e}")


if __name__ == "__main__":
    main()
