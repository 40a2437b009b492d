"""The defining identity of a spectral measure, run on a concrete example.

For any functional f and elementary set A, the mass the measure gives to
spectral sets inside A equals the squared norm of the conditional
expectation of f on A.  Products of functionals on adjacent windows carry
the product measure.
"""
from fractions import Fraction

import numpy as np

from noisespectra import (
    ElementarySet,
    NoiseFunctional,
    TimeGrid,
    conditional_expectation,
    inner_product,
    mass_of_subsets_of,
    product,
    restrict,
    spectral_measure_of,
    tensor_product,
)
from noisespectra.functionals import random_functional


def main() -> None:
    grid = TimeGrid(0, 1, 3)
    rng = np.random.default_rng(11)
    f = random_functional(grid, rng)
    mu = spectral_measure_of(f)
    print(f"f on {grid.n_cells} cells, total spectral mass {mu.total_mass:.6f}")

    region = ElementarySet.parse(grid, "0:3,5:6")
    lhs = mass_of_subsets_of(mu, region)
    g = conditional_expectation(f, region)
    rhs = inner_product(g, g)
    print(f"A = {region}")
    print(f"  mu{{C inside A}}   = {lhs!r}")
    print(f"  ||E(f|A)||^2      = {rhs!r}")
    print(f"  difference        = {abs(lhs - rhs):.3e}")

    # restriction is literally the measure of the projection
    nu = restrict(mu, region)
    print(f"  restricted mass   = {nu.total_mass!r} over {len(nu.entries)} sets")

    # adjacent windows: measure of a product is the product measure
    half = Fraction(1, 2)
    a = random_functional(TimeGrid(0, half, 2), rng)
    b = random_functional(TimeGrid(half, 1, 2), rng)
    ab = tensor_product(a, b)
    mu_ab = spectral_measure_of(ab)
    mu_prod = product(spectral_measure_of(a), spectral_measure_of(b))
    worst = max(
        abs(mu_ab.entries.get(k, 0.0) - mu_prod.entries.get(k, 0.0))
        for k in set(mu_ab.entries) | set(mu_prod.entries)
    )
    print(f"product-measure identity on 4+4 cells: max entry error {worst:.3e}")


if __name__ == "__main__":
    main()
