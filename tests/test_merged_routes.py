"""Jobs that run one route now, bit for bit against the second routes they replaced.

Each reference below is the former implementation, kept here verbatim as the
oracle: the exact kernel norm's own simplex recursion and dense contractions,
the per-backend `norm_sq`, the Walsh reconstruction through a dense vector and
the first-chaos filter of `additive_integral_of`.  Every comparison is `==`.
"""
import numpy as np
import pytest

from noisespectra import NoiseFunctional, SimplexKernel, TimeGrid
from noisespectra.chaos import (
    HERMITE,
    WALSH,
    ChaosCoefficients,
    index_cardinality,
    index_has_multiplicity,
)
from noisespectra.functionals import (
    BrownianProgram,
    ItoTerm,
    MapFactor,
    MapTerm,
    RademacherTable,
    hermite_decompose,
    norm_sq,
    program_inner,
    random_functional,
)
from noisespectra.structure import additive_integral_of
from noisespectra.transform import decompose, reconstruct
from noisespectra.walsh import mask_of_cells, values_from_coefficients

# -- the former routes --------------------------------------------------------


def old_ordered_product_sum(slot_vectors, weights):
    acc = np.ones_like(weights)
    for vec in slot_vectors:
        term = vec * weights * acc
        acc = np.concatenate(([0.0], np.cumsum(term)[:-1]))
    return float(np.sum(term))


def old_dense_form(k):
    if k.dense is not None:
        return k.dense
    if k.order == 1:
        return k.factors[0]
    return np.triu(np.outer(*k.factors), k=1)


def old_cross_norm(a, b, cell_lengths):
    if a.order != b.order or a.channels != b.channels:
        return 0.0
    h = np.asarray(cell_lengths, dtype=np.float64)
    if a.factors is not None and b.factors is not None:
        return old_ordered_product_sum([x * y for x, y in zip(a.factors, b.factors)], h)
    prod = old_dense_form(a) * old_dense_form(b)
    if a.order == 1:
        return float(np.sum(prod * h))
    return float(np.einsum("ij,i,j->", prod, h, h))


def old_norm_sq(f):
    b = f.backend
    if isinstance(b, RademacherTable):
        return float(np.add.reduce(b.values**2) / b.values.shape[0])
    if isinstance(b, ChaosCoefficients):
        return b.norm_sq
    return program_inner(f.grid, b, b)


def old_reconstruct_values(c):
    dense = np.zeros(1 << c.grid.n_cells)
    for ix, coeff in c.entries.items():
        dense[mask_of_cells(ix)] = coeff
    return values_from_coefficients(dense)


def old_additive_coefficients(f, tol=None):
    return decompose(f, tol).filtered(
        lambda ix: index_cardinality(ix) == 1 and not index_has_multiplicity(ix)
    )


# -- random subjects -------------------------------------------------------------


def _vector(rng, n):
    """Normal entries, sometimes all ones (a unit slot) or with zeros."""
    pick = rng.integers(3)
    if pick == 0:
        return np.ones(n)
    v = rng.standard_normal(n)
    if pick == 1:
        v[rng.random(n) < 0.3] = 0.0
    return v


def _kernel(layout, order, n, rng, channels=()):
    if layout == "separable":
        return SimplexKernel.separable([_vector(rng, n) for _ in range(order)], channels)
    shape = (n,) if order == 1 else (n, n)
    return SimplexKernel(order, n, dense=rng.standard_normal(shape), channels=channels)


PAIRS = [("separable", "separable", order) for order in (1, 2, 3, 4)] + [
    (a, b, order)
    for order in (1, 2)
    for a, b in [("dense", "dense"), ("dense", "separable"), ("separable", "dense")]
]


@pytest.mark.parametrize("left, right, order", PAIRS)
def test_cross_norm_is_the_former_formula_bit_for_bit(left, right, order):
    rng = np.random.default_rng(7000 + 10 * order + len(left) + 3 * len(right))
    for trial in range(150):
        n = int(rng.integers(order, 13))
        h = rng.uniform(0.01, 2.0, n) if trial % 2 else np.full(n, 1.0 / n)
        a = _kernel(left, order, n, rng)
        b = _kernel(right, order, n, rng)
        assert a.cross_norm(b, h) == old_cross_norm(a, b, h)
        assert a.cross_norm(a, h) == old_cross_norm(a, a, h)
    other = _kernel(right, order, n, rng, channels=(1,) * order)
    assert a.cross_norm(other, h) == old_cross_norm(a, other, h) == 0.0


GRID = TimeGrid(0, 1, 3)  # 8 cells


def _walsh_chaos(rng):
    entries = {}
    for _ in range(12):
        cells = tuple(sorted(rng.choice(8, size=int(rng.integers(0, 5)), replace=False)))
        entries[tuple(int(c) for c in cells)] = float(rng.standard_normal())
    return NoiseFunctional.from_chaos(ChaosCoefficients(GRID, entries, WALSH))


def _program(rng):
    k1 = SimplexKernel.separable([rng.standard_normal(8)])
    k2 = SimplexKernel(2, 8, dense=rng.standard_normal((8, 8)))
    cells = rng.choice(8, size=2, replace=False)
    maps = MapTerm(float(rng.uniform(0.5, 2.0)), (
        MapFactor(int(cells[0]), 0, "sin", (float(rng.uniform(0.5, 1.5)),)),
        MapFactor(int(cells[1]), 0, "poly", (0.3, 1.0, 0.5)),
    ))
    terms = (ItoTerm(0.7, k1), ItoTerm(-1.3, k2), maps)
    return NoiseFunctional(GRID, BrownianProgram(terms, degree_cap=4))


def _subjects(seed):
    rng = np.random.default_rng(seed)
    program = _program(rng)
    return {
        "table": random_functional(GRID, rng),
        "walsh-chaos": _walsh_chaos(rng),
        "hermite-chaos": NoiseFunctional.from_chaos(hermite_decompose(GRID, program.backend)),
        "program": program,
    }


@pytest.mark.parametrize("seed", range(5))
def test_norm_sq_is_the_former_per_backend_route(seed):
    for f in _subjects(seed).values():
        assert norm_sq(f) == old_norm_sq(f)


@pytest.mark.parametrize("seed", range(5))
def test_reconstruct_is_the_former_dense_vector_route(seed):
    rng = np.random.default_rng(seed)
    c = decompose(random_functional(GRID, rng))
    for chaos in (c, _walsh_chaos(rng).backend):
        values = reconstruct(chaos).backend.values
        assert np.array_equal(values, old_reconstruct_values(chaos))
        assert not values.flags.writeable
    hermite = hermite_decompose(GRID, _program(rng).backend)
    assert reconstruct(hermite).backend is hermite


@pytest.mark.parametrize("seed", range(5))
def test_additive_integral_is_the_former_first_chaos_filter(seed):
    for f in _subjects(seed).values():
        for tol in (None, 0.3):
            got = additive_integral_of(f, tol).coefficients
            want = old_additive_coefficients(f, tol)
            assert got.entries == want.entries
            assert list(got.entries) == list(want.entries)
            assert (got.kind, got.channels, got.residual) == (
                want.kind, want.channels, want.residual)
    assert {HERMITE, WALSH} == {
        additive_integral_of(f).coefficients.kind for f in _subjects(seed).values()
    }
