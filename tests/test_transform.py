"""Transform layer: decomposition roundtrips and the projection algebra.

The conditional expectation has two independent routes: averaging a value
table over the cells outside the region (the table route), and masking chaos
coefficients (the chaos route, reached through decompose).  They must agree
to transform precision on arbitrary inputs.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from noisespectra import walsh
from noisespectra import (
    BrownianProgram,
    ChaosCoefficients,
    ElementarySet,
    GridMismatchError,
    ItoTerm,
    MapFactor,
    MapTerm,
    NoiseFunctional,
    SimplexKernel,
    TimeGrid,
    chaos_order_masses,
    conditional_expectation,
    decompose,
    level_projection,
    random_functional,
    reconstruct,
    spectral_measure_of,
)
from noisespectra.chaos import HERMITE
from noisespectra.functionals import (
    evaluate_table,
    expectation,
    hermite_decompose,
    inner_product,
    norm_sq,
)

GRID = TimeGrid(0, 1, 3)
N = GRID.n_cells


def region_of(mask):
    return ElementarySet.from_cells(GRID, [c for c in range(N) if mask >> c & 1])


def test_decompose_reconstruct_roundtrip(rng):
    f = random_functional(GRID, rng)
    back = reconstruct(decompose(f))
    assert_allclose(evaluate_table(back), evaluate_table(f), atol=1e-12)


def test_decompose_threshold_drops_small_entries(rng):
    f = NoiseFunctional.from_walsh_entries(GRID, {(0,): 1.0, (1,): 1e-15})
    kept = decompose(NoiseFunctional.from_table(GRID, evaluate_table(f)), tol=1e-12)
    assert set(kept.entries) == {(0,)}


def test_walsh_tol_drops_the_same_entries_from_an_expansion_and_its_table():
    # one Walsh function, one answer: the expansion and its table twin keep the same indices
    f = NoiseFunctional.from_walsh_entries(TimeGrid(0, 1, 2), {(0,): 0.6, (0, 1): 0.1,
                                                                (1,): -0.25, (2,): 0.0})
    twin = reconstruct(decompose(f))
    kept, twin_kept = decompose(f, tol=0.2).entries, decompose(twin, tol=0.2).entries
    assert kept == {(0,): 0.6, (1,): -0.25}
    assert set(twin_kept) == set(kept)
    assert_allclose([twin_kept[k] for k in kept], list(kept.values()), rtol=0, atol=1e-15)
    assert set(spectral_measure_of(f, tol=0.2).entries) == {(0,), (1,)}
    assert set(spectral_measure_of(twin, tol=0.2).entries) == {(0,), (1,)}
    # without a tol the expansion is kept as given, its zero entry too
    assert decompose(f) is f.backend


def test_hermite_expansion_keeps_its_coefficients_under_tol():
    c = ChaosCoefficients(GRID, {((0, 0, 1),): 1e-3, ((1, 0, 2),): 0.5}, kind=HERMITE)
    assert decompose(NoiseFunctional.from_chaos(c), tol=0.1) is c


def test_projection_routes_agree():
    rng = np.random.default_rng(606)
    for grid in (GRID, TimeGrid(0, 1, 1, base=10)):
        n = grid.n_cells
        regions = [
            ElementarySet.empty(grid),
            ElementarySet.full(grid),
            ElementarySet(grid, ((0, 3),)),
            ElementarySet(grid, ((2, n - 1),)),
            ElementarySet.from_cells(grid, range(0, n, 2)),
            ElementarySet.from_cells(grid, range(1, n, 2)),
        ]
        regions += [
            ElementarySet.from_cells(grid, np.flatnonzero(rng.integers(0, 2, n)))
            for _ in range(20)
        ]
        for _ in range(5):
            f = random_functional(grid, rng)
            fc = NoiseFunctional.from_chaos(decompose(f))
            for region in regions:
                table = conditional_expectation(f, region)
                chaos = conditional_expectation(fc, region)
                assert (table.kind, chaos.kind) == ("table", "chaos")
                assert_allclose(
                    evaluate_table(table), evaluate_table(chaos), rtol=0, atol=1e-12
                )


def test_table_projection_runs_no_transform(rng, monkeypatch):
    f = random_functional(GRID, rng)

    def refuse(values):
        raise AssertionError("fwht called on the table route")

    monkeypatch.setattr(walsh, "fwht", refuse)
    for region in (region_of(0), region_of(0b10110101), region_of(255)):
        g = conditional_expectation(f, region)
        assert g.kind == "table"
    with pytest.raises(AssertionError, match="fwht called"):
        decompose(f)  # the patch does reach the transform


def reference_projection(values, region):
    """The earlier table route, kept as the oracle: inside runs from the region,
    outside runs from its complement, all sorted highest first, then ``mean``
    over the outside axes and a broadcast copy."""
    runs = sorted(
        [(lo, hi, False) for lo, hi in region.ranges]
        + [(lo, hi, True) for lo, hi in region.complement().ranges],
        reverse=True,
    )
    outside = tuple(axis for axis, (_, _, out) in enumerate(runs) if out)
    if not outside:
        return values
    shape = tuple(1 << (hi - lo) for lo, hi, _ in runs)
    cube = values.reshape(shape).mean(axis=outside, keepdims=True)
    return np.broadcast_to(cube, shape).reshape(-1)


def test_table_projection_matches_reference_route():
    rng = np.random.default_rng(1313)
    for n in range(1, 7):
        grid = TimeGrid(0, 1, 0) if n == 1 else TimeGrid(0, 1, 1, base=n)
        f = random_functional(grid, rng)
        for mask in range(1 << n):
            region = ElementarySet.from_cells(grid, [c for c in range(n) if mask >> c & 1])
            got = evaluate_table(conditional_expectation(f, region))
            assert np.array_equal(got, reference_projection(f.backend.values, region))
    for n in (10, 14):
        grid = TimeGrid(0, 1, 1, base=n)
        f = random_functional(grid, rng)
        regions = [ElementarySet.empty(grid), ElementarySet.full(grid)]
        regions += [ElementarySet.from_cells(grid, np.flatnonzero(rng.integers(0, 2, n)))
                    for _ in range(198)]
        for region in regions:
            got = evaluate_table(conditional_expectation(f, region))
            assert np.array_equal(got, reference_projection(f.backend.values, region))


def test_table_projection_is_a_fresh_read_only_table(rng):
    f = random_functional(GRID, rng)
    for mask in (0, 0b10110101, 0b01111111):
        values = conditional_expectation(f, region_of(mask)).backend.values
        assert values.shape == (1 << N,) and values.dtype == np.float64
        assert not values.flags.writeable
        assert not np.shares_memory(values, f.backend.values)
        with pytest.raises(ValueError):
            values[0] = 1.0
    assert conditional_expectation(f, ElementarySet.full(GRID)) is f
    with pytest.raises(GridMismatchError):
        conditional_expectation(f, ElementarySet.full(TimeGrid(0, 2, 3)))


@settings(max_examples=30)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 2**31 - 1))
def test_projections_compose_by_intersection(mask_a, mask_b, seed):
    f = random_functional(GRID, np.random.default_rng(seed))
    a, b = region_of(mask_a), region_of(mask_b)
    lhs = conditional_expectation(conditional_expectation(f, a), b)
    rhs = conditional_expectation(f, a & b)
    assert_allclose(evaluate_table(lhs), evaluate_table(rhs), atol=1e-12)


def test_projection_extremes(rng):
    f = random_functional(GRID, rng)
    assert_allclose(
        evaluate_table(conditional_expectation(f, ElementarySet.full(GRID))),
        evaluate_table(f),
        atol=1e-12,
    )
    const = conditional_expectation(f, ElementarySet.empty(GRID))
    assert_allclose(evaluate_table(const), np.full(1 << N, expectation(f)), atol=1e-12)


def test_projection_is_idempotent_and_contractive(rng):
    f = random_functional(GRID, rng)
    region = region_of(0b1011001)
    p = conditional_expectation(f, region)
    again = conditional_expectation(p, region)
    assert_allclose(evaluate_table(again), evaluate_table(p), atol=1e-12)
    assert norm_sq(p) <= norm_sq(f) + 1e-12


def test_projection_preserves_backend_kind(rng):
    f = random_functional(GRID, rng)
    region = region_of(0b111)
    assert conditional_expectation(f, region).kind == "table"
    fc = NoiseFunctional.from_chaos(decompose(f))
    assert conditional_expectation(fc, region).kind == "chaos"
    # chaos route is pure coefficient masking, asserted bit-exact
    pc = conditional_expectation(fc, region)
    for ix, c in pc.backend.entries.items():
        assert c == fc.backend.entries[ix]


def test_program_projection_masks_kernels():
    grid = TimeGrid(0, 1, 2)
    f = NoiseFunctional.from_program(
        grid, [ItoTerm(1.0, SimplexKernel.constant(1, grid.n_cells))]
    )
    region = ElementarySet.from_cells(grid, [0, 2])
    p = conditional_expectation(f, region)
    # projecting I_1(1) onto a region leaves the integral over that region
    assert_allclose(norm_sq(p), region.cell_count / grid.n_cells, rtol=1e-12)
    q = conditional_expectation(p, ElementarySet.from_cells(grid, [2, 3]))
    assert_allclose(norm_sq(q), 1 / grid.n_cells, rtol=1e-12)


@pytest.mark.parametrize("order", [1, 2])
def test_program_projection_of_dense_kernels(order, rng):
    from itertools import combinations

    shape = (N,) if order == 1 else (N, N)
    kernel = SimplexKernel(order, N, dense=rng.standard_normal(shape))
    f = NoiseFunctional.from_program(GRID, [ItoTerm(1.5, kernel)])
    h = float(GRID.cell_length)
    for mask in (0, 0b1, 0b10110101, 0b11110000, 0b11111111):
        inside = {c for c in range(N) if mask >> c & 1}
        brute = sum(
            (1.5 * kernel.value(cells)) ** 2 * h**order
            for cells in combinations(sorted(inside), order)
        )
        p = conditional_expectation(f, region_of(mask))
        assert_allclose(norm_sq(p), brute, rtol=1e-12, atol=1e-15)


def test_level_projections_are_orthogonal_and_complete(rng):
    f = random_functional(GRID, rng)
    parts = [level_projection(f, k) for k in range(N + 1)]
    total = np.sum([evaluate_table(p) for p in parts], axis=0)
    assert_allclose(total, evaluate_table(f), atol=1e-11)
    for i in range(3):
        for j in range(i + 1, 4):
            assert abs(inner_product(parts[i], parts[j])) < 1e-12


def test_chaos_order_masses_sum_to_norm(rng):
    f = random_functional(GRID, rng)
    masses = chaos_order_masses(f)
    assert set(masses) <= set(range(N + 1))
    assert_allclose(sum(masses.values()), norm_sq(f), rtol=1e-12)
    for k, m in masses.items():
        assert_allclose(m, norm_sq(level_projection(f, k)), rtol=1e-10, atol=1e-13)


def test_level_projection_on_ito_programs():
    grid = TimeGrid(0, 1, 3)
    n = grid.n_cells
    f = NoiseFunctional.from_program(
        grid,
        [
            ItoTerm(1.0, SimplexKernel.constant(1, n)),
            ItoTerm(2.0, SimplexKernel.constant(2, n)),
        ],
    )
    only1 = level_projection(f, 1)
    assert_allclose(norm_sq(only1), 1.0, rtol=1e-12)
    only2 = level_projection(f, 2)
    assert_allclose(norm_sq(only2), 4.0 * math.comb(n, 2) / n**2, rtol=1e-12)
    assert level_projection(f, 3).backend.terms == ()


def test_level_projection_rejects_negative_order(rng):
    with pytest.raises(ValueError):
        level_projection(random_functional(GRID, rng), -1)


@pytest.mark.parametrize("ranges", [(), ((0, 2),), ((1, 3), (5, 8)), ((2, 8),)])
def test_program_projection_of_map_terms_is_the_chaos_route(ranges):
    # every map term keeps factors inside the region and leaves others outside (all of them
    # on the empty region); polynomial maps under the degree cap expand with no residual
    grid = TimeGrid(0, 1, 3)
    rng = np.random.default_rng(len(ranges))

    def term(slots):
        return MapTerm(float(rng.uniform(0.5, 2.0)), tuple(
            MapFactor(c, ch, "poly", tuple(rng.standard_normal(3).tolist())) for c, ch in slots))

    program = BrownianProgram((term([(0, 0), (2, 1), (6, 0)]), term([(1, 1), (7, 0)]),
                               ItoTerm(0.5, SimplexKernel.separable([rng.standard_normal(8)]))),
                              3, 2)
    region = ElementarySet(grid, ranges)
    projected = conditional_expectation(NoiseFunctional(grid, program), region).backend
    got = hermite_decompose(grid, projected)
    want = conditional_expectation(NoiseFunctional.from_chaos(hermite_decompose(grid, program)),
                                   region).backend
    assert max(got.residual, want.residual) <= 1e-12
    keys = set(got.entries) | set(want.entries)
    assert max(abs(got.entries.get(ix, 0.0) - want.entries.get(ix, 0.0)) for ix in keys) <= 1e-12
