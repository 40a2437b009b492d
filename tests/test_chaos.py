import numpy as np
import pytest
from numpy.testing import assert_allclose

from noisespectra import BrownianProgram, ItoTerm, MapFactor, MapTerm, SimplexKernel, TimeGrid
from noisespectra.chaos import (
    HERMITE,
    WALSH,
    ChaosCoefficients,
    add_coefficients,
    hermite_index,
    shift_index,
    walsh_index,
)
from noisespectra.functionals import hermite_decompose
from noisespectra.walsh import _checked_rows, cells_of_rows, row_sizes
from test_merged_routes import old_index_cardinality, old_index_has_multiplicity, old_index_support

GRID = TimeGrid(0, 1, 2)


def test_walsh_index_sorts_and_rejects_repeats():
    assert walsh_index([3, 0, 1]) == (0, 1, 3)
    assert walsh_index([]) == ()
    with pytest.raises(ValueError):
        walsh_index([1, 1])


def test_hermite_index_validation():
    ix = hermite_index([(2, 0, 1), (0, 1, 3)])
    assert ix == ((0, 1, 3), (2, 0, 1))
    with pytest.raises(ValueError):
        hermite_index([(0, 0, 0)])  # degree must be >= 1
    with pytest.raises(ValueError):
        hermite_index([(0, 0, 1), (0, 0, 2)])  # same (cell, channel) twice


@pytest.mark.parametrize("point", [(1.7, 0, 1), (True, 0, 1.9), (1, 0.0, 1), (1, False, 1),
                                   (1, 0, 2.0), (1, 0, True)])
def test_hermite_index_takes_integers_only(point):
    with pytest.raises(ValueError, match=r"Hermite index \[\(.*\)\]: .* must be integers"):
        hermite_index([(0, 0, 1), point])
    ix = hermite_index([(np.int64(1), np.uint8(0), np.int32(2))])
    assert ix == ((1, 0, 2),) and all(type(v) is int for v in ix[0])


def _hermite(grid, *indices, channels=2):
    """A Hermite expansion holding `indices`, in that order, each with coefficient 1."""
    return ChaosCoefficients(grid, dict.fromkeys(map(hermite_index, indices), 1.0), HERMITE,
                             channels)


def test_support_and_cardinality():
    grid = TimeGrid(0, 1, 3)
    walsh = ChaosCoefficients(grid, {walsh_index([2, 5]): 1.0})
    assert cells_of_rows(walsh.rows, 8) == [(2, 5)]
    c = _hermite(grid, [(1, 0, 2), (1, 1, 1), (4, 0, 1)], [])
    assert cells_of_rows(c.rows, 8) == [(1, 4), ()]
    assert row_sizes(c.rows).tolist() == [2, 0]


def test_multiplicity_detection():
    assert ChaosCoefficients(GRID, {walsh_index([0, 1]): 1.0}).multiplicity.tolist() == [False]
    c = _hermite(GRID, [(0, 0, 1), (1, 0, 1)], [(0, 0, 2)],
                 [(0, 0, 1), (0, 1, 1)])  # degree summed across channels of one cell
    assert c.multiplicity.tolist() == [False, True, True]


def test_shift_index_wraps():
    ix = walsh_index([0, 3])
    assert shift_index(ix, 1, 4) == (0, 1)
    assert shift_index(ix, 1, 8) == (1, 4)
    assert shift_index(ix, -1, 4) == (2, 3)
    h = hermite_index([(3, 0, 2)])
    assert shift_index(h, 2, 4) == ((1, 0, 2),)


def test_coefficients_container():
    c = ChaosCoefficients(GRID, {(): 2.0, (0,): 1.0, (1, 2): -3.0})
    assert c.kind == WALSH
    assert_allclose(c.norm_sq, 4 + 1 + 9)
    assert_allclose(c.expectation, 2.0)
    assert c.coefficient((1, 2)) == -3.0
    assert c.coefficient((3,)) == 0.0
    only_pairs = c.filtered(lambda ix: len(ix) == 2)
    assert set(only_pairs.entries) == {(1, 2)}
    assert_allclose(c.scaled(2.0).norm_sq, 4 * c.norm_sq)


def test_sorted_items_orders_by_cardinality_then_index():
    c = ChaosCoefficients(GRID, {(1, 2): 1.0, (): 1.0, (3,): 1.0, (0,): 1.0})
    assert [ix for ix, _ in c.sorted_items()] == [(), (0,), (3,), (1, 2)]


def test_add_coefficients():
    a = ChaosCoefficients(GRID, {(0,): 1.0, (1,): 2.0})
    b = ChaosCoefficients(GRID, {(1,): -2.0, (2,): 5.0})
    s = add_coefficients(a, b)
    assert s.entries == {(0,): 1.0, (1,): 0.0, (2,): 5.0}
    with pytest.raises(ValueError):
        add_coefficients(a, ChaosCoefficients(TimeGrid(0, 1, 3), {}))
    with pytest.raises(ValueError):
        add_coefficients(a, ChaosCoefficients(GRID, {}, kind=HERMITE))


def test_hermite_residual_rides_along():
    c = ChaosCoefficients(GRID, {((0, 0, 1),): 1.0}, kind=HERMITE, residual=0.25)
    assert c.scaled(2.0).residual == 1.0
    assert c.filtered(lambda ix: True).residual == 0.25


def test_shift_index_keeps_the_empty_index():
    assert shift_index((), 3, 4) == ()


def _random_program(rng, channels: int) -> BrownianProgram:
    """Itô terms of orders 1 and 2 and a map term with up to four factors, on random slots."""
    n = GRID.n_cells
    slots = {(int(c), int(rng.integers(channels))) for c in rng.integers(0, n, size=4)}
    maps = MapTerm(float(rng.uniform(0.5, 2.0)), tuple(
        MapFactor(c, ch, "poly", tuple(rng.standard_normal(3).tolist())) for c, ch in slots))
    tags = tuple(rng.integers(0, channels, size=2).tolist())
    ito = [ItoTerm(float(rng.standard_normal()), SimplexKernel.separable([rng.standard_normal(n)],
                                                                         channels=tags[:1])),
           ItoTerm(float(rng.standard_normal()),
                   SimplexKernel(2, n, dense=rng.standard_normal((n, n)), channels=tags))]
    return BrownianProgram((*ito, maps), degree_cap=3, channels=channels)


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_multiplicity_column_is_index_has_multiplicity(channels, seed):
    c = hermite_decompose(GRID, _random_program(np.random.default_rng(seed), channels))
    want = [old_index_has_multiplicity(ix) for ix in c.entries]
    assert c.multiplicity.dtype == bool and c.multiplicity.tolist() == want
    assert any(want) and not all(want)
    kept = c.filtered(~c.multiplicity)  # a selection builds its own column
    assert kept.multiplicity.tolist() == [False] * len(kept.coeffs)


def test_multiplicity_column_is_all_false_on_a_walsh_expansion():
    c = ChaosCoefficients(GRID, {(): 2.0, (0,): 1.0, (1, 2): -3.0, (0, 1, 2, 3): 0.5})
    assert c.multiplicity.dtype == bool and c.multiplicity.tolist() == [False] * 4
    assert ChaosCoefficients(GRID, {}).multiplicity.shape == (0,)
    assert ChaosCoefficients(GRID, {}, HERMITE).multiplicity.shape == (0,)


def _random_sites(rng, n_cells, channels):
    """Up to five sites at distinct (cell, channel) slots, degree 1 likeliest, up to 4; half
    of the indices draw their cells from two, so that channels of one cell meet."""
    k = int(rng.integers(0, 6))
    pool = rng.integers(0, n_cells, size=2) if rng.random() < 0.5 else np.arange(n_cells)
    slots = {(int(c), int(rng.integers(channels))) for c in rng.choice(pool, size=k)}
    return [(c, ch, int(rng.choice([1, 1, 1, 1, 2, 3, 4]))) for c, ch in slots]


@pytest.mark.parametrize("n_cells", [70, 130])  # two- and three-word rows
@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_hermite_columns_are_the_per_index_rules(n_cells, channels, seed):
    rng = np.random.default_rng([seed, channels, n_cells])
    last = channels - 1
    fixed = [
        [], [(7, 0, 2)], [(63, 0, 1), (64, last, 1), (n_cells - 1, 0, 1)],
        # the last site of one index and the first of the next share cell 9; neither has
        # multiplicity, nor has the index after them
        [(1, 0, 1), (9, 0, 1)], [(9, last, 1), (20, 0, 1)], [(20, last, 1), (64, 0, 1)],
        [(5, 0, 1), (5, last, 1)] if last else [(5, 0, 1)],  # a cell carrying two channels
    ]
    c = _hermite(TimeGrid(0, 1, 1, base=n_cells), *fixed,
                 *(_random_sites(rng, n_cells, channels) for _ in range(300)), channels=channels)
    keys = list(c.entries)
    assert keys[:len(fixed)] == [*map(hermite_index, fixed)]
    assert c.rows.dtype == np.uint64
    assert np.array_equal(c.rows, _checked_rows([*map(old_index_support, keys)], n_cells)[0])
    assert row_sizes(c.rows).tolist() == [*map(old_index_cardinality, keys)]
    want = [*map(old_index_has_multiplicity, keys)]
    assert c.multiplicity.tolist() == want
    assert want[:6] == [False, True, False, False, False, False] and want[6] == (channels > 1)
    assert sum(want) > 50 and not all(want)
    assert c.sorted_items() == sorted(c.entries.items(),
                                      key=lambda kv: (old_index_cardinality(kv[0]), kv[0]))


def test_the_first_read_of_either_hermite_column_makes_both():
    for first in ("rows", "multiplicity"):
        c = _hermite(GRID, [(0, 0, 1), (0, 1, 1)], [(3, 1, 1)])
        assert "rows" not in vars(c) and "multiplicity" not in vars(c)
        getattr(c, first)
        assert cells_of_rows(vars(c)["rows"], 4) == [(0,), (3,)]
        assert vars(c)["multiplicity"].tolist() == [True, False]
