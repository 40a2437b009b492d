"""One owner per argument rule: boundary indices by `grid._boundary`, integer orders,
counts and cells by `grid._integer`/`_integers`, and the truncation residual by
`SpectralMeasure._require_resolved` at every query that locates mass."""
import re
from fractions import Fraction

import numpy as np
import pytest

from noisespectra import (
    BackendError,
    ElementarySet,
    ItoTerm,
    MapFactor,
    MapTerm,
    NoiseFunctional,
    SimplexKernel,
    SpectralMeasure,
    TimeGrid,
    cardinality_profile,
    endpoint_mass_profile,
    fiber_characters,
    fiber_gram,
    left_of,
    level_projection,
    mass_meeting_interval,
    mass_of_subsets_of,
    n_point_marginal,
    npoint_density_estimate,
    product,
    random_functional,
    restrict,
    right_of,
    sample_sets,
    spectral_measure_of,
    straddle_mass,
)
from noisespectra.functionals import evaluate_table

GRID = TimeGrid(0, 1, 3)


def _table(grid, seed):
    return random_functional(grid, np.random.default_rng(seed))


def _refused(what, value, call):
    text = f"{what} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call(value)


# -- boundary indices ---------------------------------------------------------

BOUNDARY_READERS = {
    "TimeGrid.boundary": GRID.boundary,
    "left_of": lambda b: left_of(GRID, b),
    "right_of": lambda b: right_of(GRID, b),
    "straddle_mass": lambda b: straddle_mass(spectral_measure_of(_table(GRID, 0)), b),
}


@pytest.mark.parametrize("reader", BOUNDARY_READERS)
def test_boundary_indices_are_integers_in_0_to_n_cells(reader):
    read = BOUNDARY_READERS[reader]
    # a truncating read would take 2.9 as boundary 2 and True as boundary 1
    for b in (2.9, 7.999, True, False, 1.0, np.float64(2.0), "1", None):
        _refused("boundary index", b, read)
    for b in (-1, GRID.n_cells + 1, 1 << 70):
        with pytest.raises(ValueError, match=rf"^boundary index {b} out of range 0\.\.8$"):
            read(b)
    for b in range(GRID.n_cells + 1):  # numpy integers read as the Python int
        assert read(np.int64(b)) == read(np.uint8(b)) == read(b)


def test_boundary_times_are_exact_fractions_of_python_ints():
    for b in (np.int64(3), np.uint64(3), 3):
        t = GRID.boundary(b)
        assert t == Fraction(3, 8) and type(t.numerator) is int and type(t.denominator) is int
    wide = TimeGrid(0, 1, 40)  # h * i past int32 stays exact
    assert wide.boundary(np.int32(2**31 - 1)) == Fraction(2**31 - 1, 2**40)


# -- orders, counts and cells -------------------------------------------------

TABLE = _table(GRID, 5)
MU = spectral_measure_of(TABLE)
I1 = NoiseFunctional.from_program(GRID, [ItoTerm(1.0, SimplexKernel.constant(1, 8))])
BAD = (1.5, True, False, np.float64(1.0), "1", None)


@pytest.mark.parametrize("order", BAD)
def test_chaos_orders_are_integers(order):
    _refused("chaos order", order, lambda k: level_projection(TABLE, k))


@pytest.mark.parametrize("order", BAD)
def test_marginal_orders_are_integers(order):
    _refused("marginal order", order, lambda k: n_point_marginal(MU, k))


@pytest.mark.parametrize("count", BAD)
def test_sample_counts_are_integers_before_any_measure_is_built(count):
    _refused("sample count", count, lambda k: sample_sets(MU, k, 0))
    # the count is read first: a source that is no functional never gets asked for a measure
    _refused("sample count", count, lambda k: sample_sets(object(), k, 0))


@pytest.mark.parametrize("order", BAD)
def test_density_orders_are_integers(order):
    _refused("density order", order, lambda k: npoint_density_estimate(I1, k, 64, 0))


@pytest.mark.parametrize("cells", ([0.5, 1.7], [True], [0, 1.0], [np.float64(2.0)]))
def test_fiber_cells_are_integers(cells):
    bad = next(c for c in cells if type(c) is bool or not isinstance(c, (int, np.integer)))
    text = f"fiber cells must be integers, got {bad!r}"
    for call in (lambda: fiber_gram(cells, 2), lambda: fiber_characters(GRID, cells, 2)):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            call()


def test_numpy_integer_orders_counts_and_cells_keep_their_results():
    for k in (np.int64(2), np.uint8(2)):
        assert np.array_equal(evaluate_table(level_projection(TABLE, k)),
                              evaluate_table(level_projection(TABLE, 2)))
        assert n_point_marginal(MU, k).entries == n_point_marginal(MU, 2).entries
        drawn = [s.cells for s in sample_sets(MU, k * 10, 3)]
        assert drawn == [s.cells for s in sample_sets(MU, 20, 3)]
    cells = np.array([0, 2, 5], dtype=np.int32)
    assert np.array_equal(fiber_gram(cells, 2), fiber_gram([0, 2, 5], 2))
    assert ([f.backend.entries for f in fiber_characters(GRID, cells, 2)]
            == [f.backend.entries for f in fiber_characters(GRID, [5, 0, 2], 2)])


def test_numpy_density_orders_run_and_record_the_int_order():
    want = npoint_density_estimate(I1, 1, 256, 7)
    got = npoint_density_estimate(I1, np.int64(1), 256, 7)
    assert type(got.order) is int and got.order == 1
    assert np.array_equal(got.densities, want.densities)
    assert got.mean_density_stderr == want.mean_density_stderr


# -- the truncation residual --------------------------------------------------


def _exp_program():
    """exp(z) on each of 4 cells at degree cap 1: a residual no located query can place."""
    grid = TimeGrid(0, 1, 2)
    return NoiseFunctional.from_program(
        grid, [MapTerm(1.0, tuple(MapFactor(c, 0, "exp") for c in range(4)))], degree_cap=1)


UNRESOLVED = r"unresolved truncation residual$"


def test_located_queries_refuse_an_unresolved_residual():
    f = _exp_program()
    mu = spectral_measure_of(f)
    assert mu.residual > 1e-9 * mu.total_mass
    region = ElementarySet(mu.grid, ((0, 2),))
    located = {
        "mass_meeting_interval": lambda: mass_meeting_interval(mu, 0, Fraction(1, 2)),
        "endpoint_mass_profile": lambda: endpoint_mass_profile(f, Fraction(1, 2), [0.1, 0.3]),
        "n_point_marginal": lambda: n_point_marginal(mu, 1),
        "mass_of_subsets_of": lambda: mass_of_subsets_of(mu, region),
        "restrict": lambda: restrict(mu, region),
        "sample_sets": lambda: sample_sets(mu, 3, 0),
        "product": lambda: product(mu, spectral_measure_of(_table(TimeGrid(1, 2, 2), 0))),
    }
    for query in located.values():
        with pytest.raises(BackendError, match=UNRESOLVED):
            query()
    # a cut query adds the residual; a profile reports it apart
    assert straddle_mass(mu, 2) == mu.model.straddle_masses(np.array([2]))[0] + mu.residual
    assert sum(cardinality_profile(mu).values()) + mu.multiplicity_mass + mu.residual == (
        pytest.approx(mu.total_mass, rel=1e-12))


def test_product_refuses_residual_and_drops_rounding_residue():
    left = spectral_measure_of(_table(TimeGrid(0, 1, 2), 1))
    right = spectral_measure_of(_table(TimeGrid(1, 2, 2), 2))
    with_residual = lambda mu, r: SpectralMeasure(mu.grid, dict(mu.entries), residual=r)
    for pair in ((with_residual(left, 0.5), right), (left, with_residual(right, 0.5))):
        with pytest.raises(BackendError, match=UNRESOLVED):
            product(*pair)
    # at most 1e-9 of the total, a residual is rounding: the product drops it
    tiny = with_residual(left, 1e-30)
    assert 1e-30 <= 1e-9 * tiny.total_mass
    want, got = product(left, right), product(tiny, right)
    assert got.residual == want.residual == 0.0
    assert np.array_equal(got.model.rows, want.model.rows)
    assert np.array_equal(got.model.mass, want.model.mass)
