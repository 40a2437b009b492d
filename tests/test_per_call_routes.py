"""Per-call routes of the query path, bit for bit against the routes they replaced.

Each `old_*` function below is the former implementation, kept here verbatim as
the oracle: the table projection's broadcast division over all 2**n entries,
the Walsh measure's per-axis generator index and the masked array pass behind a
single `cut_distance`.  The projection runs on normal draws, signs and signed
zeros, at 10, 16 and 20 cells and on two families, through every branch of its
outside sums.  Array-built sets are checked against their tuple-built twins,
and the grid checks that now share `require_same_grid` keep their error class.
Every comparison is `==` or on the raw bytes.
"""
import copy
import pickle

import numpy as np
import pytest

from noisespectra import (
    ElementarySet,
    GridMismatchError,
    NoiseFunctional,
    TimeGrid,
    conditional_expectation,
    cut_distance,
    inner_product,
    interior_cut_distances,
    mass_of_subsets_of,
    spectral_measure_of,
)
from noisespectra.chaos import HERMITE, ChaosCoefficients, add_coefficients
from noisespectra.functionals import evaluate_table
from noisespectra.spectral import (
    SpectralMeasure,
    _WalshMasses,
    is_absolutely_continuous,
    measure_from_coefficients,
    restrict,
)
from noisespectra.walsh import run_axes


def old_conditional_expectation_values(values, region):
    n = region.grid.n_cells
    shape, outside = run_axes(region.ranges, n)
    if not outside:
        return values
    total = np.add.reduce(values.reshape(shape), axis=tuple(outside), keepdims=True)
    out = np.empty(1 << n)
    np.true_divide(total, 1 << (n - region.cell_count), out=out.reshape(shape))
    return out


def old_walsh_subset_mass(model, region):
    shape, outside = run_axes(region.ranges, model.n_cells)
    block = tuple(0 if a in outside else slice(None) for a in range(len(shape)))
    return float(model.mass.reshape(shape)[block].sum())


def old_cut_distances(mu, boundaries):
    inner = (boundaries > 0) & (boundaries < mu.grid.n_cells)
    straddle = mu.model.straddle_masses(boundaries[inner]) + mu.residual
    out = np.zeros(boundaries.shape)
    out[inner] = np.sqrt(np.maximum(straddle, 0.0))
    return out


def _all_regions(grid):
    n = grid.n_cells
    for m in range(1 << n):
        yield ElementarySet.from_cells(grid, [c for c in range(n) if m >> c & 1])


def _seeded_regions(grid, count, seed):
    rng = np.random.default_rng(seed)
    for p in rng.random(count).tolist():
        yield ElementarySet.from_cells(grid, np.flatnonzero(rng.random(grid.n_cells) < p).tolist())


TEN_CELL_TABLES = {  # draws of the 1,024 values, from one generator seeded 43
    "all-10-cell-regions": lambda rng: rng.standard_normal(1 << 10),
    "all-10-cell-regions-of-signs": lambda rng: rng.choice([-1.0, 1.0], 1 << 10),
    "all-10-cell-regions-with-signed-zeros":
        lambda rng: rng.choice([-1, -0.0, 0.0, 0.5, 1], 1 << 10),
    "all-10-cell-regions-of-zeros": lambda rng: rng.choice([-0.0, 0.0], 1 << 10),
}


def _table_and_regions(case):
    rng = np.random.default_rng(43)
    if case in TEN_CELL_TABLES:
        grid = TimeGrid(0, 1, 1, base=10)
        return NoiseFunctional.from_table(grid, TEN_CELL_TABLES[case](rng)), _all_regions(grid)
    # a full region returns the family itself, whose table `evaluate_table` makes afresh
    if case == "all-maj3-L2-regions":
        f = NoiseFunctional.from_family("majority3-iterated", 2)
        return f, (r for r in _all_regions(f.grid) if r.cell_count < 9)
    if case == "seeded-tribes-L4-regions":
        f = NoiseFunctional.from_family("tribes", 4)
        return f, (r for r in _seeded_regions(f.grid, 200, 4) if r.cell_count < 16)
    if case == "seeded-20-cell-regions":
        grid = TimeGrid(0, 1, 1, base=20)
        f = NoiseFunctional.from_table(grid, rng.standard_normal(1 << 20))
        return f, _seeded_regions(grid, 20, 20)
    grid = TimeGrid(0, 1, 4)
    return NoiseFunctional.from_table(grid, rng.standard_normal(1 << 16)), _seeded_regions(grid, 200, 16)


CASES = [*TEN_CELL_TABLES, "seeded-16-cell-regions", "seeded-20-cell-regions",
         "all-maj3-L2-regions", "seeded-tribes-L4-regions"]


def _lowest_outside_run(region):
    """Cells in the region's lowest run outside it, 3 standing for 3 or more: 0 takes the
    projection's copy and row reduce alone, 1 and 2 add the run in order first, 3 reduces."""
    ranges = region.ranges
    return min(ranges[0][0] if ranges else region.grid.n_cells, 3)


@pytest.mark.parametrize("case", CASES)
def test_projection_divides_the_reduced_sums_bit_for_bit(case):
    f, regions = _table_and_regions(case)
    values = evaluate_table(f)
    runs = set()
    for region in regions:
        got = evaluate_table(conditional_expectation(f, region))
        want = old_conditional_expectation_values(values, region)
        assert got.tobytes() == want.tobytes(), region
        assert not got.flags.writeable
        runs.add(_lowest_outside_run(region))
    assert runs == {0, 1, 2, 3}


@pytest.mark.parametrize("case", CASES)
def test_walsh_subset_mass_list_index_is_the_generator_index(case):
    f, regions = _table_and_regions(case)
    mu = spectral_measure_of(f)
    assert isinstance(mu.model, _WalshMasses)
    for region in regions:
        assert mass_of_subsets_of(mu, region) == old_walsh_subset_mass(mu.model, region), region


def _cut_subjects():
    yield spectral_measure_of(NoiseFunctional.from_family("majority3-iterated", 8))
    yield spectral_measure_of(NoiseFunctional.from_family("tribes", 12))
    table = TimeGrid(0, 1, 1, base=10)
    values = np.random.default_rng(10).standard_normal(1 << 10)
    yield spectral_measure_of(NoiseFunctional.from_table(table, values))
    grid = TimeGrid(0, 1, 3)
    entries = {((0, 0, 1),): 0.5, ((1, 0, 2), (4, 0, 1)): -0.75, ((2, 0, 1), (6, 0, 1)): 0.25,
               ((3, 0, 3),): 0.125, ((5, 0, 1), (7, 0, 2)): 1.5}
    yield measure_from_coefficients(ChaosCoefficients(grid, entries, kind=HERMITE, residual=0.3))


@pytest.mark.parametrize("mu", list(_cut_subjects()), ids=["maj3-L8", "tribes-L12", "table-10",
                                                            "hermite-residual"])
def test_single_cut_distance_is_the_interior_pass_at_every_boundary(mu):
    grid, n = mu.grid, mu.grid.n_cells
    distances = interior_cut_distances(mu)
    want = old_cut_distances(mu, np.arange(n + 1))
    assert distances.tobytes() == want[1:-1].tobytes()
    got = [cut_distance(mu, grid.boundary(b)) for b in range(n + 1)]
    assert all(type(d) is float for d in got)
    assert got[0] == got[-1] == 0.0
    assert np.array(got[1:-1]).tobytes() == distances.tobytes()


def test_cut_masses_of_no_boundaries_are_empty():
    model = spectral_measure_of(NoiseFunctional.from_family("majority3-iterated", 8)).model
    prefix, suffix = model.cut_masses(np.array([], dtype=np.int64))
    assert prefix.shape == suffix.shape == (0,)


def _array_built_regions():
    for name, level in (("majority3-iterated", 8), ("tribes", 12)):
        grid = NoiseFunctional.from_family(name, level).grid
        rng = np.random.default_rng(level)
        for p in (0.0, 0.05, 0.5, 0.95, 1.0):
            cells = np.flatnonzero(rng.random(grid.n_cells) < p)
            if cells.size < 64:  # the array route's floor, NUMPY_RUNS_FROM
                cells = np.arange(64 + 3 * level)
            yield ElementarySet.from_cells(grid, cells)


def test_array_built_sets_equal_their_tuple_built_twins():
    for region in _array_built_regions():
        bounds = region.bounds
        twin = ElementarySet(region.grid, region.ranges)
        assert region == twin and twin == region
        assert hash(region) == hash(twin)
        assert repr(region) == repr(twin)
        assert region.bounds is bounds and not bounds.flags.writeable
        assert region.bounds.tobytes() == twin.bounds.tobytes()
        want = tuple(zip(bounds[::2].tolist(), bounds[1::2].tolist()))
        assert region.ranges == want and all(type(x) is int for r in want for x in r)


def test_array_built_sets_pickle_and_copy():
    for region in _array_built_regions():
        clones = [pickle.loads(pickle.dumps(region)), copy.copy(region), copy.deepcopy(region)]
        for clone in clones:
            assert clone == region and hash(clone) == hash(region)
            assert not clone.bounds.flags.writeable
    with pytest.raises(AttributeError):
        ElementarySet.from_cells(TimeGrid(0, 1, 8), np.arange(100)).no_such_name
    with pytest.raises(AttributeError):  # sets are immutable
        ElementarySet.from_cells(TimeGrid(0, 1, 8), np.arange(100)).bounds = np.arange(2)


GRID = TimeGrid(0, 1, 4)
TWIN = TimeGrid(0, 1, 4)  # equal to GRID, built separately
OTHER = TimeGrid(0, 2, 4)


def _table(grid):
    return NoiseFunctional.from_table(grid, np.random.default_rng(7).standard_normal(1 << 16))


def _region(grid):
    return ElementarySet(grid, ((1, 5), (9, 12)))


CHECKED = {
    "conditional_expectation": lambda g: conditional_expectation(_table(GRID), _region(g)),
    "mass_of_subsets_of": lambda g: mass_of_subsets_of(spectral_measure_of(_table(GRID)), _region(g)),
    "restrict": lambda g: restrict(spectral_measure_of(_table(GRID)), _region(g)),
    "is_absolutely_continuous": lambda g: is_absolutely_continuous(
        SpectralMeasure(GRID, {(1, 2): 1.0}), SpectralMeasure(g, {(1, 2): 0.5, (3,): 0.5})),
    "inner_product": lambda g: inner_product(_table(GRID), _table(g)),
    "NoiseFunctional": lambda g: NoiseFunctional(GRID, ChaosCoefficients(g, {(1, 2): 1.0})),
    "add_coefficients": lambda g: add_coefficients(ChaosCoefficients(GRID, {(1,): 1.0}),
                                                   ChaosCoefficients(g, {(1,): 0.5, (3,): 2.0})),
    "union": lambda g: _region(GRID) | _region(g),
    "intersection": lambda g: _region(GRID) & _region(g),
}


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_grid_checks_take_equal_grids_and_refuse_others(name):
    assert TWIN is not GRID and TWIN == GRID
    CHECKED[name](GRID)
    CHECKED[name](TWIN)
    with pytest.raises(GridMismatchError, match=r"^grid mismatch: TimeGrid\(.* vs TimeGrid\("):
        CHECKED[name](OTHER)


def test_chaos_sums_of_two_kinds_are_refused_as_such():
    walsh = ChaosCoefficients(GRID, {(1,): 1.0})
    hermite = ChaosCoefficients(TWIN, {((1, 0, 1),): 1.0}, HERMITE)
    for a, b in ((walsh, hermite), (hermite, walsh)):
        with pytest.raises(ValueError, match=r"^cannot add chaos expansions of different kinds$"):
            add_coefficients(a, b)
