"""Spectral measures: the projection identity, factorization, and sampling."""
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from noisespectra import (
    BackendError,
    ElementarySet,
    NoiseFunctional,
    SpectralSet,
    TimeGrid,
    cardinality_profile,
    conditional_expectation,
    cut_distance,
    decompose,
    interior_cut_distances,
    is_absolutely_continuous,
    mass_meeting_interval,
    mass_of_subsets_of,
    n_point_marginal,
    product,
    random_functional,
    restrict,
    sample_sets,
    singleton_mass,
    spectral_measure_of,
    straddle_mass,
    tensor_product,
)
from noisespectra.functionals import expectation, norm_sq
from noisespectra.spectral import SpectralMeasure, measure_from_coefficients

GRID = TimeGrid(0, 1, 3)
N = GRID.n_cells


def region_of(mask):
    return ElementarySet.from_cells(GRID, [c for c in range(N) if mask >> c & 1])


def test_spectral_set_canonicalizes():
    s = SpectralSet(GRID, (5, 1, 1, 3))
    assert s.cells == (1, 3, 5)
    assert s.cardinality == 3
    with pytest.raises(ValueError):
        SpectralSet(GRID, (8,))
    assert SpectralSet(GRID, np.array([3, 1], dtype=np.uint8)).cells == (1, 3)
    for cells, bad in (((1, 2.5), "2.5"), ((True,), "True"), (np.array([1.0]), "1.0")):
        with pytest.raises(ValueError, match=f"cells must be integers, got {bad}"):
            SpectralSet(GRID, cells)


def test_total_mass_is_squared_norm(rng):
    f = random_functional(GRID, rng)
    mu = spectral_measure_of(f)
    assert_allclose(mu.total_mass, norm_sq(f), rtol=1e-12)
    assert_allclose(mu.empty_atom, expectation(f) ** 2, rtol=1e-10, atol=1e-15)


@settings(max_examples=40)
@given(st.integers(0, 255), st.integers(0, 2**31 - 1))
def test_subset_mass_equals_projection_norm(mask, seed):
    """The defining identity of the measure, on arbitrary dense inputs."""
    f = random_functional(GRID, np.random.default_rng(seed))
    mu = spectral_measure_of(f)
    region = region_of(mask)
    proj = conditional_expectation(f, region)
    assert abs(mass_of_subsets_of(mu, region) - norm_sq(proj)) < 1e-10


def test_subset_mass_routes_agree(rng):
    # atom table against direct set inclusion
    f = random_functional(GRID, rng)
    mu = spectral_measure_of(f)
    region = region_of(0b1100101)
    cells = set(region.cells())
    direct = sum(v for k, v in mu.entries.items() if set(k) <= cells)
    assert_allclose(mass_of_subsets_of(mu, region), direct, rtol=1e-12)


def test_mass_meeting_interval(rng):
    from fractions import Fraction

    f = random_functional(GRID, rng)
    mu = spectral_measure_of(f)
    lo, hi = Fraction(1, 4), Fraction(5, 8)
    touched = set(GRID.cells_meeting_open_interval(lo, hi))
    direct = sum(v for k, v in mu.entries.items() if touched & set(k))
    assert_allclose(mass_meeting_interval(mu, lo, hi), direct, rtol=1e-12)
    # the full window catches everything but the empty atom
    assert_allclose(
        mass_meeting_interval(mu, 0, 1), mu.total_mass - mu.empty_atom, rtol=1e-12
    )


def test_restrict_equals_measure_of_projection(rng):
    f = random_functional(GRID, rng)
    mu = spectral_measure_of(f)
    region = region_of(0b0110110)
    left = restrict(mu, region)
    right = spectral_measure_of(conditional_expectation(f, region))
    assert set(left.entries) == set(right.entries)
    for k, v in left.entries.items():
        assert abs(v - right.entries[k]) < 1e-12
    # restriction keeps masses bit-exact: it only filters atoms
    for k, v in left.entries.items():
        assert v == mu.entries[k]


def test_product_measure_matches_tensor_functional(rng):
    wl = TimeGrid(0, 0.5, 2)
    wr = TimeGrid(0.5, 1, 2)
    g = random_functional(wl, rng)
    h = random_functional(wr, rng)
    mu_pair = product(spectral_measure_of(g), spectral_measure_of(h))
    mu_tensor = spectral_measure_of(tensor_product(g, h))
    assert mu_pair.grid == mu_tensor.grid
    keys = set(mu_pair.entries) | set(mu_tensor.entries)
    for k in keys:
        assert abs(mu_pair.entries.get(k, 0.0) - mu_tensor.entries.get(k, 0.0)) < 1e-12


def test_product_rejects_residual_or_multiplicity():
    from noisespectra.chaos import ChaosCoefficients, HERMITE

    wl = TimeGrid(0, 0.5, 1)
    wr = TimeGrid(0.5, 1, 1)
    ok = spectral_measure_of(NoiseFunctional.from_walsh_entries(wl, {(0,): 1.0}))
    with_residual = measure_from_coefficients(
        ChaosCoefficients(wr, {((0, 0, 1),): 1.0}, kind=HERMITE, residual=0.5)
    )
    with pytest.raises(BackendError):
        product(ok, with_residual)
    with_mult = measure_from_coefficients(
        ChaosCoefficients(wr, {((0, 0, 2),): 1.0}, kind=HERMITE)
    )
    with pytest.raises(BackendError):
        product(ok, with_mult)


def test_absolute_continuity_is_support_inclusion(rng):
    f = random_functional(GRID, rng)
    mu = spectral_measure_of(f)
    region = region_of(0b0011101)
    assert is_absolutely_continuous(restrict(mu, region), mu)
    # a generic dense measure does not dominate its own restriction's complement
    other = spectral_measure_of(
        NoiseFunctional.from_walsh_entries(GRID, {(0, 1): 1.0})
    )
    assert is_absolutely_continuous(other, mu)
    single = spectral_measure_of(NoiseFunctional.from_walsh_entries(GRID, {(4,): 1.0}))
    assert not is_absolutely_continuous(mu, single)


def test_marginals_and_profile(rng):
    f = random_functional(GRID, rng)
    mu = spectral_measure_of(f)
    profile = cardinality_profile(mu)
    assert_allclose(sum(profile.values()), mu.total_mass, rtol=1e-12)
    for k in range(N + 1):
        part = n_point_marginal(mu, k)
        assert_allclose(part.total_mass, profile.get(k, 0.0), rtol=1e-12, atol=1e-300)
    assert_allclose(singleton_mass(mu), profile[1], rtol=1e-12)


def test_multiplicity_mass_tracked_separately():
    from noisespectra.chaos import ChaosCoefficients, HERMITE

    grid = TimeGrid(0, 1, 1)
    coeffs = ChaosCoefficients(
        grid,
        {((0, 0, 1),): 0.6, ((0, 0, 2),): 0.8, ((0, 0, 1), (1, 0, 1)): 0.5},
        kind=HERMITE,
    )
    mu = measure_from_coefficients(coeffs)
    assert_allclose(mu.multiplicity_mass, 0.64, rtol=1e-12)
    assert_allclose(singleton_mass(mu), 0.36, rtol=1e-12)  # degree-2 cell excluded
    assert_allclose(mu.total_mass, 0.36 + 0.64 + 0.25, rtol=1e-12)
    assert_allclose(mu.mass([0]), 0.36 + 0.64, rtol=1e-12)  # pointwise mass includes it
    profile = cardinality_profile(mu)
    assert set(profile) == {1, 2}


@pytest.mark.parametrize("seed", [1.7, True, 1.0, "1"])
def test_sample_sets_refuses_a_seed_that_is_not_an_integer(seed):
    mu = spectral_measure_of(NoiseFunctional.from_walsh_entries(GRID, {(0,): 1.0, (1, 2): 1.0}))
    with pytest.raises(ValueError) as got:
        sample_sets(mu, 3, seed)
    assert str(got.value) == f"seed must be an integer, got {seed!r}"
    assert sample_sets(mu, 3, np.int64(1)) == sample_sets(mu, 3, 1)


def test_sampler_matches_atom_frequencies():
    f = NoiseFunctional.from_walsh_entries(
        GRID, {(0,): 1.0, (1, 2): 1.0, (3, 4, 5): np.sqrt(2.0)}
    )
    mu = spectral_measure_of(f)
    draws = sample_sets(mu, 40000, seed=11)
    assert sample_sets(mu, 50, seed=11)[:50] == draws[:50]  # reproducible prefix
    freq: dict = {}
    for s in draws:
        freq[s.cells] = freq.get(s.cells, 0) + 1
    probs = {k: v / mu.total_mass for k, v in mu.entries.items()}
    tv = 0.5 * sum(
        abs(freq.get(k, 0) / 40000 - p) for k, p in probs.items()
    )
    assert tv < 0.02
    assert all(isinstance(s, SpectralSet) for s in draws)


def test_sampler_rejects_residual():
    from noisespectra.chaos import ChaosCoefficients, HERMITE

    grid = TimeGrid(0, 1, 1)
    mu = measure_from_coefficients(
        ChaosCoefficients(grid, {((0, 0, 1),): 1.0}, kind=HERMITE, residual=0.3)
    )
    with pytest.raises(BackendError):
        sample_sets(mu, 10, seed=0)


def test_sampler_refuses_a_measure_with_no_mass():
    zero_table = NoiseFunctional.from_table(GRID, np.zeros(1 << N))
    for mu in (SpectralMeasure(GRID, {}), SpectralMeasure(GRID, {(0,): 0.0}),
               spectral_measure_of(zero_table)):  # an atom table and a Walsh mass vector
        with pytest.raises(ValueError, match="^measure has no mass to sample$"):
            sample_sets(mu, 3, seed=0)


def test_zero_mass_entries_dropped():
    mu = SpectralMeasure(GRID, {(0,): 0.0, (1,): 2.0})
    assert set(mu.entries) == {(1,)}


def test_entry_keys_must_rise():
    # one set written two ways would be two atoms: mass([1, 3]) and the
    # profile would disagree
    with pytest.raises(ValueError, match=r"^entries\[0\]: cells \[3, 1\] are not strictly"):
        SpectralMeasure(GRID, {(3, 1): 1.0, (1, 3): 2.0})
    with pytest.raises(ValueError, match=r"^multiplicity_entries\[0\]: cells \[2, 2\] are not"):
        SpectralMeasure(GRID, {(0,): 1.0}, {(2, 2): 0.5})


@pytest.mark.parametrize("key", [(8,), (9,), (-1,), (1.0,), (True,), (0, 2**70)])
def test_entry_keys_must_be_grid_cells(key):
    rule = r"are not strictly increasing integers in 0\.\.7$"
    with pytest.raises(ValueError, match=r"^entries\[1\]: cells \[.*\] " + rule):
        SpectralMeasure(GRID, {(0,): 1.0, key: 0.5})


class _Listed(Mapping):
    """A mapping that lists its (key, value) pairs as given, repeats and all."""

    def __init__(self, pairs):
        self.pairs = pairs

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, key):
        return dict(self.pairs)[key]


def test_a_set_repeated_within_one_mapping_is_refused():
    with pytest.raises(ValueError, match=r"^entries\[2\]: cells \[.*, 3\] repeat an earlier one$"):
        SpectralMeasure(GRID, _Listed([((0,), 1.0), ((1, 3), 1.0), ((np.int64(1), 3), 2.0)]))
    # the same set in the plain and the multiplicity mapping is two atoms
    mu = SpectralMeasure(GRID, {(1, 3): 1.0}, {(1, 3): 0.5})
    assert mu.mass([3, 1]) == 1.5


def test_a_repeat_of_zero_mass_is_refused_like_a_file_record():
    # the repeat check sees every listed set, before zero-mass atoms drop
    from noisespectra.serialize import FormatError, grid_to_data, measure_from_data

    with pytest.raises(ValueError, match=r"^entries\[1\]: cells \[1, 3\] repeat an earlier one$"):
        SpectralMeasure(GRID, _Listed([((1, 3), 1.0), ((1, 3), 0.0)]))
    records = [{"cells": [1, 3], "mass": 1.0}, {"cells": [1, 3], "mass": 0.0}]
    with pytest.raises(FormatError, match=r"entries\[1\]: cells \[1, 3\] repeat"):
        measure_from_data({"grid": grid_to_data(GRID), "entries": records})


@pytest.mark.parametrize("plain, mult", [
    ([((0,), 1.0), ((3, 1), 0.5)], []),  # falling
    ([((0,), 1.0), ((8,), 0.5)], []),  # off the grid
    ([((0,), 1.0)], [((2, 2), 0.5)]),  # a cell twice
    ([((1, 3), 1.0), ((1, 3), 0.0)], []),  # a repeat
    ([((0,), 1.0)], [((1, 3), 1.0), ((1, 3), 0.5)]),
])
def test_a_bad_cell_list_reads_the_same_in_a_dict_and_a_file(plain, mult):
    from noisespectra.serialize import FormatError, grid_to_data, measure_from_data

    with pytest.raises(ValueError) as by_dict:
        SpectralMeasure(GRID, _Listed(plain), _Listed(mult))
    data = {"grid": grid_to_data(GRID)}
    for name, pairs in (("entries", plain), ("multiplicity_entries", mult)):
        data[name] = [{"cells": list(k), "mass": v} for k, v in pairs]
    with pytest.raises(FormatError) as by_file:
        measure_from_data(data)
    assert str(by_file.value) == f"bad measure record: {by_dict.value}"


def test_numpy_integer_keys_become_python_ints():
    mu = SpectralMeasure(GRID, {(np.int64(1), np.int32(3)): 1.0, (np.uint8(0),): 1.0})
    assert set(mu.entries) == {(0,), (1, 3)}
    drawn = [c for s in sample_sets(mu, 20, seed=0) for c in s.cells]
    assert all(type(c) is int for c in [*drawn, *(c for k in mu.entries for c in k)])


def test_restrict_rejects_residual():
    # the residual has no location, so no region can claim it
    from noisespectra.chaos import ChaosCoefficients, HERMITE

    grid = TimeGrid(0, 1, 1)
    mu = measure_from_coefficients(
        ChaosCoefficients(grid, {((0, 0, 1),): 1.0}, kind=HERMITE, residual=0.3)
    )
    with pytest.raises(BackendError):
        restrict(mu, ElementarySet.from_cells(grid, [0, 1]))


def test_subset_mass_rejects_residual():
    # a degree-2 Hermite truncation of exp(0.9 W) leaves a tail with no
    # location; counting it inside any region, or dropping it, would be wrong
    from noisespectra import MapFactor, MapTerm

    grid = TimeGrid(0, 1, 1)
    f = NoiseFunctional.from_program(
        grid, [MapTerm(1.0, (MapFactor(0, 0, "exp", (0.9,)),))], degree_cap=2
    )
    mu = spectral_measure_of(f)
    assert mu.residual > 1e-3
    with pytest.raises(BackendError, match="residual"):
        mass_of_subsets_of(mu, ElementarySet.full(grid))


def test_measure_is_immutable():
    from dataclasses import FrozenInstanceError

    mu = SpectralMeasure(GRID, {(1,): 2.0})
    with pytest.raises(FrozenInstanceError):
        mu.residual = 1.0


def test_dense_queries_above_64_cells(rng):
    """Every dense query on a 128-cell grid against loops over the entries."""
    from fractions import Fraction

    from noisespectra.chaos import ChaosCoefficients, HERMITE

    grid = TimeGrid(0, 1, 7)
    n = grid.n_cells
    indices = [
        (),
        ((3, 0, 1),), ((63, 0, 1),), ((64, 0, 1),), ((100, 0, 1),),
        ((63, 0, 1), (64, 0, 1)), ((10, 0, 1), (120, 0, 1)),
        ((0, 0, 1), (63, 0, 1)), ((64, 0, 1), (127, 0, 1)),
        ((5, 0, 1), (70, 0, 1), (127, 0, 1)),
        # multiplicity entries: a cell carrying total degree >= 2
        ((20, 0, 2),), ((64, 0, 2),), ((63, 0, 1), (64, 0, 2)), ((70, 0, 3), (71, 0, 1)),
    ]
    coeffs = ChaosCoefficients(
        grid, {ix: float(c) for ix, c in zip(indices, rng.standard_normal(len(indices)))},
        kind=HERMITE,
    )
    mu = measure_from_coefficients(coeffs)
    assert len(mu.multiplicity_entries) == 4
    atoms = list(mu.entries.items()) + list(mu.multiplicity_entries.items())

    regions = [range(64), range(64, n), range(n), [3, 10, 20, 63, 64, 70, 71, 100, 120, 127]]
    for cells in regions:
        region = ElementarySet.from_cells(grid, cells)
        inside = set(cells)
        want = sum(v for k, v in atoms if set(k) <= inside)
        assert_allclose(mass_of_subsets_of(mu, region), want, rtol=1e-12)
        kept = restrict(mu, region)
        assert kept.entries == {k: v for k, v in mu.entries.items() if set(k) <= inside}
        assert kept.multiplicity_entries == {
            k: v for k, v in mu.multiplicity_entries.items() if set(k) <= inside
        }

    for b in (1, 10, 63, 64, 65, 100, 127):
        want = sum(v for k, v in atoms if k and k[0] < b <= k[-1])
        assert_allclose(straddle_mass(mu, b), want, rtol=1e-12, atol=1e-300)
        assert_allclose(cut_distance(mu, grid.boundary(b)), np.sqrt(want), rtol=1e-12)

    for lo, hi in ((Fraction(60, n), Fraction(66, n)), (Fraction(0), Fraction(1, 2)),
                   (Fraction(1, 2), Fraction(1))):
        touched = set(grid.cells_meeting_open_interval(lo, hi))
        want = sum(v for k, v in atoms if touched & set(k))
        assert_allclose(mass_meeting_interval(mu, lo, hi), want, rtol=1e-12)

    profile: dict = {}
    for k, v in mu.entries.items():
        profile[len(k)] = profile.get(len(k), 0.0) + v
    got = cardinality_profile(mu)
    assert list(got) == sorted(profile)
    assert_allclose([got[k] for k in got], [profile[k] for k in got], rtol=1e-12)


# ---------------------------------------------------------------------------
# the table-first build against the entry-dict build


def same_table(a, b):
    """Byte-for-byte equality of two atom tables."""
    return (repr(a.keys) == repr(b.keys) and a.n_plain == b.n_plain
            and a.rows.dtype == b.rows.dtype and a.rows.shape == b.rows.shape
            and a.rows.tobytes() == b.rows.tobytes() and a.mass.tobytes() == b.mass.tobytes())


def rebuilt(mu):
    """The same measure packed from copies of its own entry dicts."""
    return SpectralMeasure(mu.grid, dict(mu.entries), dict(mu.multiplicity_entries))._atoms


def grid_of(n):
    return TimeGrid(0, 1, 0) if n == 1 else TimeGrid(0, 1, 1, base=n)


@pytest.mark.parametrize("tol", [None, 0.05])
@pytest.mark.parametrize("n", [0, 1, 5, 10, 14])
def test_table_route_matches_entry_dict_build(n, tol):
    from noisespectra.spectral import _AtomTable, _checked_rows
    from noisespectra.walsh import cells_of_rows, character_coefficients

    values = np.random.default_rng(100 + n).standard_normal(1 << n)
    if n == 0:
        # no grid has zero cells, so the one-atom table is packed both ways directly
        c = character_coefficients(values)
        assert cells_of_rows(np.zeros((1, 1), np.uint64), 0) == [()]
        by_mask, _ = _AtomTable.sorted(np.zeros((1, 1), dtype=np.uint64), c * c, 1, 0)
        by_cells, _ = _checked_rows([()], 0)
        assert same_table(by_mask, _AtomTable.sorted(by_cells, c * c, 1, 0)[0])
        assert by_mask.keys == ((),)
        return
    f = NoiseFunctional.from_table(grid_of(n), values)
    mu = spectral_measure_of(f, tol)
    squared = {k: c * c for k, c in decompose(f, tol).entries.items()}
    assert same_table(mu._atoms, SpectralMeasure(f.grid, squared)._atoms)
    assert mu.entries == squared and list(mu.entries) == list(mu._atoms.keys)
    if tol is not None and n >= 5:
        assert len(mu.entries) < 1 << n  # the tolerance dropped some coefficients


def test_all_zero_table_has_an_empty_atom_table():
    f = NoiseFunctional.from_table(grid_of(6), np.zeros(64))
    mu = spectral_measure_of(f)
    assert mu._atoms.keys == () and mu._atoms.rows.shape == (0, 1)
    assert same_table(mu._atoms, SpectralMeasure(f.grid, {})._atoms)
    assert mu.total_mass == 0.0 and cardinality_profile(mu) == {}


def hermite_with_multiplicity():
    from noisespectra.chaos import HERMITE, ChaosCoefficients

    grid = TimeGrid(0, 1, 7)
    indices = [(), ((3, 0, 1),), ((64, 0, 1),), ((3, 0, 1), (64, 0, 1)),
               ((3, 0, 2),), ((64, 0, 2),), ((3, 0, 1), (70, 0, 3)), ((100, 0, 1),)]
    c = np.random.default_rng(7).standard_normal(len(indices))
    return measure_from_coefficients(
        ChaosCoefficients(grid, dict(zip(indices, c.tolist())), HERMITE))


@pytest.mark.parametrize("n", [1, 5, 10, 14])
def test_restrict_and_marginal_slices_equal_rebuilt_tables(n):
    rng = np.random.default_rng(200 + n)
    f = NoiseFunctional.from_table(grid_of(n), rng.standard_normal(1 << n))
    for mu in (spectral_measure_of(f), hermite_with_multiplicity()):
        cells = mu.grid.n_cells
        for members in rng.integers(0, 2, size=(4, cells)):
            kept = restrict(mu, ElementarySet.from_cells(mu.grid, np.flatnonzero(members)))
            assert same_table(kept._atoms, rebuilt(kept))
        kept = restrict(mu, ElementarySet.from_cells(mu.grid, range(cells)))
        assert same_table(kept._atoms, mu._atoms)
        for order in range(min(cells, 3) + 2):
            marginal = n_point_marginal(mu, order)
            assert same_table(marginal._atoms, rebuilt(marginal))
            assert all(len(k) == order for k in marginal.entries)
            assert not marginal.multiplicity_entries


def test_entry_views_are_read_only():
    mu = hermite_with_multiplicity()
    before = dict(mu.entries)
    for view in (mu.entries, mu.multiplicity_entries):
        key = next(iter(view))
        with pytest.raises(TypeError):
            view[key] = 1.0
        with pytest.raises(TypeError):
            del view[key]
    assert mu.entries == before
    assert list(mu.entries) + list(mu.multiplicity_entries) == list(mu._atoms.keys)


def test_building_and_querying_a_dense_measure_decodes_no_cells():
    from noisespectra.serialize import measure_from_data, measure_to_data

    f = NoiseFunctional.from_table(grid_of(10), np.random.default_rng(10).standard_normal(1 << 10))
    mu = spectral_measure_of(f)
    data = measure_to_data(spectral_measure_of(f))
    region = ElementarySet.from_cells(mu.grid, [0, 1, 4, 5, 6, 9])
    assert mass_of_subsets_of(mu, region) > 0.0
    assert interior_cut_distances(mu).shape == (9,)
    built = [
        mu, restrict(mu, region), n_point_marginal(mu, 2), measure_from_data(data),
        SpectralMeasure(mu.grid, {(0, 3): 1.0, (): 0.5}, {(2,): 0.25}),
        spectral_measure_of(NoiseFunctional.from_family("majority3-iterated", 2)),
    ]
    for m in built:
        # no key tuple is decoded, and neither the measure nor its views hold a dict
        assert "keys" not in m._atoms.__dict__
        held = [*vars(m).values(), *vars(m.entries).values(), *vars(m.multiplicity_entries).values()]
        assert not any(isinstance(v, dict) for v in held)
    squared = {k: c * c for k, c in decompose(f).entries.items()}
    assert mu.entries == squared and list(mu.entries) == list(mu._atoms.keys)
    assert mu._atoms.keys is mu._atoms.keys and not mu.multiplicity_entries  # decoded once
    assert built[3].entries == mu.entries
    # lookups bisect the keys: canonical tuples only, numpy cells compare equal
    assert mu.entries[(0, 3)] == squared[(0, 3)] and (3, 0) not in mu.entries
    assert mu.entries.get((np.int64(0), 3)) == squared[(0, 3)]


# ---------------------------------------------------------------------------
# a table measure is its mask-indexed mass vector: region masses sum a sub-block


def cube_mean_norm_sq(values, n, cells):
    """||E[f | the cells]||^2, averaged in the value domain."""
    cube = values.reshape((2,) * n)  # axis a is cell n - 1 - a
    outside = tuple(n - 1 - c for c in range(n) if c not in set(cells))
    avg = cube.mean(axis=outside) if outside else cube
    return float(np.mean(avg * avg))


def region_cells(kind, n, k, start):
    """Empty, full, one cell, or alternating runs of k cells (the first one inside or not)."""
    if kind == "single":
        return [k % n]
    if kind == "alternating":
        return [c for c in range(n) if (c // k + start) % 2 == 0]
    return list(range(n)) if kind == "full" else []


@settings(max_examples=80)
@given(st.integers(1, 10), st.integers(0, 2**31 - 1), st.sampled_from([None, 0.02]),
       st.sampled_from(["empty", "full", "single", "alternating"]), st.integers(1, 10),
       st.integers(0, 1))
def test_vector_region_mass_matches_table_and_value_domain(n, seed, tol, kind, k, start):
    from noisespectra.walsh import character_coefficients, inside, values_from_coefficients

    grid = grid_of(n)
    values = np.random.default_rng(seed).standard_normal(1 << n)
    mu = spectral_measure_of(NoiseFunctional.from_table(grid, values), tol)
    region = ElementarySet.from_cells(grid, region_cells(kind, n, k, start))
    got = mass_of_subsets_of(mu, region)
    t = mu._atoms  # the sorted table, queried by its bit rows
    assert abs(got - t.mass[inside(t.rows, region.ranges)].sum()) <= 1e-12 * got
    c = character_coefficients(values)
    if tol is not None:
        c[np.abs(c) <= tol] = 0.0
    kept = values_from_coefficients(c)  # the table whose coefficients the measure holds
    assert abs(got - cube_mean_norm_sq(kept, n, region.cells())) <= 1e-10


def test_region_queries_on_a_table_measure_never_sort_its_atoms(monkeypatch):
    from noisespectra.spectral import _WalshMasses

    def refuse(*args, **kwargs):
        raise AssertionError("the Walsh atom table was built")

    monkeypatch.setattr(_WalshMasses, "table", property(refuse))
    rng = np.random.default_rng(25)
    grid = grid_of(10)
    values = rng.standard_normal(1 << 10)
    mu = spectral_measure_of(NoiseFunctional.from_table(grid, values))
    for members in rng.integers(0, 2, size=(25, 10)):
        region = ElementarySet.from_cells(grid, np.flatnonzero(members))
        want = cube_mean_norm_sq(values, 10, region.cells())
        assert abs(mass_of_subsets_of(mu, region) - want) <= 1e-10
    assert len(mu.entries) == 1 << 10 and not mu.multiplicity_entries
    with pytest.raises(AssertionError, match="built"):
        cardinality_profile(mu)


@pytest.mark.parametrize("n", range(17))
def test_walsh_atom_order_is_the_sorted_order(n):
    from noisespectra.spectral import _AtomTable, _WalshMasses

    rng = np.random.default_rng(300 + n)
    mass = rng.standard_normal(1 << n) ** 2
    mass[rng.random(1 << n) < 0.3] = 0.0  # a support with holes
    masks = np.flatnonzero(mass).astype(np.uint64)
    want, _ = _AtomTable.sorted(masks[:, None], mass[masks], len(masks), n)
    assert same_table(_WalshMasses(mass, n).table, want)


def test_entry_view_equality_agrees_with_dict_equality(tmp_path):
    from noisespectra.serialize import measure_from_data, measure_to_data, read_json, write_json

    f = NoiseFunctional.from_table(grid_of(8), np.random.default_rng(8).standard_normal(1 << 8))
    mu = spectral_measure_of(f)
    write_json(str(tmp_path / "mu.json"), measure_to_data(mu))
    back = measure_from_data(read_json(str(tmp_path / "mu.json")))
    plain = dict(mu.entries.items())
    key = list(plain)[100]
    moved = SpectralMeasure(mu.grid, {**plain, key: float(np.nextafter(plain[key], 1.0))})
    dropped = SpectralMeasure(mu.grid, {k: v for k, v in plain.items() if k != key})
    hermite = hermite_with_multiplicity()  # 128 cells: two-word rows
    narrow = {(): 0.5, (3,): 0.25}
    pairs = {
        "file round trip": (back.entries, mu.entries, True),
        "empty multiplicity views": (back.multiplicity_entries, mu.multiplicity_entries, True),
        "one mass 1 ulp off": (moved.entries, mu.entries, False),
        "one atom dropped": (dropped.entries, mu.entries, False),
        "plain and multiplicity": (hermite.entries, hermite.multiplicity_entries, False),
        "wide and narrow rows": (SpectralMeasure(hermite.grid, narrow).entries,
                                 SpectralMeasure(grid_of(8), narrow).entries, True),
        "wide and narrow, unequal": (hermite.entries, mu.entries, False),
        "a plain dict": (mu.entries, plain, True),
        "a changed dict": (mu.entries, {**plain, key: 0.0}, False),
    }
    for name, (a, b, equal) in pairs.items():
        assert dict(a) == dict(b) if equal else dict(a) != dict(b), name
        for x, y in ((a, b), (b, a)):
            assert (x == y) is equal and (x != y) is not equal, name


# ---------------------------------------------------------------------------
# one query model per measure


def maj3_l2_on(start, model_backed):
    """Maj3 L2 on the window [start, start + 1): held as its tree model, or as a dense twin."""
    from noisespectra.families import family_model

    f = NoiseFunctional.from_family("majority3-iterated", 2)
    grid = TimeGrid(start, start + 1, 2, base=3)
    if model_backed:
        return SpectralMeasure(grid, None, model=family_model(grid, f.backend))
    return SpectralMeasure(grid, dict(spectral_measure_of(f).entries))


MEASURES = {
    "table": lambda: spectral_measure_of(
        NoiseFunctional.from_table(grid_of(8), np.random.default_rng(41).standard_normal(1 << 8))),
    "hermite": hermite_with_multiplicity,
    "file": lambda: SpectralMeasure(grid_of(8), {(): 0.5, (1, 3): 0.25, (2,): 1.0}, {(4,): 0.125}),
    "tree": lambda: spectral_measure_of(NoiseFunctional.from_family("majority3-iterated", 4)),
}


@pytest.mark.parametrize("kind", MEASURES)
def test_every_query_reads_the_one_model(kind):
    from noisespectra.families import TreeModel
    from noisespectra.serialize import measure_from_data, measure_to_data
    from noisespectra.spectral import _AtomTable, _WalshMasses

    mu = MEASURES[kind]()
    if kind == "file":
        mu = measure_from_data(measure_to_data(mu))
    want_type = {"table": _WalshMasses, "tree": TreeModel}.get(kind, _AtomTable)
    model, n = mu.model, mu.grid.n_cells
    assert type(model) is want_type and mu.is_dense is (kind != "tree")
    assert mu.total_mass == model.total_mass and mu.empty_atom == model.empty_mass
    assert mu.multiplicity_mass == model.multiplicity_mass
    assert cardinality_profile(mu) == dict(sorted(model.cardinality_profile().items()))
    assert singleton_mass(mu) == model.singleton_mass()
    for b in (1, n // 3, n - 1):
        assert straddle_mass(mu, b) == model.straddle_masses(np.array([b]))[0]
    for ranges in (((0, n),), ((1, n // 2),), ((0, 2), (n // 2, n - 1))):
        region = ElementarySet(mu.grid, ranges)
        assert mass_of_subsets_of(mu, region) == model.subset_mass(region)
    assert [s.cells for s in sample_sets(mu, 40, seed=3)] == model.sample(40, seed=3)
    if kind != "tree":  # the entry views hold the same model
        assert mu.entries._model is model and mu.multiplicity_entries._model is model


@pytest.mark.parametrize("kind", MEASURES)
def test_straddle_mass_takes_integer_boundaries_in_0_to_n_cells(kind):
    mu = MEASURES[kind]()  # a Walsh mass vector, an atom table or a tree model
    n = mu.grid.n_cells
    for b in (-1, n + 1, -(1 << 70), 1 << 70):
        with pytest.raises(ValueError, match=rf"^boundary index {b} out of range 0\.\.{n}$"):
            straddle_mass(mu, b)
    for b in (2.5, 1.0, True, np.float64(2.0), "1", None):
        with pytest.raises(ValueError, match=r"^boundary index must be an integer, got"):
            straddle_mass(mu, b)
    for b in (0, n):  # nothing straddles the ends of the window
        assert abs(straddle_mass(mu, b) - mu.residual) <= 1e-12
    b = next(b for b in range(1, n) if straddle_mass(mu, b) > 0.0)
    assert straddle_mass(mu, np.int64(b)) == straddle_mass(mu, np.uint8(b)) == straddle_mass(mu, b)


DENSE_ONLY = {
    "restrict": lambda mu, right: restrict(mu, ElementarySet.from_cells(mu.grid, [0, 4])),
    "product": product,
    "is_absolutely_continuous": lambda mu, right: is_absolutely_continuous(mu, mu),
    "mass_meeting_interval": lambda mu, right: mass_meeting_interval(mu, 0, Fraction(1, 2)),
    "SpectralMeasure.mass": lambda mu, right: mu.mass([0, 4]),
    "n_point_marginal": lambda mu, right: n_point_marginal(mu, 2),
}


@pytest.mark.parametrize("op", DENSE_ONLY)
def test_dense_only_operations_refuse_a_model_backed_measure(op):
    DENSE_ONLY[op](maj3_l2_on(0, False), maj3_l2_on(1, False))  # the dense twins answer
    with pytest.raises(BackendError) as refused:
        DENSE_ONLY[op](maj3_l2_on(0, True), maj3_l2_on(1, True))
    want = "order 2 carries mass" if op == "n_point_marginal" else "needs a dense measure"
    assert want in str(refused.value)


def test_a_tol_on_a_family_past_the_dense_cap_is_refused_naming_it():
    # the exact tree model cannot drop |c| <= tol, so a tol takes the table route, which
    # refuses a family past the cap as `decompose` does
    f = NoiseFunctional.from_family("majority3-iterated", 3)
    refusal = "majority3-iterated at level 3: value tables are capped at 24 cells, got 27"
    for route in (spectral_measure_of, decompose):
        with pytest.raises(BackendError, match=refusal):
            route(f, 0.5)
    assert spectral_measure_of(f).total_mass == 1.0  # no tol: the exact model


def test_a_walsh_model_survives_copy_and_pickle():
    # its other reads go to its table, so an instance whose __init__ has not run (copy and
    # pickle make those) must not seek the table
    import copy
    import pickle

    mu = MEASURES["table"]()
    for twin in (copy.deepcopy(mu), pickle.loads(pickle.dumps(mu))):
        assert type(twin.model) is type(mu.model) and twin.entries == mu.entries
        assert cardinality_profile(twin) == cardinality_profile(mu)
    model = pickle.loads(pickle.dumps(mu.model))
    assert model.total_mass == mu.model.total_mass and model.sample(5, 1) == mu.model.sample(5, 1)
