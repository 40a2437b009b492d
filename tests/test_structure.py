"""First-chaos structure: additive families, cut distances, classification."""
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noisespectra import (
    NoiseFunctional,
    TimeGrid,
    additive_integral_of,
    classify,
    cut_distance,
    decompose,
    finite_chaos_partition_span,
    first_chaos_criterion,
    first_chaos_extract,
    interior_cut_distances,
    random_functional,
    spectral_measure_of,
)
from noisespectra.chaos import add_coefficients
from noisespectra.functionals import evaluate_table, norm_sq

GRID = TimeGrid(0, 1, 3)
N = GRID.n_cells


def first_chaos_only(rng, grid=GRID):
    coeffs = rng.standard_normal(grid.n_cells)
    return NoiseFunctional.from_walsh_entries(
        grid, {(c,): float(v) for c, v in enumerate(coeffs)}
    )


def test_first_chaos_extract(rng):
    f = random_functional(GRID, rng)
    part = first_chaos_extract(f)
    # table in, table out; the re-analysis carries float dust below 1e-12
    entries = decompose(part, tol=1e-12).entries
    assert all(len(ix) == 1 for ix in entries)
    full = decompose(f).entries
    assert set(entries) == {ix for ix in full if len(ix) == 1}
    for ix, c in entries.items():
        assert abs(c - full[ix]) < 1e-12


def test_additive_integral_concatenation(rng):
    f = random_functional(GRID, rng)
    fam = additive_integral_of(f)
    assert not fam.is_zero
    r, s, t = GRID.boundary(0), GRID.boundary(3), GRID.boundary(8)
    lhs = add_coefficients(fam.member(r, s).backend, fam.member(s, t).backend)
    rhs = fam.member(r, t).backend
    assert lhs.entries == rhs.entries  # exact, coefficient by coefficient


def test_additive_integral_window_validation(rng):
    fam = additive_integral_of(random_functional(GRID, rng))
    with pytest.raises(ValueError):
        fam.member(Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(ValueError):
        fam.member(0, Fraction(1, 3))  # not a grid point


def test_zero_flag_for_no_first_chaos():
    f = NoiseFunctional.from_walsh_entries(GRID, {(0, 1): 1.0})
    fam = additive_integral_of(f)
    assert fam.is_zero
    assert fam.member(0, 1).backend.entries in ({}, {(0,): 0.0})


def test_cut_distance_witness():
    # f = chi_{0,1} on a two-cell grid: the interior cut straddles everything
    grid = TimeGrid(0, 1, 1)
    f = NoiseFunctional.from_walsh_entries(grid, {(0, 1): 1.0})
    assert_allclose(cut_distance(f, Fraction(1, 2)), 1.0, rtol=1e-12)
    # and boundary cuts separate nothing
    assert cut_distance(f, 0) == 0.0
    assert cut_distance(f, 1) == 0.0


def test_cut_distance_is_straddling_mass(rng):
    f = random_functional(GRID, rng)
    mu = spectral_measure_of(f)
    for b in range(1, N):
        straddle = sum(
            v for k, v in mu.entries.items() if k and min(k) < b <= max(k)
        )
        assert_allclose(cut_distance(mu, GRID.boundary(b)), np.sqrt(straddle), rtol=1e-10)


def test_interior_cut_distances_shape(rng):
    d = interior_cut_distances(random_functional(GRID, rng))
    assert d.shape == (N - 1,)
    assert (d >= 0).all()


def test_criterion_accepts_first_chaos(rng):
    f = first_chaos_only(rng)
    crit = first_chaos_criterion(f)
    assert crit
    assert crit.max_distance <= 1e-12
    assert crit.failing_boundary is None
    assert (interior_cut_distances(f) <= 1e-12).all()


def test_criterion_rejects_higher_chaos_with_named_cut(rng):
    f = NoiseFunctional.from_walsh_entries(GRID, {(0,): 1.0, (2, 5): 2.0})
    crit = first_chaos_criterion(f)
    assert not crit
    assert crit.failing_boundary in range(3, 6)  # a cut actually straddled by {2,5}
    # a nonzero mean also disqualifies
    g = NoiseFunctional.from_walsh_entries(GRID, {(): 1.0, (0,): 1.0})
    assert not first_chaos_criterion(g)


def test_partition_span_full_cuts_reproduce(rng):
    f = random_functional(GRID, rng)
    cuts = [GRID.boundary(b) for b in range(1, N)]
    back = finite_chaos_partition_span(f, cuts)
    assert_allclose(evaluate_table(back), evaluate_table(f), atol=1e-11)


def test_partition_span_monotone_in_cuts(rng):
    f = random_functional(GRID, rng)
    coarse_cuts = [GRID.boundary(4)]
    fine_cuts = [GRID.boundary(2), GRID.boundary(4), GRID.boundary(6)]
    coarse = decompose(finite_chaos_partition_span(f, coarse_cuts))
    fine = decompose(finite_chaos_partition_span(f, fine_cuts))
    assert set(coarse.entries) <= set(fine.entries)
    assert norm_sq(finite_chaos_partition_span(f, coarse_cuts)) <= norm_sq(
        finite_chaos_partition_span(f, fine_cuts)
    ) + 1e-12
    # projection is idempotent
    again = finite_chaos_partition_span(
        finite_chaos_partition_span(f, coarse_cuts), coarse_cuts
    )
    assert decompose(again).entries == coarse.entries


def test_partition_span_no_cuts_keeps_low_orders(rng):
    f = random_functional(GRID, rng)
    span = decompose(finite_chaos_partition_span(f, []))
    assert all(len(ix) <= 1 for ix in span.entries)


def test_classify_parity_vs_coordinate_sum():
    rep = classify("parity", [1, 2, 3])
    assert all(r.singleton_mass == 0.0 for r in rep.records)
    assert rep.singleton_fractions == (0.0, 0.0, 0.0)
    rep = classify("coordinate-sum", [1, 2, 3])
    for r, frac in zip(rep.records, rep.low_cardinality_fractions):
        assert_allclose(r.singleton_mass, r.total_mass, rtol=1e-12)
        assert_allclose(frac, 1.0, rtol=1e-12)
    assert any(v.startswith("linearizable-like") for v in rep.verdicts)


def test_classify_majority_matches_recursion():
    rep = classify("majority3-iterated", [1, 2, 3, 4])
    for r, want in zip(rep.records, [0.75, 0.5625, 0.421875, 0.31640625]):
        assert_allclose(r.singleton_mass, want, rtol=1e-12)
    assert (np.diff(rep.singleton_fractions) < 0).all()  # strictly shrinking


@pytest.mark.parametrize("family, verdict", [
    ("white-noise-i2", "no first-chaos mass at any level"),
    ("parity", "no first-chaos mass at any level"),
    ("majority3-iterated", "inconclusive: report the raw sequences"),
    ("tribes", "inconclusive: report the raw sequences"),
    ("white-noise-i1", "linearizable-like: mass concentrated on sets of at most one cell"),
    ("coordinate-sum", "linearizable-like: mass concentrated on sets of at most one cell"),
])
def test_classify_verdicts_at_levels_3_to_6(family, verdict):
    # a first-chaos fraction that is 0 at every level does not vanish: it was never there
    rep = classify(family, range(3, 7))
    assert rep.verdicts == (verdict,)


def test_classify_reads_tribes_as_black_like():
    # the first-chaos fraction of tribes falls at every level from 7 to 14 and ends below 0.01
    rep = classify("tribes", range(5, 15))
    fractions = np.array(rep.singleton_fractions)
    assert (np.diff(fractions[2:]) < 0).all() and 0.0 < fractions[-1] < 0.01
    assert rep.verdicts == ("black-like: first-chaos fraction vanishes across levels",)


@pytest.mark.parametrize("levels", [[3, 4], [4]])
@pytest.mark.parametrize("family", ["parity", "white-noise-i2"])
def test_classify_reads_no_first_chaos_mass_below_three_levels(family, levels):
    # `_vanishes` needs three levels; a fraction that is 0 at each level does not
    rep = classify(family, levels)
    assert rep.singleton_fractions == (0.0,) * len(levels)
    assert rep.verdicts == ("no first-chaos mass at any level",)
