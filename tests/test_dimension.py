"""Box-counting dimension estimates on the refinement families."""
import re
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noisespectra import (
    NoiseFunctional,
    SpectralSet,
    TimeGrid,
    box_count,
    estimate_dimension,
)
from noisespectra.families import calibration_measure, family_names


def test_box_count_exact():
    grid = TimeGrid(0, 1, 4)
    s = SpectralSet(grid, (0, 1, 2, 3))  # leftmost quarter of [0, 1)
    assert box_count(s, 0) == 1
    assert box_count(s, 1) == 1  # sits inside the first half
    assert box_count(s, 2) == 1
    assert box_count(s, 3) == 2
    assert box_count(s, 4) == 4
    assert box_count(SpectralSet(grid, ()), 3) == 0
    with pytest.raises(ValueError):
        box_count(s, 5)


@pytest.mark.parametrize("level", [2.5, 2.0, True, np.float64(2.0), "2"])
def test_box_count_refuses_a_level_that_is_not_an_integer(level):
    s = SpectralSet(TimeGrid(0, 1, 4), (0, 1, 2, 3))
    with pytest.raises(ValueError, match=re.escape(f"box level must be an integer, got {level!r}")):
        box_count(s, level)


def test_box_count_cantor_is_power_of_two():
    # the middle-thirds support meets exactly 2**j base-3 boxes at level j
    for depth in (3, 4):
        mu = calibration_measure("cantor-thirds", depth)
        cells = max(mu.entries, key=len)
        s = SpectralSet(mu.grid, cells)
        for j in range(depth + 1):
            assert box_count(s, j) == 2 ** min(j, depth)


def test_family_registry():
    # a name is the callable it stands for: the same estimate, field for field
    for name, make in (("parity", partial(NoiseFunctional.from_family, "parity")),
                       ("cantor-calibration", partial(calibration_measure, "cantor-thirds"))):
        assert estimate_dimension(name, [5, 6], 16, 3) == estimate_dimension(make, [5, 6], 16, 3)
    with pytest.raises(ValueError, match="unknown family 'nonesuch'") as err:
        estimate_dimension("nonesuch", [5], 8, 0)
    assert all(name in str(err.value) for name in [*family_names(), "cantor-calibration"])


def test_parity_slope_is_one():
    est = estimate_dimension("parity", [6, 7], samples=8, seed=0)
    assert_allclose(est.slope, 1.0, atol=1e-12)
    assert_allclose(est.r_squared, 1.0, atol=1e-12)
    assert not est.clamped
    assert est.empty_fraction == 0.0


def test_single_coordinate_slope_is_zero():
    est = estimate_dimension("single-coordinate", [6, 7], samples=64, seed=1)
    assert_allclose(est.slope, 0.0, atol=1e-12)
    assert est.empty_fraction == 0.0  # the measure has no empty atom


def test_cantor_slope_near_log2_over_log3():
    est = estimate_dimension("cantor-calibration", [7], samples=1, seed=0)
    assert abs(est.slope - np.log(2) / np.log(3)) < 0.05
    # deterministic family: repeated runs agree exactly
    again = estimate_dimension("cantor-calibration", [7], samples=1, seed=99)
    assert est.slope == again.slope


def test_tribes_sees_empty_draws():
    est = estimate_dimension("tribes", [5], samples=400, seed=3)
    # the weight on the constant part shows up as empty draws
    assert 0.0 < est.empty_fraction < 1.0


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate_dimension("parity", [3], samples=4, seed=0)
    with pytest.raises(ValueError):
        estimate_dimension("parity", [6], samples=0, seed=0)


def test_estimate_refuses_an_empty_level_list():
    # refused up front, not reported as a corpus of empty sets
    with pytest.raises(ValueError, match="need at least one level"):
        estimate_dimension("majority3-iterated", [], samples=4, seed=0)


def test_scale_points_are_auditable():
    est = estimate_dimension("parity", [6], samples=4, seed=5)
    assert [p.box_level for p in est.points] == [2, 3, 4]
    for p in est.points:
        assert p.level == 6
        assert p.samples == 4
        # parity's support is the full window: counts are exact powers of two
        assert_allclose(p.mean_log2_count, p.box_level, atol=1e-12)
        assert p.stderr == 0.0


def test_reproducible_across_calls():
    a = estimate_dimension("white-noise-i2", [5, 6], samples=50, seed=11)
    b = estimate_dimension("white-noise-i2", [5, 6], samples=50, seed=11)
    assert a.slope == b.slope
    assert a.empty_fraction == b.empty_fraction


def test_box_counts_match_the_set_based_count():
    from noisespectra.dimension import _box_counts

    rng = np.random.default_rng(1306)
    for grid in (TimeGrid(0, 1, 5), TimeGrid(0, 1, 4, base=3), TimeGrid(0, 1, 6, base=3)):
        n = grid.n_cells
        sets = [SpectralSet(grid, ()), SpectralSet(grid, tuple(range(n)))]
        for density in (0.02, 0.2, 0.7):
            sets += [SpectralSet(grid, tuple(np.flatnonzero(rng.random(n) < density).tolist()))
                     for _ in range(20)]
        nonempty = [s.cells for s in sets if s.cells]
        lengths = [len(c) for c in nonempty]
        flat = np.concatenate(nonempty)
        starts = np.cumsum([0] + lengths[:-1])
        for j in range(grid.level + 1):
            width = grid.base ** (grid.level - j)
            want = [len({c // width for c in s.cells}) for s in sets]
            assert [box_count(s, j) for s in sets] == want
            assert _box_counts(flat, starts, width).tolist() == [w for w in want if w]


def test_box_count_jumps_agree_with_the_definition_at_maj3_level_12():
    # box_count bisects from box to box; the definition counts distinct c // width
    from noisespectra import sample_sets, spectral_measure_of
    from noisespectra.dimension import _box_counts

    mu = spectral_measure_of(NoiseFunctional.from_family("majority3-iterated", 12))
    grid, n = mu.grid, mu.grid.n_cells
    sets = sample_sets(mu, 200, seed=1212)
    nonempty = [s.cells for s in sets if s.cells]
    flat = np.fromiter((c for cells in nonempty for c in cells), dtype=np.int64)
    starts = np.cumsum([0] + [len(c) for c in nonempty[:-1]])
    edge = [SpectralSet(grid, ()), SpectralSet(grid, (n - 1,)), SpectralSet(grid, tuple(range(n)))]
    big = max(range(len(sets)), key=lambda i: len(sets[i].cells))
    for j in range(13):
        width = 3 ** (12 - j)
        want = [len({c // width for c in s.cells}) for s in sets]
        assert [box_count(s, j) for s in sets] == want
        assert _box_counts(flat, starts, width).tolist() == [w for w in want if w]
        assert [box_count(s, j) for s in edge] == [0, 1, 3**j]
        assert box_count(sets[big], np.int64(j)) == want[big]
