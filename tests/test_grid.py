from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from noisespectra import (
    ElementarySet,
    GridMismatchError,
    TimeGrid,
    left_of,
    right_of,
)
from noisespectra.grid import NUMPY_RUNS_FROM, require_same_grid


def test_grid_basics():
    g = TimeGrid(0, 1, 3)
    assert g.n_cells == 8
    assert g.cell_length == Fraction(1, 8)
    assert g.boundary(0) == 0
    assert g.boundary(8) == 1


def test_grid_nondyadic_base():
    g = TimeGrid(0, 1, 2, base=3)
    assert g.n_cells == 9
    assert g.cell_length == Fraction(1, 9)
    # base-n level-1 grids give arbitrary cell counts
    assert TimeGrid(0, 1, 1, base=10).n_cells == 10


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1, 0, 2)
    with pytest.raises(ValueError):
        TimeGrid(0, 1, -1)
    with pytest.raises(ValueError):
        TimeGrid(0, 1, 2, base=1)


def test_boundary_index_roundtrip():
    g = TimeGrid(Fraction(1, 4), Fraction(3, 4), 4)
    for i in range(g.n_cells + 1):
        assert g.boundary_index(g.boundary(i)) == i
    with pytest.raises(ValueError):
        g.boundary_index(Fraction(1, 3))  # not a grid point
    with pytest.raises(ValueError):
        g.boundary_index(0)  # below the window


def test_refine_preserves_boundaries():
    g = TimeGrid(0, 1, 2)
    fine = TimeGrid(0, 1, 4)  # the same window with base**2 more cells
    assert fine.n_cells == 16
    for i in range(g.n_cells + 1):
        assert fine.boundary_index(g.boundary(i)) == 4 * i


def test_cells_meeting_open_interval():
    g = TimeGrid(0, 1, 3)
    # interior window across cell boundaries
    assert g.cells_meeting_open_interval(Fraction(1, 4), Fraction(1, 2)) == range(2, 4)
    # boundary-aligned endpoints exclude the touching-only cells
    assert g.cells_meeting_open_interval(Fraction(3, 16), Fraction(5, 16)) == range(1, 3)
    # clipping at the window edges
    assert g.cells_meeting_open_interval(-10, Fraction(1, 8)) == range(0, 1)
    assert g.cells_meeting_open_interval(Fraction(7, 8), 10) == range(7, 8)
    # degenerate
    assert len(g.cells_meeting_open_interval(2, 3)) == 0


def test_require_same_grid():
    with pytest.raises(GridMismatchError):
        require_same_grid(TimeGrid(0, 1, 2), TimeGrid(0, 1, 3))


# ---------------------------------------------------------------------------
# elementary sets


GRID = TimeGrid(0, 1, 3)


def test_set_constructors_and_canonical_form():
    s = ElementarySet(GRID, ((5, 6), (0, 2), (2, 3)))
    assert s.ranges == ((0, 3), (5, 6))  # sorted, adjacent ranges merged
    assert s.cells() == (0, 1, 2, 5)
    assert s.cell_count == 4
    assert ElementarySet.from_cells(GRID, [3, 1, 3]).ranges == ((1, 2), (3, 4))
    assert ElementarySet.empty(GRID).ranges == ()
    assert ElementarySet.full(GRID).cell_count == 8


def per_cell_set(grid, cells):
    """The one-range-per-cell form that from_cells must reproduce."""
    return ElementarySet(grid, tuple((c, c + 1) for c in sorted(set(int(c) for c in cells))))


def test_from_cells_matches_per_cell_form():
    big = TimeGrid(0, 1, 8, base=3)
    scattered = np.flatnonzero(np.random.default_rng(5).integers(0, 2, big.n_cells))
    cases = [
        (GRID, []),
        (GRID, [3, 1, 3, 3, 2]),
        (GRID, (7, 0, 6, 5)),
        (GRID, np.array([4, 0, 1, 4], dtype=np.int32)),
        (GRID, range(8)),
        (big, scattered),
        (big, scattered.tolist()[::-1]),
        (big, range(big.n_cells)),
    ]
    for grid, cells in cases:
        got = ElementarySet.from_cells(grid, cells)
        assert got == per_cell_set(grid, cells)
        assert all(type(v) is int for r in got.ranges for v in r)
        # the flat int64 bounds, kept by the array route, built once by the others
        assert got.bounds.dtype == np.int64 and not got.bounds.flags.writeable
        assert got.bounds.tolist() == [v for r in got.ranges for v in r]
        assert got.bounds is got.bounds
    assert len(ElementarySet.from_cells(big, scattered).ranges) > 1000
    for cells in ([8], [-1, 3], [2, 9, 8, 12], np.array([0, 10])):
        with pytest.raises(ValueError) as expected:
            per_cell_set(GRID, cells)
        with pytest.raises(ValueError) as got:
            ElementarySet.from_cells(GRID, cells)
        assert str(got.value) == str(expected.value)


FROM_CELLS_PINS = [  # on 16 cells: (cells, the ranges or the ValueError text)
    (np.array([3, 1, 2, 2, 9, 10, 15]), ((1, 4), (9, 11), (15, 16))),
    (np.array([7, 6, 0], dtype=np.uint64), ((0, 1), (6, 8))),
    (np.array([1, 2, 4], dtype=np.int8), ((1, 3), (4, 5))),
    (np.array([], dtype=np.int64), ()),
    (np.arange(16), ((0, 16),)),
    ([5, 3, 4, 4, 0], ((0, 1), (3, 6))),
    ([], ()),
    ((0, 1, 2, 3), ((0, 4),)),
    ([np.int64(3), np.int32(4)], ((3, 5),)),
    (np.array([1.0, 2.7]), "cells must be integers, got 1.0"),
    ([1.5, 3.2], "cells must be integers, got 1.5"),
    (np.array([-2, 3]), "range [-2, -1) outside 0..16"),
    (np.array([1, 16, 17]), "range [16, 17) outside 0..16"),
    ([-1, 0], "range [-1, 0) outside 0..16"),
    ([0, 20, 16], "range [16, 17) outside 0..16"),
    ([2**70], f"range [{2**70}, {2**70 + 1}) outside 0..16"),
    # arrays of NUMPY_RUNS_FROM cells and more take the numpy route
    (np.tile([3, 1, 2, 9, 10, 15], 12), ((1, 4), (9, 11), (15, 16))),
    (np.tile(np.array([7, 6, 0], dtype=np.uint64), 30), ((0, 1), (6, 8))),
    (np.arange(80) % 16, ((0, 16),)),
    (np.append(np.arange(70) % 16, -3), "range [-3, -2) outside 0..16"),
    (np.append(np.arange(70) % 16, [17, 16]), "range [16, 17) outside 0..16"),
    # bools and floats are refused, as arrays, as entries and at either size
    (np.array([True, False, True]), "cells must be integers, got True"),
    ([2, np.float64(3.0)], "cells must be integers, got np.float64(3.0)"),
    ([1, True], "cells must be integers, got True"),
    (np.arange(70) % 16 == 1, "cells must be integers, got False"),
    (np.arange(70.0) % 16, "cells must be integers, got 0.0"),
]


@pytest.mark.parametrize("cells, want", FROM_CELLS_PINS)
def test_from_cells_keeps_its_ranges_and_messages(cells, want):
    grid = TimeGrid(0, 1, 4)
    if isinstance(want, str):
        with pytest.raises(ValueError) as got:
            ElementarySet.from_cells(grid, cells)
        assert str(got.value) == want
        return
    s = ElementarySet.from_cells(grid, cells)
    assert s.ranges == want and s == ElementarySet(grid, want)
    assert all(type(v) is int for r in s.ranges for v in r)


@pytest.mark.parametrize("ranges, bad", [
    (((1, 1.5),), "1.5"), (((True, 3),), "True"), ([(0, np.float64(2.0))], "np.float64(2.0)"),
])
def test_range_bounds_must_be_integers(ranges, bad):
    with pytest.raises(ValueError) as got:
        ElementarySet(TimeGrid(0, 1, 4), ranges)
    assert str(got.value) == f"range bounds must be integers, got {bad}"


@pytest.mark.parametrize("ranges, bad", [
    (((0, 3, 5),), "(0, 3, 5)"), (((0,),), "(0,)"), ((3,), "3"), (((0, 2), [4]), "[4]"),
])
def test_ranges_must_be_pairs(ranges, bad):
    with pytest.raises(ValueError) as got:
        ElementarySet(TimeGrid(0, 1, 4), ranges)
    assert str(got.value) == f"range {bad} is not a (lo, hi) pair"


def test_from_cells_of_narrow_integer_arrays_does_not_wrap():
    grid = TimeGrid(0, 1, 8)
    for dtype in (np.int8, np.uint8):
        cells = np.array([127, 0, 126, 0] * 20, dtype=dtype)
        got = ElementarySet.from_cells(grid, cells)
        assert got.ranges == ((0, 1), (126, 128)) and got.bounds.tolist() == [0, 1, 126, 128]
        got = ElementarySet.from_cells(grid, np.array([255, 0, 254] * 30, dtype=np.uint8))
        assert got.ranges == ((0, 1), (254, 256)) and got.bounds.tolist() == [0, 1, 254, 256]
    with pytest.raises(ValueError, match=r"range \[-128, -127\) outside 0..256"):
        ElementarySet.from_cells(grid, np.array([-128, 127] * 40, dtype=np.int8))
    with pytest.raises(TypeError):  # one cell per entry, as for a list of lists
        ElementarySet.from_cells(grid, np.array([[0, 1], [2, 3]]))


@pytest.mark.parametrize("grid", [
    TimeGrid(0, 1, 10), TimeGrid(Fraction(1, 3), Fraction(5, 7), 3, 3),
    TimeGrid(Fraction(-1, 2), Fraction(3, 2), 5), TimeGrid(Fraction(2, 9), Fraction(13, 6), 4, 6),
    TimeGrid(0.1, 0.7, 3, 5),
])
def test_ticks_are_the_exact_boundaries(grid):
    a, h, d = grid.ticks
    assert d > 0 and all(type(x) is int for x in (a, h, d))
    for i in range(grid.n_cells + 1):
        assert Fraction(a + h * i, d) == grid.interval_start + i * grid.cell_length
    with pytest.raises(AttributeError):
        grid.ticks = (0, 1, 1)


def test_cached_cell_length_keeps_exact_values_and_identity():
    g = TimeGrid(Fraction(1, 3), 2, 4, base=3)
    n, width = g.n_cells, Fraction(5, 3)
    assert g.cell_length == width / n
    for i in range(n + 1):
        assert g.boundary(i) == Fraction(1, 3) + width * i / n
    fresh = TimeGrid(Fraction(1, 3), 2, 4, base=3)
    assert fresh == g and hash(fresh) == hash(g)
    assert g != TimeGrid(Fraction(1, 3), 2, 3, base=3)


def test_set_parse_format_roundtrip():
    s = ElementarySet.parse(GRID, "0:2, 5, 7:8")
    assert s.cells() == (0, 1, 5, 7)
    assert ElementarySet.parse(GRID, s.format_ranges()) == s
    assert ElementarySet.parse(GRID, "") == ElementarySet.empty(GRID)
    with pytest.raises(ValueError):
        ElementarySet.parse(GRID, "0:9")
    assert ElementarySet.parse(GRID, "3:3, 6") == ElementarySet(GRID, ((6, 7),))
    for text, part in [("5:2", "5:2"), ("0, 1:2:3", "1:2:3"), ("4:", "4:"), (":3", ":3"),
                       ("0,x", "x"), ("1, 2:y", "2:y"), ("1.5", "1.5"), ("0,,2", "")]:
        with pytest.raises(ValueError, match=f"bad cell range {part!r}"):
            ElementarySet.parse(GRID, text)
    assert ElementarySet(GRID, ((5, 2),)) == ElementarySet.empty(GRID)  # constructor unchanged


def test_set_measure_and_intervals():
    s = ElementarySet.parse(GRID, "0:2,4:5")
    assert s.measure() == Fraction(3, 8)


def test_set_mask_matches_cells():
    s = ElementarySet.parse(GRID, "1:3,6")
    assert s.mask() == 0b01000110


def test_left_right_of():
    assert left_of(GRID, 0).ranges == ()
    assert left_of(GRID, 3).cells() == (0, 1, 2)
    assert right_of(GRID, 3).cells() == (3, 4, 5, 6, 7)
    assert right_of(GRID, 8).ranges == ()
    assert left_of(GRID, 5) | right_of(GRID, 5) == ElementarySet.full(GRID)


WIDE = TimeGrid(0, 1, 1, base=100)


def array_built(grid, cells):
    """The set of `cells` by from_cells' array route: the cells repeated cyclically to
    NUMPY_RUNS_FROM entries or more (an empty set has no entries to repeat)."""
    a = np.array(sorted(cells), dtype=np.int64)
    if a.size:
        a = np.resize(a, max(a.size, NUMPY_RUNS_FROM))
    return ElementarySet.from_cells(grid, a)


# list-built operands on 8 cells; array-built ones on 100
ROUTES = pytest.mark.parametrize("grid, build",
                                 [(GRID, ElementarySet.from_cells), (WIDE, array_built)],
                                 ids=["list-route", "array-route"])


def cell_sets(grid):
    return st.sets(st.integers(0, grid.n_cells - 1))


@ROUTES
@given(st.data())
def test_boolean_algebra_matches_set_algebra(grid, build, data):
    a_cells, b_cells = data.draw(cell_sets(grid)), data.draw(cell_sets(grid))
    a, b = build(grid, a_cells), build(grid, b_cells)
    assert set((a | b).cells()) == a_cells | b_cells
    assert set((a & b).cells()) == a_cells & b_cells
    assert set(a.difference(b).cells()) == a_cells - b_cells


@ROUTES
@given(st.data())
def test_de_morgan(grid, build, data):
    a, b = (build(grid, data.draw(cell_sets(grid))) for _ in range(2))
    assert ~(a | b) == (~a) & (~b)
    assert ~(a & b) == (~a) | (~b)
    assert ~~a == a


@ROUTES
@given(st.data())
def test_partial_order(grid, build, data):
    a_cells, b_cells = data.draw(cell_sets(grid)), data.draw(cell_sets(grid))
    a, b = build(grid, a_cells), build(grid, b_cells)
    assert (a <= b) == (a_cells <= b_cells)


def grid_of(n: int) -> TimeGrid:
    return TimeGrid(0, 1, 0) if n == 1 else TimeGrid(0, 1, 1, base=n)


@pytest.mark.parametrize("sizes, build", [((1, 70), ElementarySet.from_cells),
                                          ((NUMPY_RUNS_FROM, 130), array_built)],
                         ids=["list-route", "array-route"])
@given(st.data())
def test_trusted_constructors_build_canonical_ranges(sizes, build, data):
    # complement, intersection and union skip the checks; their bounds must be
    # the ones the checking constructor makes of their ranges
    n = data.draw(st.integers(*sizes))
    grid = grid_of(n)
    a_cells, b_cells = (data.draw(st.sets(st.integers(0, n - 1))) for _ in range(2))
    a = build(grid, a_cells)
    b = build(grid, b_cells)
    for got, want in ((~a, set(range(n)) - a_cells), (a & b, a_cells & b_cells),
                      (a.difference(b), a_cells - b_cells), (a | b, a_cells | b_cells)):
        assert got == ElementarySet(grid, got.ranges)
        assert set(got.cells()) == want
    assert ~~a == a
    assert (a & ~a).ranges == ()


@pytest.mark.parametrize("count", [0, 63, 64, 65, 200])
def test_every_route_builds_one_set(count):
    # 63 cells take from_cells' list route, 64 and 65 its array route; 0 and 200 are the
    # empty and the full set of 200 cells
    grid = TimeGrid(0, 1, 1, base=200)
    cells = np.sort(np.random.default_rng(count).choice(200, size=count, replace=False))
    sets = [ElementarySet.from_cells(grid, cells.tolist()),
            ElementarySet.from_cells(grid, cells),
            ElementarySet(grid, [(c, c + 1) for c in cells.tolist()[::-1]])]  # merged
    sets.append(ElementarySet(grid, sets[1].ranges))  # already canonical
    first = sets[0]
    assert first.cells() == tuple(cells.tolist()) and first.cell_count == count
    for s in sets:
        assert s == first and hash(s) == hash(first)
        assert s.bounds.dtype == np.int64 and not s.bounds.flags.writeable
        assert s.bounds.tobytes() == first.bounds.tobytes()
        assert s.ranges == first.ranges and all(type(v) is int for r in s.ranges for v in r)
    assert (first == ElementarySet.full(grid)) == (count == 200)
    assert (first == ElementarySet.empty(grid)) == (count == 0)


@pytest.mark.parametrize("ranges, bad", [
    (((0, 2**63),), f"[0, {2**63})"), (((3, 2**64),), f"[3, {2**64})"),
    (((1, 2), (2**63, 2**64)), f"[{2**63}, {2**64})"), (((-2**64, 1),), f"[{-2**64}, 1)"),
])
def test_range_ends_past_int64_are_refused_as_off_the_grid(ranges, bad):
    with pytest.raises(ValueError) as got:
        ElementarySet(GRID, ranges)
    assert str(got.value) == f"range {bad} outside 0..8"


def test_empty_ranges_past_int64_are_dropped():
    got = ElementarySet(GRID, ((2**64, 3), (5, -2**63 - 1), (1, 2)))
    assert got == ElementarySet(GRID, ((1, 2),))
