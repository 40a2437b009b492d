"""Time grids and the Boolean algebra of grid-aligned elementary sets.

A grid splits a rational window [start, end) into ``base**level`` equal cells.
The default base is 2, so refinement is dyadic; base 3 exists for ternary
constructions (iterated majority, middle-thirds calibration) and a composite
base covers odd-width lab windows.  All endpoint arithmetic is exact via
``fractions.Fraction``.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from operator import lt
from typing import Iterable, Union

import numpy as np

Rational = Union[int, str, Fraction, float]

# integer arrays from this many cells up find their runs in numpy (measured)
NUMPY_RUNS_FROM = 64


class GridMismatchError(ValueError):
    """Raised when two objects live on different grids."""


@dataclass(frozen=True)
class TimeGrid:
    """Equal-cell grid on the half-open window [interval_start, interval_end)."""

    interval_start: Fraction
    interval_end: Fraction
    level: int
    base: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "interval_start", Fraction(self.interval_start))
        object.__setattr__(self, "interval_end", Fraction(self.interval_end))
        level, base = map(int, _integers((self.level, self.base), "grid level and base"))
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "base", base)
        if self.interval_start >= self.interval_end:
            raise ValueError("interval_start must be strictly below interval_end")
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if self.base < 2:
            raise ValueError("base must be at least 2")

    @cached_property
    def n_cells(self) -> int:
        return self.base**self.level

    @cached_property
    def cell_length(self) -> Fraction:
        # computed once per grid; equality and hash still use the fields only
        return (self.interval_end - self.interval_start) / self.n_cells

    @cached_property
    def ticks(self) -> tuple[int, int, int]:
        """Integers (a, h, d), d > 0, with boundary i at exactly (a + h i) / d."""
        (a, b), (h, c) = self.interval_start.as_integer_ratio(), self.cell_length.as_integer_ratio()
        return a * c, h * b, b * c

    def boundary(self, i: int) -> Fraction:
        """Time of boundary i, for i in 0..n_cells."""
        a, h, d = self.ticks
        return Fraction(a + h * _boundary(self, i), d)

    def boundary_index(self, t: Rational) -> int:
        """Index of the grid point at time t; raises if t is not a grid point."""
        t = Fraction(t)
        a, h, d = self.ticks
        # t = (a + h i) / d exactly when t's denominator times h divides the rest
        i, rest = divmod(t.numerator * d - a * t.denominator, t.denominator * h)
        if rest or not 0 <= i <= self.n_cells:
            raise ValueError(f"{t} is not a grid point of {self}")
        return i

    def cells_meeting_open_interval(self, lo: Rational, hi: Rational) -> range:
        """Cell indices whose half-open cell [a, b) meets the open interval (lo, hi)."""
        lo, hi = Fraction(lo), Fraction(hi)
        lo = max(lo, self.interval_start)
        hi = min(hi, self.interval_end)
        if hi <= lo:
            return range(0)
        s, h = self.interval_start, self.cell_length
        # cell i is [s + i h, s + (i + 1) h): b > lo from i = floor((lo - s)/h) on,
        # a < hi up to i = ceil((hi - s)/h) - 1; floor division of Fractions gives ints
        return range(max((lo - s) // h, 0), min(-((s - hi) // h), self.n_cells))

    def __repr__(self) -> str:  # compact, grids appear in many error messages
        return (
            f"TimeGrid([{self.interval_start}, {self.interval_end}), "
            f"level={self.level}, base={self.base})"
        )


def require_same_grid(a: TimeGrid, b: TimeGrid) -> None:
    """The query path's one grid check: an identity test, then a field comparison."""
    if a is not b and a != b:
        raise GridMismatchError(f"grid mismatch: {a} vs {b}")


def _integers(values: Iterable, what: str) -> list:
    """`values` as a list of integers.  An integer array is vouched for by its dtype;
    anything else takes one pass over its entries' types, and a bool or a float is refused."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.tolist()
    values = values.tolist() if hasattr(values, "tolist") else list(values)
    types = set(map(type, values))
    if not types <= {int} and not all(t is not bool and issubclass(t, (int, np.integer))
                                      for t in types):
        bad = next(v for v in values if type(v) is bool or not isinstance(v, (int, np.integer)))
        raise ValueError(f"{what} must be integers, got {bad!r}")
    return values


def _integer(value, what: str) -> int:
    """`value` as a Python int, by the rule of `_integers`."""
    if type(value) is int:
        return value
    if type(value) is bool or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _boundary(grid: TimeGrid, i) -> int:
    """Boundary index `i` as a Python int in 0..n_cells: the one check of every boundary index."""
    if not 0 <= (i := _integer(i, "boundary index")) <= grid.n_cells:
        raise ValueError(f"boundary index {i} out of range 0..{grid.n_cells}")
    return i


def _canonical_bounds(ranges: Iterable, n_cells: int) -> list[int] | np.ndarray:
    """The bounds of a union of (lo, hi) pairs.  The pairs and their integers are checked
    before the int64 cast; a bound the cast cannot hold goes to the per-range check."""
    ranges = tuple(ranges)
    try:
        paired = set(map(len, ranges)) <= {2}
    except TypeError:  # an entry with no length
        paired = False
    if not paired:
        bad = next(r for r in ranges if not hasattr(r, "__len__") or len(r) != 2)
        raise ValueError(f"range {bad!r} is not a (lo, hi) pair")
    flat = _integers(chain.from_iterable(ranges), "range bounds")
    if flat and flat[0] >= 0 and flat[-1] <= n_cells:  # rising bounds are canonical as they stand
        if len(flat) < NUMPY_RUNS_FROM:
            if all(map(lt, flat, islice(flat, 1, None))):
                return flat
        else:  # checked as an array; a bound past int64 breaks the rise and fails the cast
            with suppress(OverflowError):
                b = np.array(flat, dtype=np.int64)
                if (b[1:] > b[:-1]).all():
                    return b
    pairs = list(zip(flat[::2], flat[1::2]))
    for lo, hi in pairs:
        if lo < 0 or hi > n_cells:
            raise ValueError(f"range [{lo}, {hi}) outside 0..{n_cells}")
    # past int64 only in an empty range now; the nonempty ones are sorted by one argsort of
    # their starts, and each joins the range before it unless it starts past every end so far
    lo, hi = np.array([r for r in pairs if r[0] < r[1]], dtype=np.int64).reshape(-1, 2).T
    order = np.argsort(lo)
    lo, ends = lo[order], np.maximum.accumulate(hi[order])
    opens = lo > np.concatenate(([-1], ends[:-1]))
    # a merged range ends at the running maximum before the next opening range, or at the last
    return np.stack((lo[opens], ends[np.roll(opens, -1)]), axis=1).reshape(-1)


class ElementarySet:
    """Finite union of grid cells, stored only as `bounds`, read-only int64 lo0, hi0, lo1, ...
    of sorted ranges [lo, hi), each nonempty and starting past the end of the one before; so
    equal sets have equal grids and bounds bytes.  `ranges` reads them back as int pairs."""

    __slots__ = ("grid", "bounds")

    def __new__(cls, grid: TimeGrid, ranges: Iterable[tuple[int, int]]) -> "ElementarySet":
        return _trusted(grid, _canonical_bounds(ranges, grid.n_cells))

    # -- constructors -------------------------------------------------------
    @classmethod
    def empty(cls, grid: TimeGrid) -> "ElementarySet":
        return _trusted(grid, ())

    @classmethod
    def full(cls, grid: TimeGrid) -> "ElementarySet":
        return _trusted(grid, (0, grid.n_cells))

    @classmethod
    def from_cells(cls, grid: TimeGrid, cells: Iterable[int]) -> "ElementarySet":
        """Set of the given cells; each run of consecutive cells becomes one range.

        A 1-d integer array of at least NUMPY_RUNS_FROM cells finds its runs with array masks;
        other input, faster below that size, is taken as Python ints, refusing a bool or a
        float.  Both routes write canonical `bounds`."""
        if (isinstance(cells, np.ndarray) and cells.ndim == 1 and cells.dtype.kind in "iu"
                and cells.size >= NUMPY_RUNS_FROM):
            v = np.sort(cells)
        else:
            v = sorted(set(map(int, _integers(cells, "cells"))))
        n = grid.n_cells
        if len(v) and (v[0] < 0 or v[-1] >= n):
            bad = int(v[0] if v[0] < 0 else v[np.searchsorted(v, n)])
            raise ValueError(f"range [{bad}, {bad + 1}) outside 0..{n}")
        if isinstance(v, list):
            bounds: list[int] = []
            for c in v:
                if bounds and bounds[-1] == c:
                    bounds[-1] = c + 1
                else:
                    bounds += (c, c + 1)
            return _trusted(grid, bounds)
        # cells are nonnegative now, so no gap between sorted ones wraps;
        # repeated cells (gap 0) stay inside their run
        gap = v[1:] - v[:-1] > 1
        bounds = np.empty(2 * int(np.count_nonzero(gap)) + 2, dtype=np.int64)  # lo, hi, lo, ...
        bounds[::2] = v[np.concatenate([[True], gap])]
        # ends step past the last cell in int64: a narrow dtype would wrap
        np.add(v[np.concatenate([gap, [True]])], 1, out=bounds[1::2], dtype=np.int64)
        return _trusted(grid, bounds)

    @classmethod
    def parse(cls, grid: TimeGrid, text: str) -> "ElementarySet":
        """Parse "0:2,5:6" style cell-range lists; "" is the empty set.

        A part is one cell or one lo:hi range of integers with lo <= hi; anything
        else is refused with the part named."""
        text = text.strip()
        if not text:
            return cls.empty(grid)
        ranges = []
        for part in text.split(","):
            part = part.strip()
            lo, sep, hi = part.partition(":")
            try:
                lo, hi = int(lo), int(hi) if sep else int(lo) + 1
                ok = lo <= hi
            except ValueError:  # a bound that is not an integer
                ok = False
            if not ok:
                raise ValueError(f"bad cell range {part!r}: want one cell or lo:hi with lo <= hi")
            ranges.append((lo, hi))
        return cls(grid, tuple(ranges))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"ElementarySet is immutable: cannot set {name!r}")

    def __reduce__(self):  # copies and pickles rebuild read-only bounds
        return _trusted, (self.grid, self.bounds)

    # -- queries ------------------------------------------------------------
    @property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        b = self.bounds.tolist()
        return tuple(zip(b[::2], b[1::2]))

    @property
    def cell_count(self) -> int:
        return int((self.bounds[1::2] - self.bounds[::2]).sum())

    def cells(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(map(range, *self.bounds.reshape(-1, 2).T.tolist())))

    def mask(self) -> int:
        """Bitmask with bit i set iff cell i belongs to the set."""
        return sum((1 << hi) - (1 << lo) for lo, hi in self.bounds.reshape(-1, 2).tolist())

    def measure(self) -> Fraction:
        return self.grid.cell_length * self.cell_count

    def format_ranges(self) -> str:
        return ",".join(f"{lo}:{hi}" for lo, hi in self.ranges)

    # -- Boolean algebra: sweeps of the bounds -------------------------------
    def intersection(self, other: "ElementarySet") -> "ElementarySet":
        require_same_grid(self.grid, other.grid)
        a, b = self.bounds.tolist(), other.bounds.tolist()
        out: list[int] = []
        i = j = 0
        while i < len(a) and j < len(b):  # the range that ends first closes the overlap
            lo = max(a[i], b[j])
            if a[i + 1] <= b[j + 1]:
                if lo < a[i + 1]:
                    out += (lo, a[i + 1])
                i += 2
            else:
                if lo < b[j + 1]:
                    out += (lo, b[j + 1])
                j += 2
        return _trusted(self.grid, out)

    def complement(self) -> "ElementarySet":
        n = self.grid.n_cells
        gaps = [0, *self.bounds.tolist(), n]  # (0, lo0), (hi0, lo1), ..., (hi, n), less empty ends
        return _trusted(self.grid, gaps[2 if gaps[1] == 0 else 0 : -2 if gaps[-2] == n else None])

    def union(self, other: "ElementarySet") -> "ElementarySet":
        return ~(~self & ~other)

    def difference(self, other: "ElementarySet") -> "ElementarySet":
        return self & ~other

    __and__, __invert__, __or__ = intersection, complement, union

    def __le__(self, other: "ElementarySet") -> bool:
        return self & other == self

    def __eq__(self, other) -> bool:
        if other.__class__ is not ElementarySet:
            return NotImplemented
        return self.bounds.tobytes() == other.bounds.tobytes() and self.grid == other.grid

    def __hash__(self) -> int:
        return hash((self.grid, self.bounds.tobytes()))

    def __repr__(self) -> str:
        return f"ElementarySet({self.format_ranges() or 'empty'})"


_SET_GRID, _SET_BOUNDS = ElementarySet.grid.__set__, ElementarySet.bounds.__set__


def _trusted(grid: TimeGrid, bounds) -> ElementarySet:
    """The set of canonical bounds (a list or a fresh int64 array), set past `__setattr__`."""
    s, bounds = object.__new__(ElementarySet), np.asarray(bounds, dtype=np.int64)
    bounds.setflags(write=False)
    _SET_GRID(s, grid)
    _SET_BOUNDS(s, bounds)
    return s


def left_of(grid: TimeGrid, boundary: int) -> ElementarySet:
    """Cells strictly before grid boundary index `boundary`."""
    return ElementarySet(grid, ((0, _boundary(grid, boundary)),))


def right_of(grid: TimeGrid, boundary: int) -> ElementarySet:
    """Cells at or after grid boundary index `boundary`."""
    return ~left_of(grid, boundary)
