"""Time grids and the Boolean algebra of grid-aligned elementary sets.

A grid splits a rational window [start, end) into ``base**level`` equal cells.
The default base is 2, so refinement is dyadic; base 3 exists for ternary
constructions (iterated majority, middle-thirds calibration) and a composite
base covers odd-width lab windows.  All endpoint arithmetic is exact via
``fractions.Fraction``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
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

    @property
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
        if not 0 <= i <= self.n_cells:
            raise ValueError(f"boundary index {i} out of range 0..{self.n_cells}")
        a, h, d = self.ticks
        # a numpy index would wrap in h * i and leave numpy ints inside the Fraction
        return Fraction(a + h * int(i), d)

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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _canonical_ranges(ranges: Iterable[tuple[int, int]], n_cells: int) -> tuple[tuple[int, int], ...]:
    ranges = tuple(ranges)
    for r in ranges:
        if not hasattr(r, "__len__") or len(r) != 2:
            raise ValueError(f"range {r!r} is not a (lo, hi) pair")
    _integers(chain.from_iterable(ranges), "range bounds")
    cleaned = []
    for lo, hi in ranges:
        if lo < 0 or hi > n_cells:
            raise ValueError(f"range [{lo}, {hi}) outside 0..{n_cells}")
        if lo < hi:
            cleaned.append((int(lo), int(hi)))
    cleaned.sort()
    merged: list[list[int]] = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


@dataclass(frozen=True)
class ElementarySet:
    """Finite union of grid cells, stored as disjoint sorted index ranges [lo, hi)."""

    grid: TimeGrid
    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranges", _canonical_ranges(self.ranges, self.grid.n_cells))

    # -- constructors -------------------------------------------------------
    @classmethod
    def empty(cls, grid: TimeGrid) -> "ElementarySet":
        return cls(grid, ())

    @classmethod
    def full(cls, grid: TimeGrid) -> "ElementarySet":
        return cls(grid, ((0, grid.n_cells),))

    @classmethod
    def from_cells(cls, grid: TimeGrid, cells: Iterable[int]) -> "ElementarySet":
        """Set of the given cells; each run of consecutive cells becomes one range.

        A 1-d integer array of at least NUMPY_RUNS_FROM cells finds its runs with
        array masks and keeps only their int64 `bounds`: the `ranges` tuples are
        built from them on first read.  Other input is taken cell by cell as
        Python ints, faster below that size, and a bool or a float cell is refused.
        The runs come out canonical, so neither route merges.
        """
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
            runs: list[list[int]] = []
            for c in v:
                if runs and runs[-1][1] == c:
                    runs[-1][1] = c + 1
                else:
                    runs.append([c, c + 1])
            return cls._canonical(grid, tuple((lo, hi) for lo, hi in runs))
        # cells are nonnegative now, so no gap between sorted ones wraps;
        # repeated cells (gap 0) stay inside their run
        gap = v[1:] - v[:-1] > 1
        bounds = np.empty(2 * int(np.count_nonzero(gap)) + 2, dtype=np.int64)  # lo, hi, lo, ...
        bounds[::2] = v[np.concatenate([[True], gap])]
        # ends step past the last cell in int64: a narrow dtype would wrap
        np.add(v[np.concatenate([gap, [True]])], 1, out=bounds[1::2], dtype=np.int64)
        s = cls.__new__(cls)
        s.__dict__.update(grid=grid, bounds=_read_only(bounds))  # the value `bounds` would build
        return s

    @classmethod
    def _canonical(cls, grid: TimeGrid, ranges: tuple[tuple[int, int], ...]) -> "ElementarySet":
        """Trusted constructor for ranges already on the grid, sorted, nonempty
        and merged (each range starts past the end of the one before), as
        ``from_cells``, ``complement`` and ``intersection`` build them.  Input
        that may overlap or leave the grid goes through ``ElementarySet(...)``."""
        s = cls.__new__(cls)
        object.__setattr__(s, "grid", grid)
        object.__setattr__(s, "ranges", ranges)
        return s

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

    def __getattr__(self, name: str):  # an array-built set's `ranges`, made on first read
        got = vars(self)
        if name != "ranges" or "bounds" not in got:
            raise AttributeError(name)
        b = got["bounds"]
        return got.setdefault(name, tuple(zip(b[::2].tolist(), b[1::2].tolist())))

    # -- queries ------------------------------------------------------------
    @property
    def cell_count(self) -> int:
        return sum(hi - lo for lo, hi in self.ranges)

    def cells(self) -> tuple[int, ...]:
        return tuple(c for lo, hi in self.ranges for c in range(lo, hi))

    def mask(self) -> int:
        """Bitmask with bit i set iff cell i belongs to the set."""
        m = 0
        for lo, hi in self.ranges:
            m |= ((1 << (hi - lo)) - 1) << lo
        return m

    def measure(self) -> Fraction:
        return self.grid.cell_length * self.cell_count

    @cached_property
    def bounds(self) -> np.ndarray:
        """The ranges laid flat, lo0, hi0, lo1, ..., read-only int64; `from_cells` keeps its own."""
        return _read_only(np.array(self.ranges, dtype=np.int64).reshape(-1))

    def format_ranges(self) -> str:
        return ",".join(f"{lo}:{hi}" for lo, hi in self.ranges)

    # -- Boolean algebra ----------------------------------------------------
    def union(self, other: "ElementarySet") -> "ElementarySet":
        require_same_grid(self.grid, other.grid)
        return ElementarySet(self.grid, self.ranges + other.ranges)

    def intersection(self, other: "ElementarySet") -> "ElementarySet":
        require_same_grid(self.grid, other.grid)
        out = []
        i = j = 0
        a, b = self.ranges, other.ranges
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return ElementarySet._canonical(self.grid, tuple(out))

    def complement(self) -> "ElementarySet":
        out = []
        prev = 0
        for lo, hi in self.ranges:
            if prev < lo:
                out.append((prev, lo))
            prev = hi
        if prev < self.grid.n_cells:
            out.append((prev, self.grid.n_cells))
        return ElementarySet._canonical(self.grid, tuple(out))

    def difference(self, other: "ElementarySet") -> "ElementarySet":
        return self.intersection(other.complement())

    def __or__(self, other: "ElementarySet") -> "ElementarySet":
        return self.union(other)

    def __and__(self, other: "ElementarySet") -> "ElementarySet":
        return self.intersection(other)

    def __invert__(self) -> "ElementarySet":
        return self.complement()

    def __le__(self, other: "ElementarySet") -> bool:
        return self.intersection(other) == self

    def __repr__(self) -> str:
        body = self.format_ranges() or "empty"
        return f"ElementarySet({body})"


def left_of(grid: TimeGrid, boundary: int) -> ElementarySet:
    """Cells strictly before grid boundary index `boundary`."""
    if not 0 <= boundary <= grid.n_cells:
        raise ValueError(f"boundary index {boundary} out of range")
    return ElementarySet(grid, ((0, boundary),) if boundary > 0 else ())


def right_of(grid: TimeGrid, boundary: int) -> ElementarySet:
    """Cells at or after grid boundary index `boundary`."""
    if not 0 <= boundary <= grid.n_cells:
        raise ValueError(f"boundary index {boundary} out of range")
    n = grid.n_cells
    return ElementarySet(grid, ((boundary, n),) if boundary < n else ())
