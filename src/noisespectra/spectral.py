"""Spectral measures of noise functionals on finite grids.

The spectral measure of f puts, on every finite cell set S, the summed
squared chaos coefficients whose index has point support S.  Masses are
stored unnormalized, so the total is the squared norm of f; the empty-set
atom is the squared mean.  Conditional expectations become restriction
(multiplication by the indicator of the subsets of a region), adjacent
independent windows multiply, and the one-cell sets carry the first chaos.

Gaussian sources keep two side channels: multiplicity entries (indices whose
total degree on some cell is >= 2, aggregated by support but excluded from
the plain entries and from cardinality reports) and a truncation residual.

Every measure holds one query model, `SpectralMeasure.model`, of three kinds.
A table's measure holds its Walsh mass vector, indexed by subset bitmask, so a
region's mass is one sub-block sum; the first order-dependent read builds its
atom table.  Other dense measures hold that atom table.  Past the dense cap a
family's measure holds its tree model, which samples sets exactly and answers
the same queries with no table.  Cell tuples are decoded from the table's bit
rows on first read; a dense measure's entry mappings are read-only views of them.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Protocol

import numpy as np

from ._rng import worker_generator
from .chaos import ChaosCoefficients
from .functionals import (
    BackendError,
    FamilyRef,
    NoiseFunctional,
    RademacherTable,
    joined_grid,
)
from .grid import ElementarySet, TimeGrid, _boundary, _integer, _integers, require_same_grid
from .transform import decompose, walsh_coefficients
from .walsh import (DENSE_CELL_CAP, _checked_rows, cells_of_rows, inside, meeting, row_sizes,
                    run_axes)


@dataclass(frozen=True)
class SpectralSet:
    """A finite set of grid cells, the support of one spectral atom."""

    grid: TimeGrid
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        cells = tuple(sorted(set(map(int, _integers(self.cells, "cells")))))
        if cells and not 0 <= cells[0] <= cells[-1] < self.grid.n_cells:
            raise ValueError(f"cells {cells} outside grid with {self.grid.n_cells} cells")
        object.__setattr__(self, "cells", cells)

    @classmethod
    def _trusted(cls, grid: TimeGrid, cells: tuple[int, ...]) -> SpectralSet:
        """The set of `cells`, already a rising tuple of Python ints on the grid."""
        s = cls.__new__(cls)
        s.__dict__.update(grid=grid, cells=cells)
        return s

    @property
    def cardinality(self) -> int:
        return len(self.cells)


class SpectralModel(Protocol):
    """The protocol of `SpectralMeasure.model`, the one query object of every measure.

    A table's Walsh mass vector, a dense atom table and a family's tree model
    past the dense cap answer it; one with an atom table offers it as `table`,
    which dense-only operations read.  Regions arrive as sets (sorted disjoint
    ranges, held flat in int64 `bounds`) and cuts as boundary indices,
    so a model can answer them in time that grows with the number of range
    endpoints or boundaries and with its depth, not with the cell count.
    Masses exclude the truncation residual, which the measure keeps apart.
    """

    total_mass: float
    empty_mass: float
    multiplicity_mass: float

    def singleton_mass(self) -> float: ...

    def cardinality_profile(self) -> dict[int, float]: ...

    def subset_mass(self, region: ElementarySet) -> float: ...

    def straddle_masses(self, boundaries: np.ndarray) -> np.ndarray: ...

    def sample(self, k: int, seed: int) -> list[tuple[int, ...]]:
        """k seeded draws, each a tuple of Python ints rising strictly within
        0..n_cells-1; `sample_sets` takes them as sets without re-checking."""
        ...


# the entry mappings of a dense measure, plain first
_MAPPINGS = ("entries", "multiplicity_entries")


_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def _set_order(rows: np.ndarray, n_plain: int) -> np.ndarray:
    """The stable permutation of `_checked_rows` rows that puts rows below n_plain first, each
    part in (cardinality, cells) order.  Sorted cell tuples of one size have A < B exactly when
    the lowest cell of their symmetric difference is in A: when A is larger bit-reversed."""
    reversed_words = _REVERSED_BYTES[rows.view(np.uint8)].view(np.uint64).byteswap()
    # lexsort's last key is its first: the part, the size, then the words from cell 0 up
    return np.lexsort([*~reversed_words.T[::-1], row_sizes(rows), np.arange(len(rows)) >= n_plain])


@dataclass(frozen=True)
class _AtomTable:
    """Every atom of a dense measure once, in (cardinality, cells) order.

    Plain atoms come first, then multiplicity atoms.  Row i packs the cells of
    atom i as `_checked_rows` lays them out, so every set query is one masked
    sum over `mass`; `keys` decodes the rows on first read.
    """

    rows: np.ndarray
    mass: np.ndarray
    n_plain: int
    n_cells: int

    @classmethod
    def sorted(cls, rows: np.ndarray, mass: np.ndarray, n_plain: int,
               n_cells: int) -> tuple[_AtomTable, int | None]:
        """Nonzero-mass atoms in `_set_order`, one per set of a part, and the least position
        repeating an earlier row of its part (zero masses count; None if none)."""
        order = _set_order(rows, n_plain)
        rows, mass = rows[order], mass[order]
        # the sort is stable, so a repeat lands right after the earlier copies of its set
        same = (rows[1:] == rows[:-1]).all(axis=1)
        same[n_plain - 1 : n_plain] = False
        repeats = order[1:][same]
        if repeats.size:  # one atom per run of equal rows, its masses added in input order
            starts = np.flatnonzero(np.r_[True, ~same])
            mass = np.bincount(np.cumsum(np.r_[False, ~same]), mass)
            rows, n_plain = rows[starts], int(np.searchsorted(starts, n_plain))
        kept = np.flatnonzero(mass)
        table = cls(rows[kept], mass[kept], int(np.searchsorted(kept, n_plain)), n_cells)
        return table, int(repeats.min()) if repeats.size else None

    @classmethod
    def packed(cls, keys: list, mass: np.ndarray, n_plain: int, n_cells: int) -> _AtomTable:
        """The table of cell lists `keys` and their masses, the first n_plain of them plain.  A
        list whose cells are not strictly increasing integers in 0..n_cells-1, or that repeats
        an earlier list of its part (zero masses count), is named by mapping and position."""
        rows, i = _checked_rows(keys, n_cells)
        rule = f"are not strictly increasing integers in 0..{n_cells - 1}"
        if i is None:
            table, i = cls.sorted(rows, mass, n_plain, n_cells)
            rule = "repeat an earlier one"
        if i is not None:
            part = int(i >= n_plain)
            raise ValueError(f"{_MAPPINGS[part]}[{i - part * n_plain}]: cells {list(keys[i])} {rule}")
        return table

    @property
    def table(self) -> _AtomTable:  # as a measure's dense form: the table it reads in order
        return self

    @property
    def n_atoms(self) -> int:
        return len(self.mass)

    def take(self, picks: np.ndarray) -> _AtomTable:
        """The atoms at ascending positions `picks`, still in table order."""
        return _AtomTable(self.rows[picks], self.mass[picks],
                          int(np.searchsorted(picks, self.n_plain)), self.n_cells)

    @cached_property
    def keys(self) -> tuple[tuple[int, ...], ...]:
        """The cells of every atom, in table order."""
        return tuple(cells_of_rows(self.rows, self.n_cells))

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    @property
    def empty_mass(self) -> float:
        # the empty set sorts first when present
        return float(self.mass[0]) if self.n_plain and not self.rows[0].any() else 0.0

    @property
    def multiplicity_mass(self) -> float:
        return float(self.mass[self.n_plain :].sum())

    def singleton_mass(self) -> float:
        return self.cardinality_profile().get(1, 0.0)

    def cardinality_profile(self) -> dict[int, float]:
        # nondecreasing: plain atoms are in (cardinality, cells) order
        sizes = row_sizes(self.rows[: self.n_plain])
        starts = np.flatnonzero(np.diff(sizes, prepend=-1)).tolist()
        ends = [*starts[1:], len(sizes)]
        return {int(sizes[a]): float(self.mass[a:b].sum()) for a, b in zip(starts, ends)}

    def subset_mass(self, region: ElementarySet) -> float:
        return float(self.mass[inside(self.rows, region.bounds)].sum())

    def straddle_masses(self, boundaries: np.ndarray) -> np.ndarray:
        # a set straddles b when it meets cells [0, b) without lying inside
        # them; summed directly, since the subtraction route (total - left -
        # right + empty) leaves float residue whose square root dwarfs
        # exact-identity tolerances
        left, rows = [(0, b) for b in np.asarray(boundaries).tolist()], self.rows
        return np.array([self.mass[meeting(rows, r) & ~inside(rows, r)].sum() for r in left])

    def sample(self, k: int, seed: int) -> list[tuple[int, ...]]:
        """Inverse CDF over the atoms in table order; only the drawn rows are decoded."""
        cdf = np.cumsum(self.mass)
        if not cdf.size or cdf[-1] <= 0:
            raise ValueError("measure has no mass to sample")
        rng = worker_generator(seed, 0)
        picks = np.searchsorted(cdf, rng.uniform(0.0, cdf[-1], size=k), side="right")
        return cells_of_rows(self.rows[np.minimum(picks, cdf.size - 1)], self.n_cells)


class _WalshMasses:
    """A Walsh measure: mass[m] is the squared coefficient on the subset with bitmask m.

    It answers subset masses and counts its atoms; every other protocol read goes to `table`,
    built on first need in the order `_AtomTable.sorted` gives, so it keeps a table-built
    measure's bits."""

    def __init__(self, mass: np.ndarray, n_cells: int) -> None:
        self.mass, self.n_cells = mass, n_cells
        self.n_plain = self.n_atoms = int(np.count_nonzero(mass))

    def __getattr__(self, name: str):  # names not set above are the table's
        # but no dunder (pickle's __getstate__ on Python 3.10), and nothing on an instance
        # whose __init__ has not run (copy, pickle), so the table is never sought there
        if name.startswith("__") or "mass" not in vars(self):
            raise AttributeError(name)
        return getattr(self.table, name)

    @cached_property
    def table(self) -> _AtomTable:
        """The nonzero atoms in (cardinality, cells) order, as a fixed permutation and no
        sort: every mask in descending bit-reversed order (see `_AtomTable.sorted`), zero
        masses dropped, then stably partitioned by popcount (a counting sort on uint8)."""
        masks = np.zeros(1, dtype=np.int64)
        for _ in range(self.n_cells):  # the reversal over one more bit, still descending
            masks = np.concatenate([2 * masks + 1, 2 * masks])
        masks = masks[self.mass[masks] != 0]
        masks = masks[np.argsort(np.bitwise_count(masks), kind="stable")]
        return _AtomTable(masks.view(np.uint64)[:, None], self.mass[masks], len(masks),
                          self.n_cells)

    def subset_mass(self, region: ElementarySet) -> float:
        # the sets inside the region are the masks with every outside bit clear
        shape, outside = run_axes(region.bounds, self.n_cells)
        block = [slice(None)] * len(shape)
        for a in outside:
            block[a] = 0
        return float(self.mass.reshape(shape)[tuple(block)].sum())


class _EntryView(Mapping):
    """Atoms lo..hi-1 of a dense measure as a read-only mapping of cell tuples to masses,
    with no copy of them: its keys are the atom table's keys, so a lookup bisects them.

    Two views with one row width compare as their row and mass slices: a part of a table
    holds each set once, in (cardinality, cells) order, so equal mappings are equal slices.
    Any other operand compares by the `Mapping` rule."""

    def __init__(self, model: _AtomTable | _WalshMasses, lo: int, hi: int) -> None:
        self._model, self._lo, self._hi = model, lo, hi

    def __getitem__(self, key):  # a Walsh measure builds its table on the first lookup
        t, hi, by_size = self._model.table, self._hi, lambda k: (len(k), k)
        i = bisect_left(t.keys, by_size(key), self._lo, hi, key=by_size) if type(key) is tuple else hi
        if i < hi and t.keys[i] == key:
            return float(t.mass[i])
        raise KeyError(key)

    def __iter__(self):
        return iter(self._model.table.keys[self._lo : self._hi])

    def __len__(self) -> int:
        return self._hi - self._lo

    def items(self):  # one pass over the keys, not one bisection per key
        return dict(zip(self, self._model.table.mass[self._lo : self._hi].tolist())).items()

    def __eq__(self, other):
        if isinstance(other, _EntryView):
            a, b = self._model.table, other._model.table
            if a.rows.shape[1] == b.rows.shape[1]:
                mine, theirs = slice(self._lo, self._hi), slice(other._lo, other._hi)
                return (np.array_equal(a.rows[mine], b.rows[theirs])
                        and np.array_equal(a.mass[mine], b.mass[theirs]))
        return super().__eq__(other)


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """`model` answers every query; a dense measure's entries are views of its table."""

    grid: TimeGrid
    entries: Mapping[tuple[int, ...], float] | None
    multiplicity_entries: Mapping[tuple[int, ...], float] = field(default_factory=dict)
    residual: float = 0.0
    model: SpectralModel | None = None

    def __post_init__(self) -> None:
        if (self.entries is None) == (self.model is None):
            raise ValueError("exactly one of entries/model must be present")
        if self.entries is not None:
            keys = [*self.entries, *self.multiplicity_entries]
            mass = np.fromiter(chain(self.entries.values(), self.multiplicity_entries.values()),
                               dtype=np.float64, count=len(keys))
            self._hold(_AtomTable.packed(keys, mass, len(self.entries), self.grid.n_cells))

    @classmethod
    def _of_dense(cls, grid: TimeGrid, dense: _AtomTable | _WalshMasses, residual: float = 0.0):
        """The dense measure held by `dense`: nothing to pack."""
        mu = cls.__new__(cls)
        mu.__dict__.update(grid=grid, residual=residual)
        mu._hold(dense)
        return mu

    def _hold(self, dense: _AtomTable | _WalshMasses) -> None:
        self.__dict__.update(model=dense, entries=_EntryView(dense, 0, dense.n_plain),
                             multiplicity_entries=_EntryView(dense, dense.n_plain, dense.n_atoms))

    @property
    def _atoms(self) -> _AtomTable:
        """The model's atom table, which a Walsh measure builds on first read, or BackendError."""
        table = getattr(self.model, "table", None)
        if table is None:
            raise BackendError("this operation needs a dense measure; this one is model-backed")
        return table

    # -- totals ---------------------------------------------------------------
    @property
    def is_dense(self) -> bool:
        return self.entries is not None

    @property
    def multiplicity_mass(self) -> float:
        return self.model.multiplicity_mass

    @property
    def total_mass(self) -> float:
        return self.model.total_mass + self.residual

    @property
    def empty_atom(self) -> float:
        return self.model.empty_mass

    def mass(self, cells: Iterable[int]) -> float:
        """Mass of one set, multiplicity entries included."""
        key = SpectralSet(self.grid, cells).cells  # integer cells on the grid, as any set
        self._atoms  # refuses a model-backed measure, whose entries are None
        return float(self.entries.get(key, 0.0) + self.multiplicity_entries.get(key, 0.0))

    def _require_resolved(self, what: str) -> None:
        # checked first, so a residual-free measure never sums its atoms here
        if self.residual and self.residual > 1e-9 * max(self.total_mass, 1e-300):
            raise BackendError(f"cannot {what} a measure with unresolved truncation residual")


def _plain_by_mask(x: SpectralMeasure | ChaosCoefficients) -> np.ndarray:
    """The plain masses of a dense measure, or the coefficients of a Walsh expansion, on at
    most DENSE_CELL_CAP cells as one vector indexed by subset bitmask, 0 at every other mask."""
    if isinstance(x, ChaosCoefficients):
        rows, values = x.rows, x.coeffs
    elif isinstance(x.model, _WalshMasses):  # already that vector
        return x.model.mass
    else:
        t = x._atoms
        rows, values = t.rows[: t.n_plain], t.mass[: t.n_plain]
    out = np.zeros(1 << x.grid.n_cells)
    out[rows[:, 0].astype(np.intp)] = values
    return out


# ---------------------------------------------------------------------------
# construction


def spectral_measure_of(f: NoiseFunctional, tol: float | None = None) -> SpectralMeasure:
    """Spectral measure of f; model-backed for a family past the dense cap with no `tol`, else
    dense.  `tol` is `decompose`'s: a Walsh `tol` (table, family or Walsh expansion) drops every
    |c| <= tol and no residual records it, so it refuses a family past the cap, naming it; a
    program's only warns, and a Hermite expansion is kept as it is."""
    if isinstance(f.backend, FamilyRef) and f.grid.n_cells > DENSE_CELL_CAP and tol is None:
        from . import families

        return SpectralMeasure(f.grid, None, model=families.family_model(f.grid, f.backend))
    if isinstance(f.backend, (RademacherTable, FamilyRef)):
        # a Walsh index is its own support: coefficient m squared is the atom on mask m
        c = walsh_coefficients(f, tol)
        return SpectralMeasure._of_dense(f.grid, _WalshMasses(np.square(c, out=c), f.grid.n_cells))
    return measure_from_coefficients(decompose(f, tol))


def measure_from_coefficients(coeffs: ChaosCoefficients) -> SpectralMeasure:
    """Each squared coefficient is an atom on its index's support (a Walsh index is its own);
    a Hermite index of degree >= 2 on some cell is a multiplicity atom."""
    rows, mass, mult = coeffs.rows, coeffs.coeffs**2, coeffs.multiplicity
    if mult.any():  # a stable partition, plain indices first, each part in entry order
        order = np.argsort(mult, kind="stable")
        rows, mass = rows[order], mass[order]
    table = _AtomTable.sorted(rows, mass, len(mass) - int(mult.sum()), coeffs.grid.n_cells)[0]
    return SpectralMeasure._of_dense(coeffs.grid, table, coeffs.residual)


# ---------------------------------------------------------------------------
# queries


def mass_of_subsets_of(mu: SpectralMeasure, region: ElementarySet) -> float:
    """mu{C : C inside the region}; equals the squared norm of the projection.

    The truncation residual has no location, so a measure carrying one is
    refused, as in `restrict`.
    """
    require_same_grid(mu.grid, region.grid)
    mu._require_resolved("take subset masses of")
    return mu.model.subset_mass(region)


def straddle_mass(mu: SpectralMeasure, boundary: int) -> float:
    """mu{C : C has cells on both sides of the boundary}, plus the unlocated residual;
    `boundary` is an integer in 0..n_cells."""
    return float(mu.model.straddle_masses(np.array([_boundary(mu.grid, boundary)]))[0]) + mu.residual


def mass_meeting_interval(mu: SpectralMeasure, lo, hi) -> float:
    """mu{C : C touches the open time interval (lo, hi)}, multiplicity included."""
    mu._require_resolved("take interval masses of")
    touched = mu.grid.cells_meeting_open_interval(lo, hi)
    t = mu._atoms
    return float(t.mass[meeting(t.rows, (touched.start, touched.stop))].sum())


def restrict(mu: SpectralMeasure, region: ElementarySet) -> SpectralMeasure:
    """Measure of the projected functional: keep sets inside the region.

    The truncation residual has no location, so a measure carrying one is
    refused rather than restricted.
    """
    require_same_grid(mu.grid, region.grid)
    mu._require_resolved("restrict")
    t = mu._atoms
    kept = np.flatnonzero(inside(t.rows, region.bounds))
    return SpectralMeasure._of_dense(mu.grid, t.take(kept))


def product(left: SpectralMeasure, right: SpectralMeasure) -> SpectralMeasure:
    """Product measure on two adjacent windows of equal cell length, on their `joined_grid`.

    Sets split uniquely across the windows; masses multiply.  Defined for
    dense inputs without truncation residual.  One array pass: each side's
    cells packed once on the joined grid, every pair of rows ORed and of masses
    multiplied in one broadcast, then put in table order by `_AtomTable.sorted`.
    """
    left._require_resolved("multiply")
    right._require_resolved("multiply")
    if left.multiplicity_entries or right.multiplicity_entries:
        raise BackendError("product is defined for multiplicity-free measures")
    grid = joined_grid(left.grid, right.grid)  # refuses windows that do not join
    a, b, n = left._atoms, right._atoms, grid.n_cells
    rows_a = _checked_rows(list(a.keys), n)[0]
    rows_b = _checked_rows([tuple(c + left.grid.n_cells for c in k) for k in b.keys], n)[0]
    rows = (rows_a[:, None] | rows_b[None]).reshape(-1, rows_a.shape[1])
    mass = np.multiply.outer(a.mass, b.mass).ravel()
    return SpectralMeasure._of_dense(grid, _AtomTable.sorted(rows, mass, len(mass), n)[0])


def is_absolutely_continuous(mu_g: SpectralMeasure, mu_f: SpectralMeasure) -> bool:
    """support(mu_g) inside support(mu_f); needs dense representations."""
    require_same_grid(mu_g.grid, mu_f.grid)
    # g's rows add no row to f's: every set of g, plain or multiplicity, is a set of f
    f, g = mu_f._atoms.rows, mu_g._atoms.rows
    return len(np.unique(np.vstack([f, g]), axis=0)) == len(np.unique(f, axis=0))


def n_point_marginal(mu: SpectralMeasure, n: int) -> SpectralMeasure:
    """The part of the measure on sets of exactly n cells (multiplicity-free)."""
    if _integer(n, "marginal order") < 0:
        raise ValueError("marginal order must be nonnegative")
    mu._require_resolved("take marginals of")
    if not mu.is_dense:
        raise BackendError(
            f"model-backed measures expose cardinality totals only; "
            f"order {n} carries mass {cardinality_profile(mu).get(n, 0.0)}"
        )
    t = mu._atoms
    kept = np.flatnonzero(row_sizes(t.rows[: t.n_plain]) == n)
    return SpectralMeasure._of_dense(mu.grid, t.take(kept))


def singleton_mass(mu: SpectralMeasure) -> float:
    """Total mass on one-cell sets: the squared norm of the first chaos part."""
    return mu.model.singleton_mass()


def cardinality_profile(mu: SpectralMeasure) -> dict[int, float]:
    """Mass per set size; multiplicity mass is excluded and reported apart."""
    return dict(sorted(mu.model.cardinality_profile().items()))


# ---------------------------------------------------------------------------
# sampling


def sample_sets(source, k: int, seed: int) -> list[SpectralSet]:
    """Draw k spectral sets with probability proportional to their mass.

    `source` is a measure or a functional.  Dense measures use inverse CDF
    over the (cardinality, cells)-sorted atoms; model-backed measures draw
    through the family's exact sampler.
    """
    if _integer(k, "sample count") < 0:
        raise ValueError("sample count must be nonnegative")
    mu = source if isinstance(source, SpectralMeasure) else spectral_measure_of(source)
    mu._require_resolved("sample")
    # backend draws are canonical cell tuples (see SpectralModel.sample)
    return [SpectralSet._trusted(mu.grid, cells) for cells in mu.model.sample(k, seed)]
