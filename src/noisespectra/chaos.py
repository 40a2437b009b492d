"""Chaos coefficient containers and spectral-index helpers.

Two index conventions share one container:

* Walsh indices are sorted tuples of distinct cell numbers; the character is
  the product of the cell signs.
* Hermite indices are sorted tuples of (cell, channel, degree) triples with
  degree >= 1; the basis element is the product of orthonormal he_degree
  factors of the per-(cell, channel) normalized increments.

Both kinds store, in the order given, a float64 `coeffs` column and `rows`, each
index's support packed as `walsh._checked_rows` packs cells, so a selection is a
row query.  A Hermite expansion also keeps `terms`; on the first read of either,
one array pass over their sites makes its `rows` and `multiplicity` (a bool
column) together, and a selection takes every index column its parent has built.
`entries` (a dict) is made on first read too; the columns stay the stored form, so
both are read, never written.

Cardinality always counts distinct cells.  An index has multiplicity when any
single cell carries total degree >= 2 (across channels); a Walsh index never has.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Union

import numpy as np

from .grid import TimeGrid, _integers, require_same_grid
from .walsh import _checked_rows, _pack, cells_of_rows, row_sizes

WalshIndex = tuple[int, ...]
HermiteIndex = tuple[tuple[int, int, int], ...]
SpectralIndex = Union[WalshIndex, HermiteIndex]

WALSH = "walsh"
HERMITE = "hermite"


def walsh_index(cells: Iterable[int]) -> WalshIndex:
    out = tuple(sorted(map(int, _integers(cells, "Walsh index cells"))))
    if len(set(out)) != len(out):
        raise ValueError(f"repeated cell in Walsh index {out}")
    return out


def hermite_index(points: Iterable[tuple[int, int, int]]) -> HermiteIndex:
    points = [(c, ch, d) for c, ch, d in points]
    try:
        flat = map(int, _integers(chain.from_iterable(points), "cells, channels and degrees"))
    except ValueError as exc:
        raise ValueError(f"Hermite index {points}: {exc}") from None
    out = tuple(sorted(zip(flat, flat, flat)))
    if any(d < 1 for _, _, d in out):
        raise ValueError(f"Hermite degrees must be >= 1, got {out}")
    if len(set((c, ch) for c, ch, _ in out)) != len(out):
        raise ValueError(f"repeated (cell, channel) in Hermite index {out}")
    return out


def _hermite_on_grid(ix, n_cells: int, channels: int) -> bool:
    """Whether `ix` is a canonical Hermite index on n_cells cells and `channels` channels."""
    try:
        return hermite_index(ix) == ix and all(0 <= c < n_cells and 0 <= ch < channels
                                               for c, ch, _ in ix)
    except (TypeError, ValueError):
        return False


def shift_index(index: SpectralIndex, k: int, n_cells: int) -> SpectralIndex:
    """Translate every cell by k, wrapping around the n_cells cells."""
    if index and isinstance(index[0], tuple):
        return tuple(sorted(((c + k) % n_cells, ch, d) for c, ch, d in index))
    return tuple(sorted((c + k) % n_cells for c in index))


def _hermite_columns(terms, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Each Hermite index's support row (written by `walsh._pack`) and multiplicity flag,
    from one pass over the (cell, channel, degree) sites of all indices, laid flat."""
    sizes = np.fromiter(map(len, terms), np.intp, len(terms))
    sites = np.fromiter(chain.from_iterable(chain.from_iterable(terms)), np.int64,
                        3 * int(sizes.sum())).reshape(-1, 3)
    owner, n_words = np.repeat(np.arange(len(terms)), sizes), max(1, -(-n_cells // 64))
    # sites are sorted, so these keys rise and the channels of one cell sit next to each other
    rise = owner * (64 * n_words) + sites[:, 0]
    repeat = sites[:, 2] >= 2
    repeat[1:] |= rise[1:] == rise[:-1]
    multiplicity = np.zeros(len(terms), bool)
    multiplicity[owner[repeat]] = True
    return _pack(rise, len(terms), n_words), multiplicity


def _unrepeated(keys: list, values: list, field: str, listed: list, error=ValueError) -> dict:
    """dict(zip(keys, values)); a key equal to an earlier one is refused as entries[i],
    shown as listed[i]."""
    entries = dict(zip(keys, values))
    if len(entries) < len(keys):  # the dict's keys match the listed ones up to a repeat
        i = next((i for i, (k, d) in enumerate(zip(keys, entries)) if k != d), len(entries))
        raise error(f"entries[{i}]: {field} {listed[i]} repeat an earlier one")
    return entries


@dataclass(frozen=True)
class ChaosCoefficients:
    """Sparse chaos expansion: spectral index -> real coefficient."""

    grid: TimeGrid
    entries: Mapping[SpectralIndex, float]
    kind: str = WALSH
    channels: int = 1
    residual: float = 0.0  # squared norm beyond the degree cap (Hermite only)

    def __post_init__(self) -> None:
        """The one check of every index against the grid (and channels); names entries[i]."""
        if self.kind not in (WALSH, HERMITE):
            raise ValueError(f"unknown chaos kind {self.kind!r}")
        (d,) = map(int, _integers([self.channels], "chaos channels"))
        keys, n = list(self.entries), self.grid.n_cells
        c = ChaosCoefficients._trusted(self.grid, self.entries, self.kind, d, self.residual)
        if self.kind == WALSH:  # the rows are None when a key is refused
            i = None if c.rows is not None else _checked_rows(keys, n)[1]
            rule = f"are not strictly increasing integers in 0..{n - 1}"
        else:
            i = next((i for i, ix in enumerate(keys) if not _hermite_on_grid(ix, n, d)), None)
            rule = (f"are not sorted (cell, channel, degree) integer triples at distinct sites, "
                    f"cells in 0..{n - 1}, channels in 0..{d - 1}, degrees >= 1")
        if i is not None:
            shown = f"cells {list(keys[i])}" if self.kind == WALSH else f"terms {keys[i]}"
            raise ValueError(f"entries[{i}]: {shown} {rule}")
        object.__setattr__(self, "__dict__", vars(c))  # the columns stand for the entries

    def __getattr__(self, name: str):
        """`entries`, `multiplicity` and a Hermite expansion's `rows`, made on first read."""
        got = vars(self)
        if name in ("rows", "multiplicity") and "terms" in got:  # one pass makes both
            for key, column in zip(("rows", "multiplicity"),
                                   _hermite_columns(got["terms"], self.grid.n_cells)):
                got.setdefault(key, column)
            return got[name]
        if name == "multiplicity" and "rows" in got:  # a Walsh index has no multiplicity
            return got.setdefault(name, np.zeros(len(got["rows"]), bool))
        if name != "entries" or "coeffs" not in got:
            raise AttributeError(name)
        n = self.grid.n_cells
        keys = got["terms"].tolist() if "terms" in got else cells_of_rows(self.rows, n)
        return got.setdefault(name, dict(zip(keys, self.coeffs.tolist())))

    @classmethod
    def _trusted(cls, grid, entries, kind=WALSH, channels=1, residual=0.0) -> "ChaosCoefficients":
        """A fresh dict of indices valid on the grid, packed into columns and not re-checked."""
        keys = list(entries)
        index = ({"rows": _checked_rows(keys, grid.n_cells)[0]} if kind == WALSH
                 else {"terms": np.fromiter(keys, object, len(keys))})
        coeffs = np.fromiter(entries.values(), np.float64, len(keys))
        return cls._of_columns(grid, kind, channels, residual, coeffs=coeffs, **index)

    @classmethod
    def _of_columns(cls, grid, kind, channels, residual, **columns) -> "ChaosCoefficients":
        """The one trusted builder: `coeffs` over valid `rows` (Walsh) or `terms` (Hermite)."""
        c = cls.__new__(cls)  # frozen: the fields are set past __setattr__
        vars(c).update(columns, grid=grid, kind=kind, channels=channels, residual=residual)
        return c

    @property
    def norm_sq(self) -> float:
        """Squared norm of the represented (possibly truncated) element."""
        return float(sum(c * c for c in self.coeffs.tolist()))

    @property
    def expectation(self) -> float:
        return self.coefficient(())

    def coefficient(self, index: SpectralIndex) -> float:
        """The coefficient on `index`, read by `walsh_index`/`hermite_index` and the grid."""
        n = self.grid.n_cells
        if self.kind == WALSH:
            row = _checked_rows([ix := walsh_index(index)], n)[0]
            if row is not None:  # a row matches at most once
                return float(next(iter(self.coeffs[(self.rows == row).all(axis=1)]), 0.0))
        elif _hermite_on_grid(ix := hermite_index(index), n, self.channels):
            return float(self.entries.get(ix, 0.0))
        raise ValueError(f"index {ix} outside grid with {n} cells, channels 0..{self.channels - 1}")

    def filtered(self, keep) -> "ChaosCoefficients":
        """New container keeping the entries at the True places of the boolean array `keep`,
        in entry order, or those whose index satisfies the predicate `keep`."""
        if callable(keep):
            keep = np.fromiter(map(keep, self.entries), bool, len(self.coeffs))
        return self._with(self.coeffs[keep], self.residual, keep)

    def scaled(self, factor: float) -> "ChaosCoefficients":
        return self._with(self.coeffs * factor, self.residual * factor * factor)

    def _with(self, coeffs, residual, keep=slice(None)) -> "ChaosCoefficients":
        """This expansion's indices at `keep`, with the column `coeffs` and `residual`; every
        index column built so far is taken at `keep`, so none is built again."""
        got = vars(self)
        index = {k: got[k][keep] for k in ("rows", "terms", "multiplicity") if k in got}
        return self._of_columns(self.grid, self.kind, self.channels, residual, coeffs=coeffs,
                                **index)

    def sorted_items(self) -> list[tuple[SpectralIndex, float]]:
        """Entries sorted by (cardinality, index), the file order; only Hermite files use it."""
        return [kv for _, kv in sorted(zip(row_sizes(self.rows).tolist(), self.entries.items()))]


def add_coefficients(a: ChaosCoefficients, b: ChaosCoefficients) -> ChaosCoefficients:
    require_same_grid(a.grid, b.grid)
    if a.kind != b.kind:
        raise ValueError("cannot add chaos expansions of different kinds")
    merged = dict(a.entries)
    for ix, c in b.entries.items():
        merged[ix] = merged.get(ix, 0.0) + c
    return ChaosCoefficients._trusted(a.grid, merged, a.kind, max(a.channels, b.channels),
                                      a.residual + b.residual)
