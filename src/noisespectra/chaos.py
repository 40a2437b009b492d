"""Chaos coefficient containers and spectral-index helpers.

Two index conventions share one container:

* Walsh indices are sorted tuples of distinct cell numbers; the character is
  the product of the cell signs.
* Hermite indices are sorted tuples of (cell, channel, degree) triples with
  degree >= 1; the basis element is the product of orthonormal he_degree
  factors of the per-(cell, channel) normalized increments.

Cardinality always counts distinct cells.  An index has multiplicity when any
single cell carries total degree >= 2 (across channels).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Union

from .grid import TimeGrid, _integers

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


def index_support(index: SpectralIndex) -> tuple[int, ...]:
    """Distinct cells carried by the index, sorted."""
    if not index:
        return ()
    if isinstance(index[0], tuple):
        return tuple(sorted({c for c, _, _ in index}))
    return index  # Walsh indices are already sorted distinct cells


def index_cardinality(index: SpectralIndex) -> int:
    return len(index_support(index))


def index_has_multiplicity(index: SpectralIndex) -> bool:
    """True when some cell carries total Hermite degree >= 2 across channels."""
    if not index or not isinstance(index[0], tuple):
        return False
    per_cell: dict[int, int] = {}
    for c, _, d in index:
        per_cell[c] = per_cell.get(c, 0) + d
    return any(total >= 2 for total in per_cell.values())


def shift_index(index: SpectralIndex, k: int, n_cells: int, cyclic: bool) -> SpectralIndex:
    """Translate every cell by k, wrapping or raising per the cyclic flag."""

    def move(c: int) -> int:
        c2 = c + k
        if cyclic:
            return c2 % n_cells
        if not 0 <= c2 < n_cells:
            raise ValueError(f"shift by {k} pushes cell {c} out of the window")
        return c2

    if not index:
        return index
    if isinstance(index[0], tuple):
        return tuple(sorted((move(c), ch, d) for c, ch, d in index))
    return tuple(sorted(move(c) for c in index))


@dataclass(frozen=True)
class ChaosCoefficients:
    """Sparse chaos expansion: spectral index -> real coefficient."""

    grid: TimeGrid
    entries: Mapping[SpectralIndex, float]
    kind: str = WALSH
    channels: int = 1
    residual: float = 0.0  # squared norm beyond the degree cap (Hermite only)

    def __post_init__(self) -> None:
        if self.kind not in (WALSH, HERMITE):
            raise ValueError(f"unknown chaos kind {self.kind!r}")
        object.__setattr__(self, "entries", dict(self.entries))

    @property
    def norm_sq(self) -> float:
        """Squared norm of the represented (possibly truncated) element."""
        return float(sum(c * c for c in self.entries.values()))

    @property
    def expectation(self) -> float:
        return float(self.entries.get((), 0.0))

    def coefficient(self, index: SpectralIndex) -> float:
        return float(self.entries.get(index, 0.0))

    def filtered(self, keep) -> "ChaosCoefficients":
        """New container keeping the entries whose index satisfies `keep`."""
        kept = {ix: c for ix, c in self.entries.items() if keep(ix)}
        return ChaosCoefficients(self.grid, kept, self.kind, self.channels, self.residual)

    def scaled(self, factor: float) -> "ChaosCoefficients":
        return ChaosCoefficients(
            self.grid,
            {ix: factor * c for ix, c in self.entries.items()},
            self.kind,
            self.channels,
            self.residual * factor * factor,
        )

    def sorted_items(self) -> list[tuple[SpectralIndex, float]]:
        """Entries sorted by (cardinality, index), the diff-stable file order."""
        return sorted(self.entries.items(), key=lambda kv: (index_cardinality(kv[0]), kv[0]))


def add_coefficients(a: ChaosCoefficients, b: ChaosCoefficients) -> ChaosCoefficients:
    if a.grid != b.grid or a.kind != b.kind:
        raise ValueError("cannot add chaos expansions of different grids or kinds")
    merged = dict(a.entries)
    for ix, c in b.entries.items():
        merged[ix] = merged.get(ix, 0.0) + c
    return ChaosCoefficients(
        a.grid, merged, a.kind, max(a.channels, b.channels), a.residual + b.residual
    )
