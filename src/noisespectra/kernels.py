"""Kernels on the discrete ordered simplex {i_1 < ... < i_r} of grid cells.

A kernel of order r assigns a weight to every strictly increasing r-tuple of
cells, one channel tag per slot.  Separable kernels store one factor vector
per slot, so the iterated sums run in O(r n) via exclusive prefix sums;
constant kernels are the all-ones separable case.
A slot whose vector is all ones is a unit slot: its multiply is skipped,
since x * 1.0 == x bit for bit.  Dense kernels are kept for orders 1 and 2
(vector / strictly upper matrix).

There is one simplex recursion, :func:`iterated_sum`.  The kernel owns its
algebra: :meth:`SimplexKernel.cross_norm`, the one quadratic form behind every
norm and inner product of iterated integrals, runs that recursion, and
:meth:`SimplexKernel.restricted` is the one restriction to a set of cells, so
no other module reads how the weights are stored.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb, prod
from typing import Iterator

import numpy as np

from .grid import _integers

MAX_ENUMERATED_TUPLES = 2_000_000
TILE_FLOATS = 1 << 15  # increments per row tile of the separable route (256 KiB)


def _shape(order, n_cells) -> tuple[int, int]:
    """A kernel's order and cell count as ints; a bool or a float is refused."""
    return tuple(map(int, _integers((order, n_cells), "kernel order and n_cells")))


@dataclass(frozen=True, eq=False)
class SimplexKernel:
    order: int
    n_cells: int
    factors: tuple[np.ndarray, ...] | None = None  # separable: one length-n vector per slot
    dense: np.ndarray | None = None  # order 1: (n,); order 2: strictly upper (n, n)
    channels: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        order, n_cells = _shape(self.order, self.n_cells)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "n_cells", n_cells)
        if self.order < 1:
            raise ValueError("kernel order must be >= 1")
        channels = tuple(map(int, _integers(self.channels, "kernel channels"))) or (0,) * self.order
        if len(channels) != self.order or min(channels) < 0:
            raise ValueError(f"one channel tag >= 0 per kernel slot required, got {channels}")
        object.__setattr__(self, "channels", channels)
        if (self.factors is None) == (self.dense is None):
            raise ValueError("exactly one of factors/dense must be given")
        if self.factors is not None:
            if len(self.factors) != self.order:
                raise ValueError("one factor vector per slot required")
            fac = tuple(np.asarray(v, dtype=np.float64) for v in self.factors)
            if any(v.shape != (self.n_cells,) for v in fac):
                raise ValueError("factor vectors must have length n_cells")
            object.__setattr__(self, "factors", fac)
        else:
            d = np.asarray(self.dense, dtype=np.float64)
            if self.order == 1 and d.shape != (self.n_cells,):
                raise ValueError("order-1 dense kernel must be a length-n vector")
            if self.order == 2:
                if d.shape != (self.n_cells, self.n_cells):
                    raise ValueError("order-2 dense kernel must be an (n, n) matrix")
                d = np.triu(d, k=1)  # only the strict upper triangle is the kernel
            if self.order > 2:
                raise ValueError("dense kernels support orders 1 and 2 only")
            object.__setattr__(self, "dense", d)

    # -- constructors --------------------------------------------------------
    @classmethod
    def constant(
        cls, order: int, n_cells: int, value: float = 1.0, channels: tuple[int, ...] = ()
    ) -> "SimplexKernel":
        order, n_cells = _shape(order, n_cells)  # before the vectors are sized by them
        vecs = [np.ones(n_cells) for _ in range(order)]
        vecs[0] = np.full(n_cells, float(value))
        return cls(order, n_cells, factors=tuple(vecs), channels=channels)

    @classmethod
    def separable(cls, vectors, channels: tuple[int, ...] = ()) -> "SimplexKernel":
        vecs = tuple(np.asarray(v, dtype=np.float64) for v in vectors)
        return cls(len(vecs), vecs[0].shape[0], factors=vecs, channels=channels)

    # -- values ---------------------------------------------------------------
    def value(self, cells: tuple[int, ...]) -> float:
        if len(cells) != self.order or any(a >= b for a, b in zip(cells, cells[1:])):
            raise ValueError(f"{cells} is not an increasing {self.order}-tuple")
        if self.factors is not None:
            return float(prod(v[c] for v, c in zip(self.factors, cells)))  # slot order, as np.prod
        return float(self.dense[tuple(cells)])

    def tuple_count(self) -> int:
        return comb(self.n_cells, self.order)

    def iterate_entries(self) -> Iterator[tuple[tuple[int, ...], float]]:
        """All (tuple, weight) pairs with nonzero weight; guarded by size."""
        if self.tuple_count() > MAX_ENUMERATED_TUPLES:
            raise ValueError(
                f"kernel has {self.tuple_count()} tuples, above the enumeration "
                f"cap of {MAX_ENUMERATED_TUPLES}"
            )
        for cells in combinations(range(self.n_cells), self.order):
            v = self.value(cells)
            if v != 0.0:
                yield cells, v

    def _dense_form(self) -> np.ndarray:
        """The weights as a vector (order 1) or a strictly upper matrix (order 2)."""
        if self.dense is not None:
            return self.dense
        if self.order == 1:
            return self.factors[0]
        return np.triu(np.outer(*self.factors), k=1)

    def restricted(self, inside: np.ndarray) -> "SimplexKernel":
        """The kernel with every tuple that leaves the cells marked 1 in `inside` zeroed."""
        m = np.asarray(inside, dtype=np.float64)
        if self.factors is not None:
            return replace(self, factors=tuple(v * m for v in self.factors))
        return replace(self, dense=self.dense * (m if self.order == 1 else np.outer(m, m)))

    # -- the exact quadratic form ----------------------------------------------
    def cross_norm(self, other: "SimplexKernel", cell_lengths: np.ndarray) -> float:
        """sum over the simplex of k_a * k_b * product of cell lengths.

        Zero when orders or any slot channel differ (independent factors).
        This is E[I(a) I(b)], and it is :func:`iterated_sum` of the product
        kernel over the one path whose increments are the cell lengths: two
        separable kernels multiply slot by slot, a pair with a dense side
        multiplies the dense forms (an order-1 form runs as a one-slot
        separable kernel).
        """
        if self.order != other.order or self.channels != other.channels:
            return 0.0
        if self.factors is not None and other.factors is not None:
            product = SimplexKernel.separable([a * b for a, b in zip(self.factors, other.factors)])
        elif self.order == 1:
            product = SimplexKernel.separable([self._dense_form() * other._dense_form()])
        else:
            product = SimplexKernel(2, self.n_cells, dense=self._dense_form() * other._dense_form())
        return float(iterated_sum(product, np.reshape(cell_lengths, (1, -1, 1)))[0])


def _is_unit(vec: np.ndarray) -> bool:
    """All ones: x * 1.0 == x bit for bit, so the slot's multiply can be skipped."""
    return bool((vec == 1.0).all())


def iterated_sum(kernel: SimplexKernel, increments: np.ndarray) -> np.ndarray:
    """Batched iterated sum over the ordered simplex.

    increments has shape (k, n, d); the result has shape (k,).  Slot s reads
    channel kernel.channels[s].  The separable route runs the rows in tiles of
    about `TILE_FLOATS` increments, each through one (prefix, product) scratch
    pair of the call, so a tile's partial sums stay in cache and a call
    allocates the same small scratch whatever its row count.  It skips unit
    slots and never writes the input; each row gets the bits of the plain
    slot-by-slot loop, whatever its block or tile.
    """
    inc = np.asarray(increments, dtype=np.float64)
    if inc.ndim == 2:
        inc = inc[:, :, None]
    k_paths, n, _ = inc.shape
    if n != kernel.n_cells:
        raise ValueError("increment table and kernel disagree on cell count")
    if kernel.factors is not None:
        units = [_is_unit(vec) for vec in kernel.factors]
        if kernel.order == 1 and units[0]:  # a plain row sum: no scratch to tile
            return inc[:, :, kernel.channels[0]].sum(axis=1)
        tile = max(1, TILE_FLOATS // max(n, 1))
        out = np.empty(k_paths)
        scratch = np.empty((2, min(tile, k_paths), n))  # exclusive prefix sums, products
        scratch[0, :, :1] = 0.0  # no cell comes before the first
        for lo in range(0, k_paths, tile):
            rows = inc[lo : lo + tile]
            acc, prod = scratch[:, : len(rows)]
            x = rows[:, :, kernel.channels[0]]
            term = x if units[0] else np.multiply(x, kernel.factors[0], out=prod)
            for vec, ch, unit in zip(kernel.factors[1:], kernel.channels[1:], units[1:]):
                np.cumsum(term[:, :-1], axis=1, out=acc[:, 1:])
                x = rows[:, :, ch]
                if unit:
                    term = np.multiply(x, acc, out=prod)
                else:  # (x * vec) * acc, the same two roundings in the same order
                    term = np.multiply(x, vec, out=prod)
                    term *= acc
            term.sum(axis=1, out=out[lo : lo + len(rows)])
        return out
    if kernel.order == 1:  # einsum, not BLAS gemv: a row's bits must not depend on its block
        return np.einsum("ki,i->k", inc[:, :, kernel.channels[0]], kernel.dense)
    x = inc[:, :, kernel.channels[0]]
    y = inc[:, :, kernel.channels[1]]
    return np.einsum("ki,ij,kj->k", x, kernel.dense, y)
