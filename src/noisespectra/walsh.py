"""Fast Walsh-Hadamard transform over Rademacher cells.

Conventions, fixed package-wide:

* a value table of length 2**n lists f(omega) for every sign pattern omega;
  bit i of the table position is 0 when omega_i = +1 and 1 when omega_i = -1,
* a transform position m is read as the cell subset {i : bit i of m set},
* ``fwht`` is unnormalized, so fwht(fwht(x)) == 2**n * x and the character
  coefficients (expectations against characters) are fwht(values) / 2**n.
"""
from __future__ import annotations

import numpy as np

DENSE_CELL_CAP = 24


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a length 2**n array."""
    a = np.array(values, dtype=np.float64, copy=True)
    size = a.shape[0]
    if size == 0 or size & (size - 1):
        raise ValueError(f"table length {size} is not a power of two")
    h = 1
    while h < size:
        b = a.reshape(-1, 2, h)
        top = b[:, 0, :].copy()
        b[:, 0, :] += b[:, 1, :]
        np.subtract(top, b[:, 1, :], out=b[:, 1, :])
        a = b.reshape(size)
        h *= 2
    return a


def character_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficient array c with c[m] = E[f * chi_m], indexed by subset bitmask."""
    values = np.asarray(values, dtype=np.float64)
    return fwht(values) / values.shape[0]


def values_from_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`character_coefficients` (the transform is an involution)."""
    return fwht(coeffs)


def omega_index(omega) -> int:
    """Table position of a sign pattern; omega entries must be +1 or -1."""
    idx = 0
    for i, w in enumerate(omega):
        if w == -1:
            idx |= 1 << i
        elif w != 1:
            raise ValueError(f"omega entries must be +-1, got {w!r}")
    return idx


def sign_table(n_cells: int) -> np.ndarray:
    """Array of shape (2**n, n) listing omega_i = +-1 for every table position."""
    if n_cells > DENSE_CELL_CAP:
        raise ValueError(f"{n_cells} cells exceeds the dense cap of {DENSE_CELL_CAP}")
    positions = np.arange(1 << n_cells, dtype=np.uint32)
    bits = (positions[:, None] >> np.arange(n_cells, dtype=np.uint32)) & 1
    return 1 - 2 * bits.astype(np.int8)


def mask_of_cells(cells) -> int:
    m = 0
    for c in cells:
        m |= 1 << int(c)
    return m


def _subset_keys(cells: range) -> list[tuple[int, ...]]:
    """keys[m] == the cells of `cells` picked by the bits of m, built by doubling."""
    keys: list[tuple[int, ...]] = [()]
    for i in cells:
        keys += [k + (i,) for k in keys]
    return keys


def cells_of_masks(masks: list[int], n_cells: int) -> list[tuple[int, ...]]:
    """The cells of each mask, as rising tuples, joined from two half-width key tables.

    Costs O(2**(n/2) + len(masks)) tuples, so a sparse mask list stays cheap.
    """
    h = n_cells // 2
    lo, hi = _subset_keys(range(h)), _subset_keys(range(h, n_cells))
    low = (1 << h) - 1
    return [lo[m & low] + hi[m >> h] for m in masks]
