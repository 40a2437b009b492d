"""Fast Walsh-Hadamard transform over Rademacher cells.

Conventions, fixed package-wide:

* a value table of length 2**n lists f(omega) for every sign pattern omega;
  bit i of the table position is 0 when omega_i = +1 and 1 when omega_i = -1,
* a transform position m is read as the cell subset {i : bit i of m set},
* ``fwht`` is unnormalized, so fwht(fwht(x)) == 2**n * x and the character
  coefficients (expectations against characters) are fwht(values) / 2**n.
"""
from __future__ import annotations

from itertools import chain, islice

import numpy as np

DENSE_CELL_CAP = 24


# Each block of this many entries (cache-sized) runs its own stages against one scratch block,
# copied back when the last stage lands there. Past one block, the stages of the high bits run
# along axis 0 of the (rows, FWHT_BLOCK) view, one strip of FWHT_BLOCK // rows columns at a
# time: the strip is copied into the scratch, transformed between it and a second scratch
# strip, and copied back. Each call allocates its own scratch, one block or two.
FWHT_BLOCK = 1 << 16


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a 1-D real array of length 2**n.

    In Pease's constant geometry a stage writes the sums and differences of the pairs
    (a[2j], a[2j + 1]) to the two contiguous halves of another buffer, rotating the index bits
    right by one: stage k pairs the entries that differ in bit k, bit 0 first, and the last
    stage restores natural order. Each entry gets the in-place stage loop's butterflies, x + y
    and x - y, in its order, so every bit of its result. Blocks and strips: see `FWHT_BLOCK`."""
    a = np.asarray(values)
    if a.ndim != 1 or a.dtype.kind == "c":
        raise ValueError(f"fwht needs a 1-D real table, got shape {a.shape} and dtype {a.dtype}")
    a = np.array(a, dtype=np.float64)  # a fresh copy, transformed in place
    size = a.shape[0]
    if size == 0 or size & (size - 1):
        raise ValueError(f"table length {size} is not a power of two")
    block = min(size, FWHT_BLOCK)
    rows = size // block
    width, strip = max(1, block // rows), max(block, rows)  # a strip is one block up to 2**32
    scratch = np.empty(2 * strip if rows > 1 else block)
    for start in range(0, size, block):
        if (out := _stages(a[start : start + block], scratch[:block])).base is scratch:
            a[start : start + block] = out
    grid = a.reshape(rows, block)
    for col in range(0, block, width) if rows > 1 else ():
        cols = scratch[:strip].reshape(rows, width)
        cols[...] = grid[:, col : col + width]
        grid[:, col : col + width] = _stages(cols, scratch[strip:].reshape(rows, width))
    return a


def _stages(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every stage along axis 0 of `a`, between `a` and `b`; returns the one holding the result."""
    half, count = a.shape[0] // 2, a.shape[0].bit_length() - 1
    x, y = (a[0::2], a[1::2], b[:half], b[half:]), (b[0::2], b[1::2], a[:half], a[half:])
    for _ in range(count):
        np.add(x[0], x[1], out=x[2])
        np.subtract(x[0], x[1], out=x[3])
        x, y = y, x
    return b if count % 2 else a


def character_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficient array c with c[m] = E[f * chi_m], indexed by subset bitmask."""
    c = fwht(values)
    c /= c.shape[0]
    return c


def values_from_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`character_coefficients` (the transform is an involution)."""
    return fwht(coeffs)


def omega_index(omega) -> int:
    """Table position of a sign pattern of +-1 entries (`functionals.evaluate` checks them)."""
    return sum(1 << i for i, w in enumerate(omega) if w < 0)


def run_axes(bounds, n_cells: int) -> tuple[list[int], list[int]]:
    """A shape for a 2**n_cells array indexed by cell bitmask, one axis of size 2**k per
    maximal run of k cells inside or outside the sorted ranges of `bounds` (lo0, hi0, lo1, ...
    as `ElementarySet.bounds` holds them; (lo, hi) pairs are read flat), highest cells first
    (bit i is cell i, so C order puts them there); and the outside axes."""
    shape: list[int] = []
    outside: list[int] = []
    top = n_cells  # cells at or above `top` have their axes already
    ends = reversed((bounds if isinstance(bounds, np.ndarray) else np.ravel(bounds)).tolist())
    for hi, lo in zip(ends, ends):
        if hi < top:
            outside.append(len(shape))
            shape.append(1 << (top - hi))
        shape.append(1 << (hi - lo))
        top = lo
    if top:
        outside.append(len(shape))
        shape.append(1 << top)
    return shape, outside


def _subset_keys(cells: range) -> list[tuple[int, ...]]:
    """keys[m] == the cells of `cells` picked by the bits of m, built by doubling."""
    keys: list[tuple[int, ...]] = [()]
    for i in cells:
        keys += [k + (i,) for k in keys]
    return keys


def cells_of_rows(rows: np.ndarray, n_cells: int) -> list[tuple[int, ...]]:
    """The cells of each `_checked_rows` row as a rising tuple of ints: up to the cap from two
    half-width key tables (O(2**(n/2) + len(rows)) tuples), past it from unpacked bits."""
    if n_cells <= DENSE_CELL_CAP:
        h = n_cells // 2
        lo, hi = _subset_keys(range(h)), _subset_keys(range(h, n_cells))
        low = (1 << h) - 1
        return [lo[m & low] + hi[m >> h] for m in rows[:, 0].tolist()]
    out: list[tuple[int, ...]] = []
    step = max(1, (1 << 22) // (64 * rows.shape[1]))  # 4 MiB of bits per block
    for start in range(0, len(rows), step):
        bits = np.unpackbits(rows[start : start + step].view(np.uint8), axis=1, bitorder="little")
        cells = np.nonzero(bits)[1].tolist()  # row-major, so grouped by row and rising
        ends = np.cumsum(np.count_nonzero(bits, axis=1)).tolist()
        out += [tuple(cells[a:b]) for a, b in zip([0, *ends], ends)]
    return out


def _checked_rows(keys: list, n_cells: int) -> tuple[np.ndarray | None, int | None]:
    """Cell lists as rows of 64-bit words, cell c at bit c % 64 of word c // 64 (written by
    `_pack`); or None and the first list whose cells are not strictly increasing integers in
    0..n_cells-1.  Python and numpy integers count as integers; bools and floats do not."""
    sizes = np.fromiter(map(len, keys), dtype=np.intp, count=len(keys))
    count = int(sizes.sum())
    # plain ints, the usual case, are counted in blocks of types (a count is cheaper than a
    # set); any other type sends the cells through the one test of their type set
    types = map(type, chain.from_iterable(keys))
    try:
        ints = all(b.count(int) == len(b) for b in iter(lambda: list(islice(types, 1 << 16)), [])
                   ) or all(t is int or issubclass(t, np.integer)
                            for t in set(map(type, chain.from_iterable(keys))))
        cells = np.fromiter(chain.from_iterable(keys), np.int64, count) if ints else None
    except OverflowError:  # past 64 bits
        cells = None
    if cells is None:  # each non-integer or huge cell is marked off the grid
        cells = np.fromiter((c if (type(c) is int or isinstance(c, np.integer)) and 0 <= c < n_cells
                             else -1 for c in chain.from_iterable(keys)), np.int64, count)
    n_words = max(1, -(-n_cells // 64))
    # offset by list, the cells of good lists rise strictly from first to last
    rise = np.repeat(np.arange(len(keys)) * (64 * n_words), sizes)
    rise += cells
    bad = (cells < 0) | (cells >= n_cells)
    bad[1:] |= rise[1:] <= rise[:-1]
    if bad.any():
        return None, int(np.searchsorted(np.cumsum(sizes), bad.argmax(), "right"))
    del bad, cells  # freed before the writer's bits are made: a 2**18-atom file holds 2.4M cells
    return _pack(rise, len(keys), n_words), None


def _pack(rise: np.ndarray, n_rows: int, n_words: int) -> np.ndarray:
    """The one row writer: n_rows rows of n_words words from the nondecreasing int64 keys
    row * 64 * n_words + cell, cell c at bit c % 64 of word c // 64 (a key may repeat).
    `rise` is overwritten."""
    rows = np.zeros((n_rows, n_words), dtype=np.uint64)
    bits = (rise & 63).view(np.uint64)
    np.left_shift(np.uint64(1), bits, out=bits)
    rise >>= 6  # each cell's word in the flattened rows, filled in order: one OR per run
    starts = np.flatnonzero(np.concatenate(([True], rise[1:] != rise[:-1])))
    if len(rise):
        rows.reshape(-1)[rise[starts]] = np.bitwise_or.reduceat(bits, starts)
    return rows


def _words(bounds, n_words: int) -> np.ndarray:
    """The sorted ranges of `bounds`, read as `run_axes` reads them, as a `_checked_rows` row."""
    mask = sum((1 << hi) - (1 << lo) for lo, hi in np.reshape(bounds, (-1, 2)).tolist())
    return np.array([[(mask >> (64 * w)) & ((1 << 64) - 1) for w in range(n_words)]], np.uint64)


def inside(rows: np.ndarray, bounds) -> np.ndarray:
    """Which `_checked_rows` rows have every cell in the sorted ranges of `bounds`."""
    return ((rows & ~_words(bounds, rows.shape[1])) == 0).all(axis=1)


def meeting(rows: np.ndarray, bounds) -> np.ndarray:
    """Which `_checked_rows` rows have a cell in the sorted ranges of `bounds`."""
    return (rows & _words(bounds, rows.shape[1])).any(axis=1)


def row_sizes(rows: np.ndarray) -> np.ndarray:
    """The cell count of each `_checked_rows` row."""
    return np.bitwise_count(rows).sum(axis=1, dtype=np.intp)
