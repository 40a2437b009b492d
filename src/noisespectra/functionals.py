"""Noise functionals over a time grid, in four interchangeable backends.

* RademacherTable: a value for every sign pattern of the cells (2**n floats).
* ChaosCoefficients: sparse Walsh or Hermite expansion, used directly.
* BrownianProgram: sum of multiple-Ito-integral terms and products of
  per-cell pointwise maps of Gaussian increments, with a Hermite degree cap.
* FamilyRef: a named tree family at a resolution.  Below the dense cap it is a
  value table to every table route, through :func:`evaluate_table`; above it,
  it is queried through its spectral model.

Value-domain operations (evaluate, inner products, tensor products) live
here; transform-domain operations live in :mod:`noisespectra.transform`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Union

import numpy as np

from ._mc import moments, stream_moments
from .chaos import (
    HERMITE,
    WALSH,
    ChaosCoefficients,
    _unrepeated,
    shift_index,
    walsh_index,
)
from .grid import GridMismatchError, TimeGrid, _integers, left_of, require_same_grid, right_of
from .hermite import hermite_values, pair_mean, project_scalar_map
from .kernels import SimplexKernel, iterated_sum
from .walsh import DENSE_CELL_CAP, inside, omega_index, values_from_coefficients


class BackendError(ValueError):
    """Operation not available for this backend combination."""


class MCEstimate(NamedTuple):
    value: float
    stderr: float
    samples: int


# ---------------------------------------------------------------------------
# pointwise map registry for Brownian programs


def _poly(params):
    coeffs = np.asarray(params, dtype=np.float64)

    def fn(x):
        return np.polynomial.polynomial.polyval(x, coeffs)

    return fn


MAP_REGISTRY = {
    "poly": _poly,
    "sin": lambda params: (lambda x: np.sin((params[0] if params else 1.0) * x)),
    "cos": lambda params: (lambda x: np.cos((params[0] if params else 1.0) * x)),
    "exp": lambda params: (lambda x: np.exp((params[0] if params else 1.0) * x)),
    "abs": lambda params: np.abs,
    "sign": lambda params: np.sign,
    "tanh": lambda params: (lambda x: np.tanh((params[0] if params else 1.0) * x)),
}


@dataclass(frozen=True)
class MapFactor:
    """One pointwise map of the increment at a (cell, channel)."""

    cell: int
    channel: int
    fn: str
    params: tuple = ()

    def __post_init__(self) -> None:
        if self.fn not in MAP_REGISTRY:
            raise ValueError(f"unknown map {self.fn!r}; known: {sorted(MAP_REGISTRY)}")
        cell, channel = map(int, _integers((self.cell, self.channel), "map cell and channel"))
        vars(self).update(cell=cell, channel=channel, params=tuple(map(float, self.params)))

    def callable(self):
        return MAP_REGISTRY[self.fn](self.params)


@dataclass(frozen=True, eq=False)
class MapTerm:
    """weight * product of maps at distinct (cell, channel) slots."""

    weight: float
    factors: tuple[MapFactor, ...]

    def __post_init__(self) -> None:
        keys = [(f.cell, f.channel) for f in self.factors]
        if len(set(keys)) != len(keys):
            raise ValueError("map factors must sit at distinct (cell, channel) slots")
        object.__setattr__(
            self, "factors", tuple(sorted(self.factors, key=lambda f: (f.cell, f.channel)))
        )


@dataclass(frozen=True, eq=False)
class ItoTerm:
    """weight * iterated sum of a simplex kernel against increments."""

    weight: float
    kernel: SimplexKernel


ProgramTerm = Union[MapTerm, ItoTerm]


@dataclass(frozen=True, eq=False)
class BrownianProgram:
    terms: tuple[ProgramTerm, ...]
    degree_cap: int = 4
    channels: int = 1

    def __post_init__(self) -> None:
        cap, channels = map(int, _integers((self.degree_cap, self.channels),
                                           "program degree cap and channels"))
        object.__setattr__(self, "degree_cap", cap)
        object.__setattr__(self, "channels", channels)
        if self.degree_cap < 1:
            raise ValueError("degree cap must be >= 1")


@dataclass(frozen=True)
class FamilyRef:
    """A named tree family at a fixed resolution; `families` holds its shape."""

    name: str
    level: int


@dataclass(frozen=True, eq=False)
class RademacherTable:
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


Backend = Union[RademacherTable, ChaosCoefficients, BrownianProgram, FamilyRef]


def _require_table_cap(n_cells: int, named: str = "") -> None:
    if n_cells > DENSE_CELL_CAP:
        raise BackendError(f"{named}value tables are capped at {DENSE_CELL_CAP} cells, got {n_cells}")


@dataclass(frozen=True, eq=False)
class NoiseFunctional:
    grid: TimeGrid
    backend: Backend

    def __post_init__(self) -> None:
        n = self.grid.n_cells
        if isinstance(self.backend, RademacherTable):
            _require_table_cap(n)
            if self.backend.values.shape != (1 << n,):
                raise ValueError(
                    f"table length {self.backend.values.shape} does not match 2**{n}"
                )
        if isinstance(self.backend, ChaosCoefficients):
            require_same_grid(self.backend.grid, self.grid)
        if isinstance(self.backend, BrownianProgram):
            _check_sites(self.backend, n)

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_table(cls, grid: TimeGrid, values) -> "NoiseFunctional":
        return cls(grid, RademacherTable(np.asarray(values)))

    @classmethod
    def _of_fresh_table(cls, grid: TimeGrid, values: np.ndarray) -> "NoiseFunctional":
        """Trusted `from_table` for a new float64 array of shape (2**n_cells,)
        that no one else holds: it is frozen in place, not copied or re-checked."""
        values.setflags(write=False)
        table = RademacherTable.__new__(RademacherTable)
        object.__setattr__(table, "values", values)
        f = cls.__new__(cls)
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "backend", table)
        return f

    @classmethod
    def from_chaos(cls, coefficients: ChaosCoefficients) -> "NoiseFunctional":
        return cls(coefficients.grid, coefficients)

    @classmethod
    def from_walsh_entries(cls, grid: TimeGrid, entries: dict) -> "NoiseFunctional":
        # two keys that name one set are refused as a file's repeated record is
        fixed = _unrepeated([walsh_index(ix) for ix in entries], list(map(float, entries.values())),
                            "cells", list(map(list, entries)))
        return cls(grid, ChaosCoefficients(grid, fixed, WALSH))

    @classmethod
    def from_program(
        cls, grid: TimeGrid, terms: Iterable[ProgramTerm], degree_cap: int = 4, channels: int = 1
    ) -> "NoiseFunctional":
        return cls(grid, BrownianProgram(tuple(terms), degree_cap, channels))

    @classmethod
    def from_family(cls, name: str, level: int, **params) -> "NoiseFunctional":
        from . import families

        return families.make_functional(name, level, **params)

    # -- conveniences ----------------------------------------------------------
    @property
    def kind(self) -> str:
        b = self.backend
        if isinstance(b, RademacherTable):
            return "table"
        if isinstance(b, ChaosCoefficients):
            return "chaos"
        return "brownian" if isinstance(b, BrownianProgram) else "family"

    def evaluate(self, omega) -> float:
        return evaluate(self, omega)

    @property
    def norm_sq(self) -> float:
        return norm_sq(self)


def _check_sites(p: BrownianProgram, n_cells: int) -> None:
    """Kernels span the grid; kernel channels and map sites are on it; names terms[i]."""
    for i, term in enumerate(p.terms):
        if isinstance(term, ItoTerm):
            if term.kernel.n_cells != n_cells:
                raise ValueError(f"terms[{i}]: kernel on {term.kernel.n_cells} cells, "
                                 f"grid of {n_cells}")
            sites = [(0, ch) for ch in term.kernel.channels]
        else:
            sites = [(fa.cell, fa.channel) for fa in term.factors]
        for cell, channel in sites:
            if not (0 <= cell < n_cells and 0 <= channel < p.channels):
                raise ValueError(f"terms[{i}]: cell {cell!r} and channel {channel!r} must be "
                                 f"integers in 0..{n_cells - 1} and 0..{p.channels - 1}")


def cell_lengths(grid: TimeGrid) -> np.ndarray:
    return np.full(grid.n_cells, float(grid.cell_length))


# ---------------------------------------------------------------------------
# evaluation


def evaluate(f: NoiseFunctional, omega) -> float:
    """Value at one sample point, checked here alone: a Rademacher backend (table, family,
    Walsh expansion) takes one +-1 sign per cell, shape (n,); a Gaussian one (program,
    Hermite expansion) one increment per cell and channel, shape (n, d) for d = `channels`,
    or (n,) when d is 1."""
    b, n = f.backend, f.grid.n_cells
    om = np.asarray(omega, dtype=np.float64)
    if _rademacher(b):
        if om.shape != (n,) or not np.all(np.abs(om) == 1.0):
            raise ValueError("omega must be a +-1 vector, one sign per cell")
        if isinstance(b, RademacherTable):
            return float(b.values[omega_index(om)])
        if isinstance(b, FamilyRef):
            from . import families

            return float(families._evaluate_rows(f.grid, b, om[None, :])[0])
        # a sign times the root cell length is an increment whose he_1 is that sign
        om = om * math.sqrt(float(f.grid.cell_length))
    elif om.shape != (n, b.channels) and not (b.channels == 1 and om.shape == (n,)):
        raise ValueError(f"omega must hold {n} increments on each of {b.channels} "
                         f"channel(s), shape ({n}, {b.channels}), got {om.shape}")
    return float(_values_on_increments(f, om.reshape(1, n, -1))[0])


def evaluate_table(f: NoiseFunctional) -> np.ndarray:
    """Full value table; the one place a Walsh expansion or a family becomes values.
    Past DENSE_CELL_CAP cells `_require_table_cap` refuses it, as it refuses a table."""
    b = f.backend
    if isinstance(b, RademacherTable):
        return b.values
    if not _rademacher(b):
        kind = "Hermite expansions" if isinstance(b, ChaosCoefficients) else "Brownian programs"
        raise BackendError(f"{kind} have no Rademacher value table")
    n = f.grid.n_cells
    named = f"family {b.name} at level {b.level}: " if isinstance(b, FamilyRef) else ""
    _require_table_cap(n, named)
    if isinstance(b, FamilyRef):
        from . import families

        return families.family_values(f.grid, b)
    # each coefficient lands at its index's mask, a one-word row up to the cap
    dense = np.zeros(1 << n)
    dense[b.rows[:, 0].astype(np.intp)] = b.coeffs
    return values_from_coefficients(dense)


# ---------------------------------------------------------------------------
# moments


def expectation(f: NoiseFunctional) -> float:
    b = f.backend
    if isinstance(b, RademacherTable):
        return float(np.mean(b.values))
    if isinstance(b, ChaosCoefficients):
        return b.expectation
    if isinstance(b, BrownianProgram):
        return program_mean(f.grid, b)
    from . import families

    return families.family_mean(f.grid, b)


def norm_sq(f: NoiseFunctional) -> float:
    """<f, f>; a tree family takes values in {-1, +1}, so its norm is 1 with no table."""
    if isinstance(f.backend, FamilyRef):
        from . import families

        families.family_model(f.grid, f.backend)  # refuses a family that is not a tree
        return 1.0
    return inner_product(f, f)


def _rademacher(b: Backend) -> bool:
    """A table, a family or a Walsh expansion: a function of the cells' signs."""
    return isinstance(b, (RademacherTable, FamilyRef)) or (
        isinstance(b, ChaosCoefficients) and b.kind == WALSH)


def inner_product(f: NoiseFunctional, g: NoiseFunctional) -> float:
    """Exact inner product; raises BackendError when no exact route exists.

    Two expansions of one kind take the sparse dot, two sign functions the
    table mean; a program meets a Hermite expansion through its own expansion."""
    require_same_grid(f.grid, g.grid)
    fb, gb = f.backend, g.backend
    if isinstance(fb, ChaosCoefficients) and isinstance(gb, ChaosCoefficients) and (
            fb.kind == gb.kind):
        return _sparse_dot(fb, gb)
    if _rademacher(fb) and _rademacher(gb):
        prod = evaluate_table(f) * evaluate_table(g)
        return float(np.add.reduce(prod) / prod.shape[0])
    if _rademacher(fb) or _rademacher(gb):
        raise BackendError("cannot pair a Rademacher backend (table, family, Walsh "
                           "expansion) with a Gaussian one (program, Hermite expansion)")
    if isinstance(fb, BrownianProgram) and isinstance(gb, BrownianProgram):
        return program_inner(f.grid, fb, gb)
    p, c = (fb, gb) if isinstance(fb, BrownianProgram) else (gb, fb)
    return _sparse_dot(hermite_decompose(f.grid, p, max(p.degree_cap, _max_degree(c))), c)


def _sparse_dot(a: ChaosCoefficients, b: ChaosCoefficients) -> float:
    """Iterates the smaller side, on a tie the one whose keys sort first, so that the
    terms add in an order that does not depend on which argument came first."""
    small, large = sorted((a.entries, b.entries), key=lambda e: (len(e), tuple(e)))
    return float(sum(c * large.get(ix, 0.0) for ix, c in small.items()))


def _max_degree(c: ChaosCoefficients) -> int:
    """The highest degree in the Hermite `terms`; 1 for a Walsh expansion, which has none."""
    return max((d for ix in getattr(c, "terms", ()) for _, _, d in ix), default=1)


def inner_product_mc(
    f: NoiseFunctional,
    g: NoiseFunctional,
    samples: int,
    seed: int,
    workers: int = 1,
) -> MCEstimate:
    """Monte Carlo inner product over Gaussian increments, with standard error.

    Bit-reproducible for a fixed (seed, workers) pair: each worker owns a
    Philox substream and a fixed contiguous chunk of the sample budget, and
    runs on its own thread.  The standard error comes from merged per-chunk
    (count, mean, M2), so a large mean does not cancel it away.
    """
    require_same_grid(f.grid, g.grid)
    if _rademacher(f.backend) or _rademacher(g.backend):
        raise BackendError("MC inner products pair Brownian programs or Hermite expansions")

    def on_chunk(blocks, _rows):
        parts = []
        for inc in blocks:
            v = _values_on_increments(f, inc)
            parts.append(v * v if g is f else v * _values_on_increments(g, inc))
        return moments(np.concatenate(parts))

    d = max(getattr(f.backend, "channels", 1), getattr(g.backend, "channels", 1))
    scale = math.sqrt(float(f.grid.cell_length))
    total, m2 = stream_moments(samples, seed, workers, f.grid.n_cells, d, scale, on_chunk)
    return MCEstimate(float(total) / samples, math.sqrt(m2 / samples / samples), samples)


def _values_on_increments(f: NoiseFunctional, inc: np.ndarray) -> np.ndarray:
    if isinstance(f.backend, BrownianProgram):
        return program_values(f.backend, inc)
    b = f.backend
    if not isinstance(b, ChaosCoefficients):
        raise BackendError(
            "increment evaluation needs a Brownian program or a chaos expansion"
        )
    scale = math.sqrt(float(f.grid.cell_length))
    max_deg = _max_degree(b)
    out = np.zeros(inc.shape[0])
    basis_cache: dict[tuple[int, int], np.ndarray] = {}
    for ix, c in b.entries.items():
        if b.kind == WALSH:
            # distinct-cell monomials in the z's mirror the character algebra
            ix = tuple((cell, 0, 1) for cell in ix)
        prod = np.full(inc.shape[0], c)
        for cell, ch, dgr in ix:
            key = (cell, ch)
            if key not in basis_cache:
                basis_cache[key] = hermite_values(inc[:, cell, ch] / scale, max_deg)  # z, one column
            prod = prod * basis_cache[key][dgr]
        out += prod
    return out


# ---------------------------------------------------------------------------
# Brownian program internals


def program_values(p: BrownianProgram, inc: np.ndarray) -> np.ndarray:
    """Evaluate on a batch of increment tables of shape (k, n, d)."""
    if inc.ndim == 2:
        inc = inc[:, :, None]
    out = np.zeros(inc.shape[0])
    for term in p.terms:
        if isinstance(term, ItoTerm):
            out += term.weight * iterated_sum(term.kernel, inc)
        else:
            vals = np.full(inc.shape[0], term.weight)
            for fac in term.factors:
                vals = vals * fac.callable()(inc[:, fac.cell, fac.channel])
            out += vals
    return out


def _factor_moments(fac: MapFactor, scale: float) -> tuple[float, float]:
    """(E[m], E[increment * m]) for one map factor."""
    coeffs, _ = project_scalar_map(fac.callable(), scale, 1)
    return float(coeffs[0]), scale * float(coeffs[1])


def program_mean(grid: TimeGrid, p: BrownianProgram) -> float:
    scale = math.sqrt(float(grid.cell_length))
    total = 0.0
    for term in p.terms:
        if isinstance(term, ItoTerm):
            continue  # iterated sums of centered increments have mean zero
        prod = term.weight
        for fac in term.factors:
            prod *= _factor_moments(fac, scale)[0]
        total += prod
    return total


def _term_inner(grid: TimeGrid, a: ProgramTerm, b: ProgramTerm) -> float:
    scale = math.sqrt(float(grid.cell_length))
    h = cell_lengths(grid)
    if isinstance(a, ItoTerm) and isinstance(b, ItoTerm):
        return a.weight * b.weight * a.kernel.cross_norm(b.kernel, h)
    if isinstance(a, MapTerm) and isinstance(b, MapTerm):
        slots_a = {(f.cell, f.channel): f for f in a.factors}
        slots_b = {(f.cell, f.channel): f for f in b.factors}
        prod = a.weight * b.weight
        for key in set(slots_a) | set(slots_b):
            if key in slots_a and key in slots_b:
                prod *= pair_mean(
                    slots_a[key].callable(), slots_b[key].callable(), scale
                )
            elif key in slots_a:
                prod *= _factor_moments(slots_a[key], scale)[0]
            else:
                prod *= _factor_moments(slots_b[key], scale)[0]
        return prod
    ito, mp = (a, b) if isinstance(a, ItoTerm) else (b, a)
    return _ito_map_inner(grid, ito, mp, scale)


def _ito_map_inner(grid: TimeGrid, ito: ItoTerm, mp: MapTerm, scale: float) -> float:
    """E[I_r(k) * prod maps]: only tuples inside the map's slots survive."""
    kern = ito.kernel
    by_cell = {(f.cell, f.channel): f for f in mp.factors}
    means = {key: _factor_moments(f, scale) for key, f in by_cell.items()}
    cells = sorted({f.cell for f in mp.factors})
    total = 0.0
    for tup in combinations(cells, kern.order):
        keys = [(c, kern.channels[s]) for s, c in enumerate(tup)]
        if any(k not in by_cell for k in keys):
            continue
        prod = kern.value(tup)
        if prod == 0.0:
            continue
        for key in keys:
            prod *= means[key][1]
        for key in by_cell:
            if key not in keys:
                prod *= means[key][0]
        total += prod
    return ito.weight * mp.weight * total


def program_inner(grid: TimeGrid, p: BrownianProgram, q: BrownianProgram) -> float:
    return float(
        sum(_term_inner(grid, a, b) for a in p.terms for b in q.terms)
    )


def hermite_decompose(
    grid: TimeGrid, p: BrownianProgram, degree_cap: int | None = None, tol: float | None = None
) -> ChaosCoefficients:
    """Exact Hermite coefficients up to the degree cap, residual in `residual`."""
    cap = degree_cap if degree_cap is not None else p.degree_cap
    scale = math.sqrt(float(grid.cell_length))
    entries: dict = {}

    def add(ix, c):
        if c != 0.0:
            entries[ix] = entries.get(ix, 0.0) + c

    for term in p.terms:
        if isinstance(term, ItoTerm):
            root_h = scale**term.kernel.order
            channels, ones = term.kernel.channels, (1,) * term.kernel.order
            for cells, v in term.kernel.iterate_entries():  # rising cells: canonical keys
                add(tuple(zip(cells, channels, ones)), term.weight * v * root_h)
        else:
            coeff_lists = []
            for fac in term.factors:
                coeffs, _ = project_scalar_map(fac.callable(), scale, cap)
                coeff_lists.append((fac, coeffs))
            _tensor_accumulate(add, term.weight, coeff_lists)

    exact = program_inner(grid, p, p)
    captured = float(sum(c * c for c in entries.values()))
    if captured - exact > 1e-9 * max(exact, 1.0):
        raise BackendError(f"degree cap {cap} outruns the quadrature rule: the coefficients "
                           f"capture {captured!r}, above the exact squared norm {exact!r}")
    residual = max(exact - captured, 0.0)  # clips rounding-level overshoot only
    out = ChaosCoefficients._trusted(grid, entries, HERMITE, p.channels, residual)
    if tol is not None and residual > tol:
        import warnings

        warnings.warn(
            f"degree cap {cap} leaves residual squared norm {residual:.3e} > {tol:.1e}",
            stacklevel=2,
        )
    return out


def _tensor_accumulate(add, weight: float, coeff_lists) -> None:
    """Expand a product of per-slot Hermite series into flat entries.  The factors sit
    at sorted distinct (cell, channel) slots, so each key is built canonical."""

    def rec(i: int, ix: tuple, c: float) -> None:
        if c == 0.0:
            return
        if i == len(coeff_lists):
            add(ix, c)
            return
        fac, coeffs = coeff_lists[i]
        for d, cd in enumerate(coeffs):
            rec(i + 1, ix + ((fac.cell, fac.channel, d),) if d else ix, c * cd)

    rec(0, (), weight)


# ---------------------------------------------------------------------------
# shift and products


def shift(f: NoiseFunctional, k: int, mode: str = "cyclic") -> NoiseFunctional:
    """Translate by k cells; cyclic wraps, truncate drops mass leaving the window.

    On a table, truncation first projects onto the cells that stay (it
    averages out the top k cells for k > 0, the bottom -k for k < 0), so the
    wrapped cells carry no dependence, then rotates as the cyclic mode does.
    """
    if mode not in ("cyclic", "truncate"):
        raise ValueError("shift mode must be 'cyclic' or 'truncate'")
    (k,) = map(int, _integers([k], "shift steps"))  # the moved indices are trusted
    b = f.backend
    n = f.grid.n_cells
    if isinstance(b, RademacherTable):
        v = b.values
        if mode == "truncate" and k:
            from .transform import conditional_expectation

            stay = left_of(f.grid, max(n - k, 0)) if k > 0 else right_of(f.grid, min(-k, n))
            v = conditional_expectation(f, stay).backend.values
        positions = np.arange(1 << n, dtype=np.uint64)
        kk = k % n
        mask = np.uint64((1 << n) - 1)
        rotated = ((positions << np.uint64(kk)) | (positions >> np.uint64(n - kk))) & mask
        out = np.empty_like(v)
        out[rotated] = v  # pattern at cells moves forward by k
        return NoiseFunctional._of_fresh_table(f.grid, out)
    if isinstance(b, ChaosCoefficients):
        if mode == "truncate":  # keeps the indices on the cells that stay, -k..n-1-k
            b = b.filtered(inside(b.rows, np.clip([-k, n - k], 0, n)))
        moved = {shift_index(ix, k, n): c for ix, c in b.entries.items()}
        return NoiseFunctional.from_chaos(
            ChaosCoefficients._trusted(f.grid, moved, b.kind, b.channels, b.residual))
    raise BackendError(f"shift is defined for table and chaos backends, not {f.kind}")


def multiply(f: NoiseFunctional, g: NoiseFunctional) -> NoiseFunctional:
    """Pointwise product on a shared grid (value-table route)."""
    require_same_grid(f.grid, g.grid)
    return NoiseFunctional._of_fresh_table(f.grid, evaluate_table(f) * evaluate_table(g))


def joined_grid(left: TimeGrid, right: TimeGrid) -> TimeGrid:
    """Grid covering two adjacent equal-cell-length windows."""
    if left.interval_end != right.interval_start:
        raise GridMismatchError("windows are not adjacent")
    if left.cell_length != right.cell_length:
        raise GridMismatchError("adjacent windows must share the cell length")
    if left.base == right.base == 2 and left.level == right.level:
        return TimeGrid(left.interval_start, right.interval_end, left.level + 1, 2)
    n = left.n_cells + right.n_cells
    return TimeGrid(left.interval_start, right.interval_end, 1, n)


def tensor_product(f: NoiseFunctional, g: NoiseFunctional) -> NoiseFunctional:
    """Product functional on the joined window; f on the left, g on the right."""
    grid = joined_grid(f.grid, g.grid)
    _require_table_cap(grid.n_cells)
    left = evaluate_table(f)
    right = evaluate_table(g)
    return NoiseFunctional._of_fresh_table(grid, np.outer(right, left).ravel())


def random_functional(grid: TimeGrid, rng: np.random.Generator) -> NoiseFunctional:
    """Standard normal value table; the generic dense test subject."""
    _require_table_cap(grid.n_cells)
    return NoiseFunctional._of_fresh_table(grid, rng.standard_normal(1 << grid.n_cells))
