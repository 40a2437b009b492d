"""Chaos transforms: decomposition, reconstruction, and projections.

The Rademacher side is the fast Walsh-Hadamard transform with coefficients
normalized as expectations against characters, so Parseval holds with no
extra factor.  The Gaussian side is per-cell Hermite projection with a
degree cap; truncation is reported, never silent.

The conditional expectation onto an elementary set A has two routes.  The
table route averages a value table over the cells outside A, with no
transform; the chaos route keeps exactly the coefficients supported inside
A.  A table run through :func:`decompose` and the chaos route must match the
table route: the package's standing dual-route check.
"""
from __future__ import annotations

import math

import numpy as np

from .chaos import WALSH, ChaosCoefficients
from .functionals import (
    BrownianProgram,
    FamilyRef,
    ItoTerm,
    MapTerm,
    NoiseFunctional,
    RademacherTable,
    _factor_moments,
    evaluate_table,
    hermite_decompose,
)
from .grid import ElementarySet, TimeGrid, _integer, require_same_grid
from .walsh import character_coefficients, inside, row_sizes, run_axes, values_from_coefficients


def decompose(f: NoiseFunctional, tol: float | None = None) -> ChaosCoefficients:
    """Chaos coefficients of f; exact for dense backends, capped for Gaussian.  A Walsh `tol`
    (table, family or Walsh expansion) drops every |c| <= tol with no residual recorded; a
    program's only warns when the truncation residual exceeds it; a Hermite expansion is kept."""
    b = f.backend
    if isinstance(b, ChaosCoefficients):
        return b if tol is None or b.kind != WALSH else b.filtered(np.abs(b.coeffs) > tol)
    if isinstance(b, BrownianProgram):
        return hermite_decompose(f.grid, b, tol=tol)
    dense = walsh_coefficients(f, tol)
    masks = np.flatnonzero(dense)  # ascending, each a one-word row
    return ChaosCoefficients._of_columns(f.grid, WALSH, 1, 0.0, coeffs=dense[masks],
                                         rows=masks.astype(np.uint64)[:, None])


def walsh_coefficients(f: NoiseFunctional, tol: float | None) -> np.ndarray:
    """Character coefficients of a table or a family below the dense cap, by subset bitmask;
    every |c| <= tol is zeroed with no residual, as `decompose` drops it from a Walsh expansion."""
    dense = character_coefficients(evaluate_table(f))
    if tol is not None:
        dense[np.abs(dense) <= tol] = 0.0
    return dense


def reconstruct(c: ChaosCoefficients) -> NoiseFunctional:
    """Functional with the given expansion; a value table on the Walsh side."""
    f = NoiseFunctional.from_chaos(c)
    if c.kind == WALSH:  # a chaos functional's table is a fresh array
        return NoiseFunctional._of_fresh_table(c.grid, evaluate_table(f))
    return f


def conditional_expectation(f: NoiseFunctional, region: ElementarySet) -> NoiseFunctional:
    """Projection onto the functionals measurable inside `region`.

    A table is averaged over the cells outside the region; chaos
    coefficients keep exactly the indices whose support lies in the region.
    Both equal the probabilistic conditional expectation given the cells of
    the region.  The output backend matches the input (table in, table out;
    chaos in, chaos out; Brownian programs are masked term by term); a family
    below the dense cap is read as its table.

    On a table the axis layout is :func:`walsh.run_axes` of the region's bounds, one axis per
    maximal run of inside or outside cells.  The 2**|A| outside sums are ``np.add.reduce`` over
    the outside axes bit for bit: numpy adds each run of the lowest cells pairwise, chained over
    the other outside patterns in C order, one inner loop per run.  (a) A lowest outside run of
    8 or more entries, or the only outside axis, keeps that reduce; (b) one of 2 or 4 entries is
    added in order first, which is the pairwise sum below 8 (it starts from -0.0, and -0.0 + x
    is x); (c) the rest is copied outside axes first, and one reduce over them adds whole rows
    of inside patterns in the same order.  Then one in-place division by the outside count (as
    ``np.mean``) and one broadcast copy fill a fresh read-only table; a full region returns `f`.
    """
    require_same_grid(f.grid, region.grid)
    b = f.backend
    if isinstance(b, (RademacherTable, FamilyRef)):
        values, n = evaluate_table(f), f.grid.n_cells
        shape, outside = run_axes(region.bounds, n)
        if not outside:
            return f
        total = _outside_sums(values.reshape(shape), outside)
        # one sum per inside subset, each over 2**n / total.size outside ones
        np.true_divide(total, values.size // total.size, out=total)
        out = np.empty(1 << n)
        out.reshape(shape)[...] = total
        return NoiseFunctional._of_fresh_table(f.grid, out)
    if isinstance(b, ChaosCoefficients):
        return NoiseFunctional.from_chaos(b.filtered(inside(b.rows, region.bounds)))
    return NoiseFunctional(f.grid, _program_projection(f.grid, b, region))


def _outside_sums(v: np.ndarray, outside: list[int]) -> np.ndarray:
    """``np.add.reduce(v, axis=tuple(outside), keepdims=True)`` bit for bit, in long loops."""
    low = outside[-1] == v.ndim - 1  # the lowest cells are outside
    if low and (v.shape[-1] >= 8 or len(outside) == 1):
        return np.add.reduce(v, axis=tuple(outside), keepdims=True)
    keep = list(v.shape)
    for a in outside:
        keep[a] = 1
    if low:
        run, v, outside = v, v[..., 0] + v[..., 1], outside[:-1]
        for k in range(2, run.shape[-1]):
            v += run[..., k]
    rows = v.transpose(outside + [a for a, k in enumerate(keep) if k > 1])  # then the inside axes
    return np.add.reduce(rows.reshape(-1, math.prod(keep)), axis=0).reshape(keep)


def _program_projection(
    grid: TimeGrid, p: BrownianProgram, region: ElementarySet
) -> BrownianProgram:
    inside = np.zeros(grid.n_cells)
    inside[list(region.cells())] = 1.0
    out: list = []
    for term in p.terms:
        if isinstance(term, ItoTerm):
            out.append(ItoTerm(term.weight, term.kernel.restricted(inside)))
        else:
            weight = term.weight
            kept = []
            scale = math.sqrt(float(grid.cell_length))
            for fac in term.factors:
                if inside[fac.cell]:
                    kept.append(fac)
                else:
                    weight *= _factor_moments(fac, scale)[0]
            if weight != 0.0:
                out.append(MapTerm(weight, tuple(kept)))
    return BrownianProgram(tuple(out), p.degree_cap, p.channels)


def level_projection(f: NoiseFunctional, order: int) -> NoiseFunctional:
    """The part of f on multiplicity-free spectral sets of exactly `order` cells.

    Hermite indices putting total degree >= 2 on some cell belong to no pure
    order here; their mass is the separately reported multiplicity mass.
    """
    if _integer(order, "chaos order") < 0:
        raise ValueError("chaos order must be nonnegative")
    b = f.backend
    if isinstance(b, (RademacherTable, FamilyRef)):
        dense = character_coefficients(evaluate_table(f))
        masks = np.arange(dense.shape[0], dtype=np.uint64)
        dense[np.bitwise_count(masks) != order] = 0.0
        return NoiseFunctional._of_fresh_table(f.grid, values_from_coefficients(dense))
    if isinstance(b, ChaosCoefficients):
        keep = (row_sizes(b.rows) == order) & ~b.multiplicity
        return NoiseFunctional.from_chaos(b.filtered(keep))
    if all(isinstance(t, ItoTerm) for t in b.terms):
        kept_terms = tuple(t for t in b.terms if t.kernel.order == order)  # orders are >= 1
        return NoiseFunctional(f.grid, BrownianProgram(kept_terms, b.degree_cap, b.channels))
    return level_projection(NoiseFunctional.from_chaos(hermite_decompose(f.grid, b)), order)


def chaos_order_masses(f: NoiseFunctional) -> dict[int, float]:
    """Squared-norm mass per multiplicity-free chaos order (distinct-cell count)."""
    from .spectral import cardinality_profile, spectral_measure_of

    return cardinality_profile(spectral_measure_of(f))
