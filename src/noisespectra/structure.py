"""First-chaos structure: additive integrals, cuts, and linearity diagnostics.

A functional whose spectral measure sits on single cells is an additive
integral: its restrictions to windows add exactly under concatenation.  The
distance to that regime is visible at interval cuts, since characters whose
support straddles a cut span the orthogonal complement of the two one-sided
subspaces.  These diagnostics are exact identities on the grid, not limits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .chaos import ChaosCoefficients
from .functionals import NoiseFunctional
from .grid import TimeGrid
from .spectral import (
    SpectralMeasure,
    cardinality_profile,
    singleton_mass,
    spectral_measure_of,
    straddle_mass,
)
from .transform import decompose, level_projection
from .walsh import _words, inside, row_sizes


# ---------------------------------------------------------------------------
# additive integrals


@dataclass(eq=False)
class AdditiveIntegral:
    """Interval-indexed family f_{s,t}, additive under concatenation.

    Built from the one-cell chaos entries of a source functional, so
    member(r, s) + member(s, t) = member(r, t) holds coefficient by
    coefficient, hence exactly.
    """

    grid: TimeGrid
    coefficients: ChaosCoefficients
    is_zero: bool = field(init=False)

    def __post_init__(self) -> None:
        if (row_sizes(self.coefficients.rows) != 1).any():
            raise ValueError("additive integrals carry one-cell indices only")
        self.is_zero = not self.coefficients.coeffs.any()

    def member(self, s, t) -> NoiseFunctional:
        """The window functional f_{s,t}; s and t must be grid points."""
        lo = self.grid.boundary_index(s)
        hi = self.grid.boundary_index(t)
        if lo > hi:
            raise ValueError("window must run forward")
        c = self.coefficients  # one cell each: inside the window exactly when it lies there
        keep = inside(c.rows, (lo, hi))
        return NoiseFunctional.from_chaos(c._with(c.coeffs[keep], 0.0, keep))


def first_chaos_extract(f: NoiseFunctional) -> NoiseFunctional:
    """The part of f carried by one-cell spectral sets."""
    return level_projection(f, 1)


def additive_integral_of(f: NoiseFunctional, tol: float | None = None) -> AdditiveIntegral:
    """Additive family generated by the first-chaos part of f.

    The family is flagged zero (not an error) when f has no first chaos.
    """
    # the chaos route of the level projection: a dense synthesis/analysis
    # roundtrip would leave float residue on other cardinalities
    chaos = NoiseFunctional.from_chaos(decompose(f, tol))
    return AdditiveIntegral(f.grid, level_projection(chaos, 1).backend)


# ---------------------------------------------------------------------------
# cuts


def cut_distance(f, t) -> float:
    """Distance from f - Ef to the sum of the two one-sided subspaces at t.

    Characters straddling the cut are exactly the orthogonal complement, so
    this is the square root of the straddling spectral mass, 0 at the window's
    ends.  `t` must be a grid point; `f` may be a functional or a prepared
    spectral measure.
    """
    mu = f if isinstance(f, SpectralMeasure) else spectral_measure_of(f)
    idx = mu.grid.boundary_index(t)
    # the float steps of `interior_cut_distances` at one boundary, without its arrays
    return math.sqrt(max(straddle_mass(mu, idx), 0.0)) if 0 < idx < mu.grid.n_cells else 0.0


def interior_cut_distances(f) -> np.ndarray:
    """Cut distances at every interior boundary, index 1 through n-1."""
    mu = f if isinstance(f, SpectralMeasure) else spectral_measure_of(f)
    straddle = mu.model.straddle_masses(np.arange(1, mu.grid.n_cells)) + mu.residual
    return np.sqrt(np.maximum(straddle, 0.0))


@dataclass(frozen=True)
class CutCriterion:
    holds: bool
    mean: float
    max_distance: float
    failing_boundary: int | None

    def __bool__(self) -> bool:
        return self.holds


def first_chaos_criterion(f: NoiseFunctional, tol: float = 1e-10) -> CutCriterion:
    """Is f (up to tol) a centered additive integral?

    True exactly when the mean vanishes and no interior cut separates mass;
    on the grid that is equivalent to the spectral measure charging only
    single cells.  The failing boundary is named when one exists.
    """
    mu = spectral_measure_of(f)
    mean = float(np.sqrt(mu.empty_atom))
    distances = interior_cut_distances(mu)
    worst = int(np.argmax(distances)) + 1 if distances.size else None
    max_d = float(distances.max()) if distances.size else 0.0
    holds = mean <= tol and max_d <= tol
    return CutCriterion(holds, mean, max_d, None if holds else worst)


# ---------------------------------------------------------------------------
# partition spans


def finite_chaos_partition_span(f: NoiseFunctional, cuts: Sequence) -> NoiseFunctional:
    """Project f onto spectral sets with at most one cell between consecutive cuts.

    Cuts are grid points splitting the window into len(cuts)+1 intervals.
    With every interior boundary cut, any functional whose indices repeat no
    cell survives unchanged.  The projection keeps a subset of chaos entries,
    so it is orthogonal, and refining the cut family only enlarges it.
    """
    edges = sorted({0, f.grid.n_cells, *map(f.grid.boundary_index, cuts)})
    coeffs = decompose(f)
    keep = np.ones(len(coeffs.coeffs), dtype=bool)
    for interval in zip(edges, edges[1:]):  # at most one cell of each support in each
        keep &= row_sizes(coeffs.rows & _words(interval, coeffs.rows.shape[1])) <= 1
    return NoiseFunctional.from_chaos(coeffs.filtered(keep))


# ---------------------------------------------------------------------------
# cross-resolution classification


@dataclass(frozen=True)
class LevelRecord:
    level: int
    n_cells: int
    total_mass: float
    empty_mass: float
    singleton_mass: float
    cardinality_profile: dict[int, float]
    max_cut_distance: float


@dataclass(frozen=True)
class ClassificationReport:
    family: str
    records: tuple[LevelRecord, ...]
    singleton_fractions: tuple[float, ...]
    low_cardinality_fractions: tuple[float, ...]
    verdicts: tuple[str, ...]

    THRESHOLD_VANISH = 0.01
    THRESHOLD_DOMINATE = 0.99


def classify(family: str, levels: Sequence[int], **params) -> ClassificationReport:
    """Per-level spectral summaries plus trend verdicts for a named family.

    Verdicts are labeled heuristics over the measured sequences: a mass fraction
    "vanishes" when it is monotone nonincreasing over at least three levels and
    ends below 0.01 (0 at every level, however many, has its own verdict), and
    "dominates" when it ends above 0.99.  Raw per-level data always rides along.
    """
    records: list[LevelRecord] = []
    for level in levels:
        f = NoiseFunctional.from_family(family, level, **params)
        mu = spectral_measure_of(f)
        profile = cardinality_profile(mu)
        sing = singleton_mass(mu)
        distances = interior_cut_distances(mu)
        records.append(
            LevelRecord(
                level=level,
                n_cells=f.grid.n_cells,
                total_mass=mu.total_mass,
                empty_mass=mu.empty_atom,
                singleton_mass=sing,
                cardinality_profile=profile,
                max_cut_distance=float(distances.max()) if distances.size else 0.0,
            )
        )
    sing_frac = tuple(
        r.singleton_mass / (r.total_mass - r.empty_mass) if r.total_mass > r.empty_mass else 0.0
        for r in records
    )
    low_frac = tuple(
        (r.empty_mass + r.singleton_mass) / r.total_mass if r.total_mass > 0 else 0.0
        for r in records
    )
    verdicts: list[str] = []
    if sing_frac and not any(sing_frac):  # 0 throughout, at any level count: no mass to lose
        verdicts.append("no first-chaos mass at any level")
    elif _vanishes(sing_frac):
        verdicts.append("black-like: first-chaos fraction vanishes across levels")
    if low_frac and low_frac[-1] >= ClassificationReport.THRESHOLD_DOMINATE:
        verdicts.append("linearizable-like: mass concentrated on sets of at most one cell")
    if not verdicts:
        verdicts.append("inconclusive: report the raw sequences")
    return ClassificationReport(
        family=family,
        records=tuple(records),
        singleton_fractions=sing_frac,
        low_cardinality_fractions=low_frac,
        verdicts=tuple(verdicts),
    )


def _vanishes(seq: Sequence[float]) -> bool:
    if len(seq) < 3:
        return False
    tail = seq[-3:]
    monotone = all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))
    return monotone and seq[-1] < ClassificationReport.THRESHOLD_VANISH
