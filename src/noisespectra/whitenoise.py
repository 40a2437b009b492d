"""White-noise laboratory: Brownian increments, iterated integrals, densities.

Increments are exact Gaussians with variance equal to cell length, so the
combinatorial identities (isometry, inter-order orthogonality, n-point
densities) have closed-form targets and the Monte Carlo layer only supplies
statistical error around them.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from ._mc import fill_increments, merge_moments, moments, stream_moments
from .chaos import HERMITE, ChaosCoefficients
from .functionals import (
    ItoTerm,
    MCEstimate,
    NoiseFunctional,
    _values_on_increments,
    inner_product_mc,
    norm_sq,
)
from .grid import TimeGrid, _integer, _integers
from .hermite import gauss_rule, hermite_values
from .kernels import SimplexKernel, iterated_sum
from .spectral import mass_meeting_interval, spectral_measure_of

MAX_PATH_TABLE = 50_000_000  # floats; larger runs must stream


# ---------------------------------------------------------------------------
# paths


@dataclass(eq=False)
class BrownianGrid:
    """Sampled increment table: one Gaussian per (path, cell, channel)."""

    grid: TimeGrid
    d: int
    increments: np.ndarray
    seed: int


def sample_paths(grid: TimeGrid, d: int, k: int, seed: int, workers: int = 1) -> BrownianGrid:
    """Reproducible increment table of shape (k, n_cells, d)."""
    if k < 1 or d < 1:
        raise ValueError("need k >= 1 paths and d >= 1 channels")
    n = grid.n_cells
    if k * n * d > MAX_PATH_TABLE:
        raise ValueError(
            f"{k} x {n} x {d} increments would exceed the in-memory cap; "
            "use the streaming estimators"
        )
    out = np.empty((k, n, d))
    fill_increments(out, seed, workers, math.sqrt(float(grid.cell_length)))
    return BrownianGrid(grid, d, out, seed)


def multiple_ito_integral(kernel: SimplexKernel, paths, max_order: int = 4) -> np.ndarray:
    """Iterated sums of the kernel along each path; one value per path.

    Order 1 with a unit kernel telescopes to the endpoint displacement.
    """
    if kernel.order > max_order:
        raise ValueError(f"kernel order {kernel.order} above the cap {max_order}")
    return iterated_sum(kernel, paths.increments if isinstance(paths, BrownianGrid) else paths)


# ---------------------------------------------------------------------------
# moment checks


@dataclass(frozen=True)
class MomentCheck:
    """An MC moment next to its exact target, with the z-score between them."""

    target: float
    estimate: MCEstimate

    @property
    def z(self) -> float:
        if self.estimate.stderr == 0.0:
            return 0.0 if self.estimate.value == self.target else math.inf
        return (self.estimate.value - self.target) / self.estimate.stderr

    @property
    def within(self) -> float:
        return abs(self.z)


def _as_functional(grid: TimeGrid, obj) -> NoiseFunctional:
    if isinstance(obj, NoiseFunctional):
        return obj
    if isinstance(obj, SimplexKernel):
        return NoiseFunctional.from_program(grid, [ItoTerm(1.0, obj)], degree_cap=obj.order,
                                            channels=1 + max(obj.channels))
    raise TypeError("expected a functional or a simplex kernel")


def isometry_check(grid: TimeGrid, kernel, samples: int, seed: int, workers: int = 1) -> MomentCheck:
    """MC second moment against the exact squared kernel norm on the simplex."""
    f = _as_functional(grid, kernel)
    target = norm_sq(f)
    return MomentCheck(target, inner_product_mc(f, f, samples, seed, workers))


def orthogonality_check(
    grid: TimeGrid, a, b, samples: int, seed: int, workers: int = 1
) -> MomentCheck:
    """MC cross moment of two integrals whose orders differ; target zero."""
    fa = _as_functional(grid, a)
    fb = _as_functional(grid, b)
    return MomentCheck(0.0, inner_product_mc(fa, fb, samples, seed, workers))


# ---------------------------------------------------------------------------
# n-point densities


@dataclass(eq=False)
class NPointDensity:
    """Per-tuple spectral density estimates of one chaos order.

    densities[i] (order 1) or densities[i, j], i < j (order 2) estimates the
    squared kernel value on that cell tuple; mass = density * cell volumes.

    mean_density_stderr treats the cell tuples' estimates as independent.
    They share the same paths and are correlated, so it understates the
    spread: for I1 at 1024 cells and 16,384 paths it reports 0.0163 where
    the exact spread of mean_density is 0.0223.
    """

    order: int
    grid: TimeGrid
    coefficients: np.ndarray
    densities: np.ndarray
    mean_density: float
    mean_density_stderr: float
    samples: int
    seed: int
    exact_norm_sq: float


def npoint_density_estimate(
    f: NoiseFunctional, order: int, samples: int, seed: int, workers: int = 1
) -> NPointDensity:
    """Monte Carlo Hermite projection of f onto one chaos order, per cell tuple.

    Estimates c_S = E[f * prod he_1(z_c)] over single cells (order 1) or
    strict pairs (order 2), then reports c_S^2 / cell volume as the density.
    Squaring inflates each estimate by its sampling variance, about 1/samples
    in absolute mass per tuple; the aggregate keeps well under a 5% relative
    band at 1e5 samples and level 10.

    No CSV column of ``npoint`` depends on the draw block size; order 1's stderr
    merges per-block moments, so its last bits follow `_mc.BLOCK_FLOATS`.
    """
    order = _integer(order, "density order")
    if order not in (1, 2):
        raise ValueError("density estimation covers orders 1 and 2")
    d = getattr(f.backend, "channels", 1)
    if d != 1:
        raise ValueError("density tables are single-channel")
    n = f.grid.n_cells
    h = float(f.grid.cell_length)
    scale = math.sqrt(h)

    def on_chunk(blocks, rows):
        if order == 2:
            z, vals, k = np.empty((rows, n)), np.empty(rows), 0
            for inc in blocks:
                np.divide(inc[:, :, 0], scale, out=z[k : k + len(inc)])
                vals[k : k + len(inc)] = _values_on_increments(f, inc)
                k += len(inc)
            vz = vals[:, None] * z
            total = vz.T @ z
            mean = total / rows
            # one GEMM pass per chunk: raw second moments, then chunk M2; the
            # squares overwrite their factors, so a worker holds two z-sized arrays
            np.multiply(vz, vz, out=vz)
            m2 = np.maximum(vz.T @ np.multiply(z, z, out=z) - total * mean, 0.0)
            return total, (rows, mean, m2)
        total = None
        stats = []
        for inc in blocks:  # each block is spent here, so z * f(z) is formed in it
            vals = _values_on_increments(f, inc)
            vz = inc[:, :, 0]
            vz /= scale
            vz *= vals[:, None]
            first = vz[0].copy()
            if total is not None:
                vz[0] += total  # continues numpy's sequential axis-0 sum over the chunk
            total = vz.sum(axis=0)
            vz[0] = first
            stats.append(moments(vz, out=vz)[1])
        return total, merge_moments(stats)

    acc, m2 = stream_moments(samples, seed, workers, n, 1, scale, on_chunk)
    coeff = acc / samples
    var = m2 / samples / samples
    volume = h if order == 1 else h * h
    if order == 1:
        sel = np.ones(n, dtype=bool)
    else:
        sel = np.triu(np.ones((n, n), dtype=bool), k=1)
        coeff = np.where(sel, coeff, 0.0)
    dens = np.where(sel, coeff * coeff / volume, 0.0)
    count = int(sel.sum())
    mean_density = float(dens.sum() / count)
    # var(c^2) ~ 4 c^2 var(c); tuples treated as independent for the aggregate
    agg_var = float((4.0 * coeff * coeff * var)[sel].sum()) / (count * count * volume * volume)
    return NPointDensity(
        order=order,
        grid=f.grid,
        coefficients=coeff,
        densities=dens,
        mean_density=mean_density,
        mean_density_stderr=math.sqrt(agg_var),
        samples=samples,
        seed=seed,
        exact_norm_sq=norm_sq(f),
    )


# ---------------------------------------------------------------------------
# fiber dimension


def fiber_characters(grid: TimeGrid, cells: Sequence[int], d: int) -> list[NoiseFunctional]:
    """All channel assignments of first-degree factors over the given cells."""
    cells = tuple(sorted(set(map(int, _integers(cells, "fiber cells")))))
    out = []
    for channels in iter_product(range(d), repeat=len(cells)):
        ix = tuple((c, ch, 1) for c, ch in zip(cells, channels))
        out.append(
            NoiseFunctional.from_chaos(ChaosCoefficients(grid, {ix: 1.0}, HERMITE, channels=d))
        )
    return out


def fiber_gram(cells: Sequence[int], d: int, points: int = 64) -> np.ndarray:
    """Gram matrix of the channel-assignment characters, by Gauss quadrature.

    Every entry is assembled from quadrature moments of he_1, so orthogonality
    comes out numerically rather than by construction.
    """
    cells = tuple(sorted(set(map(int, _integers(cells, "fiber cells")))))
    x, wts = gauss_rule(points)
    he1 = hermite_values(x, 1)[1]
    m_same = float(np.sum(wts * he1 * he1))
    m_cross = float(np.sum(wts * he1)) ** 2
    # two assignments agree or differ cell by cell: the product of one cell's d x d Gram
    one = np.where(np.eye(d, dtype=bool), m_same, m_cross)
    return functools.reduce(np.kron, [one] * len(cells), np.ones((1, 1)))


def fiber_dimension(d: int, n: int, points: int = 64, tol: float = 1e-10) -> int:
    """dim of the fiber over an n-cell set for d channels: d**n, verified.

    Checks that the Gram matrix of the d**n channel-tagged characters over n
    cells, the n-fold Kronecker product of one cell's d x d quadrature Gram
    matrix (`fiber_gram`), is the identity to `tol` before returning.
    """
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 channels and n >= 0 cells")
    gram = fiber_gram(range(n), d, points)
    expected = d**n
    err = float(np.abs(gram - np.eye(expected)).max())
    if err > tol:
        raise ValueError(f"character Gram deviates from identity by {err}")
    return expected


# ---------------------------------------------------------------------------
# endpoint masses


def endpoint_mass_profile(f: NoiseFunctional, t, eps_list: Sequence[float]) -> np.ndarray:
    """Spectral mass meeting (t - eps, t + eps) for each eps, exactly.

    Epsilons below the cell size are effectively reported at cell
    granularity: the cells containing the shrunken interval still count.
    """
    mu, tt, eps = spectral_measure_of(f), Fraction(t), [*map(Fraction, eps_list)]
    if any(e <= 0 for e in eps):
        raise ValueError("eps must be positive")
    return np.array([mass_meeting_interval(mu, tt - e, tt + e) for e in eps])
