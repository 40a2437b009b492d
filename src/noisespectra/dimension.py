"""Box-counting dimension of sampled spectral sets across refinement families.

A family is a name or any callable taking a level to a functional or a
measure.  The estimator draws sets from its spectral measure at one or more
resolutions, counts covering boxes over a mid-range of scales (the two finest
and two coarsest are degenerate and excluded), and fits a least-squares slope
of mean log2 count against log2 inverse scale.  Box counts are exact integer
arithmetic on cell indices; all randomness sits in the sampling.
"""
from __future__ import annotations

import functools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .spectral import SpectralMeasure, SpectralSet, sample_sets
from .functionals import NoiseFunctional
from .grid import _integer


def box_count(s: SpectralSet, j: int) -> int:
    """Number of scale base**-j boxes meeting the set, j an integer level; 0 for the empty set.

    Cells rise, so one bisection per box jumps from its first cell past it."""
    grid, cells = s.grid, s.cells
    if not 0 <= _integer(j, "box level") <= grid.level:
        raise ValueError(f"box level {j} outside 0..{grid.level}")
    width, n = grid.base ** (grid.level - j), len(cells)
    count = i = 0
    while i < n:
        count += 1
        i = bisect_left(cells, (cells[i] // width + 1) * width, i)
    return count


def _box_counts(flat: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """`box_count` of many nonempty sets at once: their rising cells laid end
    to end in `flat`, set i from ``starts[i]``.  A box starts at each set's
    first cell and wherever ``c // width`` changes."""
    boxes = flat // width
    new = np.empty(flat.size, dtype=bool)
    new[0] = True
    np.not_equal(boxes[1:], boxes[:-1], out=new[1:])
    new[starts] = True
    return np.add.reduceat(new, starts, dtype=np.intp)


@dataclass(frozen=True)
class ScalePoint:
    level: int
    box_level: int
    log2_inv_scale: float
    mean_log2_count: float
    stderr: float
    samples: int


@dataclass(frozen=True)
class DimensionEstimate:
    slope: float
    intercept: float
    r_squared: float
    points: tuple[ScalePoint, ...]
    samples_per_level: int
    seed: int
    clamped: bool
    empty_fraction: float


def _named(name: str) -> Callable[[int], NoiseFunctional | SpectralMeasure]:
    """A `families` name, or the alias "cantor-calibration" for the middle-thirds measure."""
    from . import families

    if name == "cantor-calibration":
        return functools.partial(families.calibration_measure, "cantor-thirds")
    if name not in families.family_names():
        known = ", ".join([*families.family_names(), "cantor-calibration"])
        raise ValueError(f"unknown family {name!r}; known: {known}")
    return functools.partial(NoiseFunctional.from_family, name)


def estimate_dimension(family: str | Callable[[int], NoiseFunctional | SpectralMeasure],
                       levels: Sequence[int], samples: int, seed: int) -> DimensionEstimate:
    """Fit log2 box count against log2 inverse scale over sampled sets.

    Every (level, mid-range scale) pair contributes one regression point, so
    the per-scale data stays auditable in the result.  Empty sets carry no
    boxes and are dropped from the averages; a corpus of only empty sets is
    an error.
    """
    if isinstance(family, str):
        family = _named(family)
    if samples < 1:
        raise ValueError("need at least one sample")
    if len(levels) == 0:
        raise ValueError("need at least one level")
    points: list[ScalePoint] = []
    empties = 0
    drawn = 0
    for offset, level in enumerate(levels):
        if level < 4:
            raise ValueError("levels below 4 leave no mid-range scales")
        source = family(level)
        sets = _sampled_sets(source, samples, seed + 1000 * offset)
        drawn += len(sets)
        nonempty = [s for s in sets if s.cells]
        empties += len(sets) - len(nonempty)
        if not nonempty:
            continue
        grid = nonempty[0].grid
        base = grid.base
        # identical draws are frequent (deterministic families); count each
        # distinct set once, in first-draw order
        draws = Counter(s.cells for s in nonempty)
        weights = np.array(list(draws.values()), dtype=np.float64)
        lengths = [len(cells) for cells in draws]
        flat = np.fromiter(chain.from_iterable(draws), dtype=np.int64, count=sum(lengths))
        starts = np.cumsum([0] + lengths[:-1])
        total = weights.sum()
        for j in range(2, level - 1):
            logs = np.log2(_box_counts(flat, starts, base ** (grid.level - j)))
            # weighted moments as np.average forms them, without its checks
            mean = float(np.multiply(logs, weights).sum() / total)
            var = float(np.multiply((logs - mean) ** 2, weights).sum() / total)
            points.append(
                ScalePoint(
                    level=level,
                    box_level=j,
                    log2_inv_scale=float(j * np.log2(base)),
                    mean_log2_count=mean,
                    stderr=float(np.sqrt(var / total)),
                    samples=int(total),
                )
            )
    if not points:
        raise ValueError("all sampled spectral sets were empty; no boxes to count")
    if len({p.log2_inv_scale for p in points}) < 2:
        raise ValueError("need at least two distinct scales; request deeper levels")
    x = np.array([p.log2_inv_scale for p in points])
    y = np.array([p.mean_log2_count for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    clamped = not 0.0 <= slope <= 1.0
    slope = float(min(max(slope, 0.0), 1.0))
    return DimensionEstimate(
        slope=slope,
        intercept=float(intercept),
        r_squared=r_squared,
        points=tuple(points),
        samples_per_level=samples,
        seed=seed,
        clamped=clamped,
        empty_fraction=empties / drawn if drawn else 0.0,
    )


def _sampled_sets(source, samples: int, seed: int) -> list[SpectralSet]:
    if isinstance(source, (NoiseFunctional, SpectralMeasure)):
        return sample_sets(source, samples, seed)
    raise TypeError("family generator must yield a functional or a measure")
