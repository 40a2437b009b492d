"""The four benchmark workloads: seeded inputs, ops, output checks, defect probes.

Every op checks its outputs against an independent route and raises
`CheckFailed` when they disagree.  An op takes one argument, `mark`, which
long ops call between stages so the harness can sample host speed there.
Library calls go through module attributes (``ns.f(...)``) at call time, so
a traced run sees them.

A workload builds its inputs from the seed alone, in one process and one
thread; ops receive only those inputs.  Ops are grouped in rounds: one round
runs each op kind once, and a run always times whole rounds, so the mix of
kinds (and with it every percentile) is the same in every run.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import noisespectra as ns
from noisespectra.functionals import evaluate_table


class CheckFailed(Exception):
    """An op's output disagreed with its independent oracle."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Probe:
    """A known-failing op, run once per run and reported, never timed."""

    name: str
    site: str
    run: Callable[[Callable[[], None]], None]


@dataclass
class Plan:
    """Generated inputs bound into ops, plus what the run context records."""

    kinds: list[str]
    rounds: list[list[Callable[[Callable[[], None]], None]]]
    probes: list[Probe]
    sizes: dict
    digest: str


class _Digest:
    """Hash of everything a workload generated, for the same-seed check."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *items) -> None:
        for x in items:
            if isinstance(x, np.ndarray):
                self._h.update(x.tobytes())
            else:
                self._h.update(repr(x).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# ---------------------------------------------------------------------------
# value-domain oracles (no Walsh transform involved)


def straddle_distances(values: np.ndarray, n: int) -> np.ndarray:
    """Cut distances from the value table: sqrt(var - var E_left - var E_right).

    Table position bit i is cell i, so reshaping to (2**(n-b), 2**b) puts the
    cells left of boundary b on the fast axis.
    """
    norm = float(np.mean(values * values))
    mean_sq = float(np.mean(values)) ** 2
    out = np.empty(n - 1)
    for b in range(1, n):
        t = values.reshape(1 << (n - b), 1 << b)
        left = t.mean(axis=0)
        right = t.mean(axis=1)
        straddle = norm - float(np.mean(left * left)) - float(np.mean(right * right)) + mean_sq
        out[b - 1] = math.sqrt(max(straddle, 0.0))
    return out


def region_norm(values: np.ndarray, n: int, cells) -> float:
    """Squared norm of the average over the cells outside the region."""
    inside = set(cells)
    cube = values.reshape((2,) * n)  # axis a is cell n - 1 - a
    outside = tuple(n - 1 - i for i in range(n) if i not in inside)
    avg = cube.mean(axis=outside) if outside else cube
    return float(np.mean(avg * avg))


# ---------------------------------------------------------------------------
# dense-small: 10-cell tables, many region queries per measure

SMALL_GRID = ns.TimeGrid(0, 1, 1, base=10)
SMALL_REGIONS = 25


def _dense_small_op(f, regions, mark) -> None:
    mu = ns.spectral_measure_of(f)
    for region in regions:
        g = ns.conditional_expectation(f, region)
        err = abs(ns.mass_of_subsets_of(mu, region) - ns.inner_product(g, g))
        check(err <= 1e-10, f"region mass differs from projection norm by {err:.3e}")
    for a, b in zip(regions[::2], regions[1::2]):
        lhs = evaluate_table(ns.conditional_expectation(ns.conditional_expectation(f, a), b))
        rhs = evaluate_table(ns.conditional_expectation(f, a & b))
        err = float(np.abs(lhs - rhs).max())
        check(err <= 1e-12, f"E_A E_B differs from E_(A and B) by {err:.3e}")


def build_dense_small(seed: int, n_rounds: int, scratch: str) -> Plan:
    rng = np.random.default_rng(seed)
    digest = _Digest()
    n = SMALL_GRID.n_cells
    rounds = []
    for _ in range(n_rounds):
        values = rng.standard_normal(1 << n)
        members = rng.integers(0, 2, size=(SMALL_REGIONS, n))
        digest.add(values, members)
        f = ns.NoiseFunctional.from_table(SMALL_GRID, values)
        regions = [ns.ElementarySet.from_cells(SMALL_GRID, np.flatnonzero(m)) for m in members]
        rounds.append([partial(_dense_small_op, f, regions)])
    sizes = {"cells": n, "table_entries": 1 << n, "regions_per_op": SMALL_REGIONS,
             "region_pairs_per_op": SMALL_REGIONS // 2}
    return Plan(["functional"], rounds, [], sizes, digest.hexdigest())


# ---------------------------------------------------------------------------
# dense-large: one 18-cell functional through spectrum -> cuts -> sample -> JSON

LARGE_GRID = ns.TimeGrid(0, 1, 1, base=18)
LARGE_SAMPLES = 1000
LARGE_REGIONS = 4


def _dense_large_op(values, regions, sample_seed: int, path: str, mark) -> None:
    n = LARGE_GRID.n_cells
    f = ns.NoiseFunctional.from_table(LARGE_GRID, values)
    mu = ns.spectral_measure_of(f)
    mark()
    profile = ns.cardinality_profile(mu)
    norm = float(np.mean(values * values))
    check(abs(mu.total_mass - norm) <= 1e-10 * norm, "Parseval: total mass != mean square")
    check(abs(sum(profile.values()) - norm) <= 1e-10 * norm, "cardinality profile != norm")
    mark()

    distances = ns.interior_cut_distances(mu)
    mark()
    err = float(np.abs(distances - straddle_distances(values, n)).max())
    check(err <= 1e-9, f"cut distances differ from the value-domain oracle by {err:.3e}")

    sets = ns.sample_sets(mu, LARGE_SAMPLES, sample_seed)
    mark()
    check(len(sets) == LARGE_SAMPLES, "sample_sets returned the wrong count")
    check(all(mu.entries.get(s.cells, 0.0) > 0.0 for s in sets), "drew a set outside the support")
    sizes = np.array(list(profile.keys()), dtype=np.float64)
    p = np.array(list(profile.values())) / norm
    mean = float(sizes @ p)
    sd = math.sqrt(max(float((sizes * sizes) @ p) - mean * mean, 0.0) / LARGE_SAMPLES)
    z = (np.mean([s.cardinality for s in sets]) - mean) / sd
    check(abs(z) <= 6.0, f"drawn cardinalities off the profile mean, z = {z:.2f}")

    for region in regions:
        got = ns.mass_of_subsets_of(mu, region)
        want = region_norm(values, n, region.cells())
        check(abs(got - want) <= 1e-10 * norm, f"region mass off by {abs(got - want):.3e}")
    mark()

    try:
        data = ns.measure_to_data(mu)
        mark()
        ns.write_json(path, data)
        mark()
        data = ns.read_json(path)
        mark()
        back = ns.measure_from_data(data)
    finally:
        if os.path.exists(path):
            os.remove(path)
    check(
        back.grid == mu.grid
        and back.entries == mu.entries
        and back.multiplicity_entries == mu.multiplicity_entries
        and back.residual == mu.residual,
        "JSON round trip changed the measure",
    )


def build_dense_large(seed: int, n_rounds: int, scratch: str) -> Plan:
    rng = np.random.default_rng(seed)
    digest = _Digest()
    n = LARGE_GRID.n_cells
    rounds = []
    for i in range(n_rounds):
        values = rng.standard_normal(1 << n)
        members = rng.integers(0, 2, size=(LARGE_REGIONS, n))
        sample_seed = int(rng.integers(0, 2**31))
        digest.add(values, members, sample_seed)
        regions = [ns.ElementarySet.from_cells(LARGE_GRID, np.flatnonzero(m)) for m in members]
        path = os.path.join(scratch, f"measure-{i}.json")
        rounds.append([partial(_dense_large_op, values, regions, sample_seed, path)])
    sizes = {"cells": n, "atoms": 1 << n, "samples": LARGE_SAMPLES, "regions": LARGE_REGIONS}
    return Plan(["pipeline"], rounds, [], sizes, digest.hexdigest())


# ---------------------------------------------------------------------------
# tree-model: model-backed measures beyond the dense cap

TREE_CUTS = 4
TREE_SAMPLES = 64
DIM_SAMPLES = 64
BOX_LEVELS = (2, 4, 6)
# (family, level, query a scattered region too, run estimate_dimension too)
TREE_INSTANCES = (
    ("majority3-iterated", 8, True, True),
    ("majority3-iterated", 12, False, False),
    ("tribes", 12, True, False),
)
TREE_DEFECT = ("tribes", 14)


def _box_count_gate(sets, j: int) -> None:
    """Mean box count at tree depth j against the exact (3/2)**j.

    The count is the depth-j generation of a Galton-Watson process whose
    offspring is 1 with probability 3/4 and 3 with probability 1/4.
    """
    m, var1 = 1.5, 0.75
    counts = [ns.box_count(s, j) for s in sets]
    var = var1 * m ** (j - 1) * (m**j - 1) / (m - 1)
    z = (float(np.mean(counts)) - m**j) / math.sqrt(var / len(counts))
    check(abs(z) <= 5.0, f"mean box count at depth {j} off (3/2)**{j}, z = {z:.2f}")


def _tree_op(mark, family, level, cuts, prefix, interval, scattered, sample_seed,
             dim_seed) -> None:
    mu = ns.spectral_measure_of(ns.NoiseFunctional.from_family(family, level))
    grid, model = mu.grid, mu.model
    for b in cuts:
        d = ns.cut_distance(mu, grid.boundary(b))
        check(0.0 <= d <= 1.0, f"cut distance {d!r} at boundary {b} outside [0, 1]")
        mark()
    via_subsets = ns.mass_of_subsets_of(mu, ns.ElementarySet(grid, ((0, prefix),)))
    via_prefix = model.prefix_mass(prefix)
    check(abs(via_subsets - via_prefix) <= 1e-12,
          f"prefix mass by subsets {via_subsets!r} != by prefix {via_prefix!r}")
    regions = [ns.ElementarySet(grid, (interval,))]
    if scattered is not None:
        regions.append(ns.ElementarySet.from_cells(grid, scattered))
    for region in regions:
        m = ns.mass_of_subsets_of(mu, region)
        check(model.empty_mass - 1e-12 <= m <= model.total_mass + 1e-12,
              f"region mass {m!r} outside [empty, total]")
    mark()
    sets = ns.sample_sets(mu, TREE_SAMPLES, sample_seed)
    check(all(not s.cells or s.cells[-1] < model.leaf_count for s in sets),
          "drew a cell outside the tree's leaves")
    if family == "majority3-iterated":
        check(ns.singleton_mass(mu) == 0.75**level, "Maj3 singleton mass != (3/4)**L")
        for j in BOX_LEVELS:
            if j <= level:
                _box_count_gate(sets, j)
    if dim_seed is not None:
        est = ns.estimate_dimension(family, [level], DIM_SAMPLES, dim_seed)
        check(not est.clamped and math.isfinite(est.r_squared),
              f"dimension slope {est.slope!r} clamped or fit undefined")


def _tree_inputs(rng, digest, family, level, scattered: bool, with_dim: bool) -> dict:
    n = ns.NoiseFunctional.from_family(family, level).grid.n_cells
    cuts = [int(b) for b in rng.integers(1, n, size=TREE_CUTS)]
    prefix = int(rng.integers(1, n))
    interval = tuple(sorted(int(x) for x in rng.choice(n + 1, size=2, replace=False)))
    region = np.flatnonzero(rng.integers(0, 2, size=n)) if scattered else None
    sample_seed = int(rng.integers(0, 2**31))
    dim_seed = int(rng.integers(0, 2**31)) if with_dim else None
    digest.add(family, level, cuts, prefix, interval, sample_seed, dim_seed)
    if region is not None:
        digest.add(region)
    return dict(family=family, level=level, cuts=cuts, prefix=prefix, interval=interval,
                scattered=region, sample_seed=sample_seed, dim_seed=dim_seed)


def _interval_mass(mark, family, level, interval, **_) -> None:
    mu = ns.spectral_measure_of(ns.NoiseFunctional.from_family(family, level))
    ns.mass_of_subsets_of(mu, ns.ElementarySet(mu.grid, (interval,)))


def build_tree_model(seed: int, n_rounds: int, scratch: str) -> Plan:
    rng = np.random.default_rng(seed)
    digest = _Digest()
    rounds = [
        [partial(_tree_op, **_tree_inputs(rng, digest, *inst)) for inst in TREE_INSTANCES]
        for _ in range(n_rounds)
    ]
    defect = _tree_inputs(rng, digest, *TREE_DEFECT, True, False)
    probes = [
        Probe("tribes L14 cut_distance", "src/noisespectra/families.py:93",
              partial(_tree_op, **defect)),
        Probe("tribes L14 mass_of_subsets_of", "src/noisespectra/families.py:70",
              partial(_interval_mass, **defect)),
    ]
    kinds = [f"{fam} L{level}" for fam, level, _, _ in TREE_INSTANCES]
    sizes = {
        "instances": {k: ns.NoiseFunctional.from_family(f, lv).grid.n_cells
                      for k, (f, lv, _, _) in zip(kinds, TREE_INSTANCES)},
        "cuts_per_op": TREE_CUTS, "samples_per_op": TREE_SAMPLES,
        "dimension_samples": DIM_SAMPLES, "box_levels": list(BOX_LEVELS),
        "defect_probe": f"{TREE_DEFECT[0]} L{TREE_DEFECT[1]}",
    }
    return Plan(kinds, rounds, probes, sizes, digest.hexdigest())


# ---------------------------------------------------------------------------
# white-noise-mc: Gaussian Monte Carlo at level 10

MC_LEVEL = 10
MC_PATHS = 16_384
MC_WORKERS = 2
MC_GATE = 5.0
MC_OFFSETS = (0.0, 1e4)
MC_DEFECT_OFFSET = 1e8


def _isometry_op(grid, kernel, seed: int, mark) -> None:
    chk = ns.isometry_check(grid, kernel, MC_PATHS, seed, MC_WORKERS)
    check(chk.within <= MC_GATE, f"isometry order {kernel.order}: |z| = {chk.within:.2f}")


def _orthogonality_op(grid, k1, k2, seed: int, mark) -> None:
    chk = ns.orthogonality_check(grid, k1, k2, MC_PATHS, seed, MC_WORKERS)
    check(chk.within <= MC_GATE, f"orthogonality: |z| = {chk.within:.2f}")


def _npoint_op(f, seed: int, mark) -> None:
    """Mean 1-point density of I1 against its exact mean and spread.

    With h = 1/n and S paths, each coefficient estimate is sqrt(h) plus an
    error of covariance (I + hJ)/S.  Squaring adds tr(I + hJ)/S = n(1 + h)/S
    to the mean density; its variance is 8/S + 2 tr((I + hJ)^2)/S^2.  (The
    stderr the estimator reports treats cells as independent and runs about
    30% small here.)
    """
    est = ns.npoint_density_estimate(f, 1, MC_PATHS, seed, MC_WORKERS)
    n, h, paths = f.grid.n_cells, 1.0 / f.grid.n_cells, MC_PATHS
    target = 1.0 + n * (1.0 + h) / paths
    sd = math.sqrt(8.0 / paths + 2.0 * n * ((1.0 + h) ** 2 + (n - 1) * h * h) / paths**2)
    z = (est.mean_density - target) / sd
    check(abs(z) <= MC_GATE, f"1-point density {est.mean_density!r}: |z| = {abs(z):.2f}")


def _offset_op(f, one, offset: float, seed: int, mark) -> None:
    """<c + I1, 1> has mean c and per-path variance exactly 1."""
    est = ns.inner_product_mc(f, one, MC_PATHS, seed, MC_WORKERS)
    exact = 1.0 / math.sqrt(MC_PATHS)
    z = (est.value - offset) / exact
    check(abs(z) <= MC_GATE, f"offset {offset:g}: |z| = {abs(z):.2f}")
    check(abs(est.stderr / exact - 1.0) <= 0.05,
          f"offset {offset:g}: stderr {est.stderr:.4g} vs exact {exact:.4g}")


def _offset_functional(grid, offset: float):
    k1 = ns.SimplexKernel.constant(1, grid.n_cells)
    constant = ns.MapTerm(1.0, (ns.MapFactor(0, 0, "poly", (offset,)),))
    return ns.NoiseFunctional.from_program(grid, [constant, ns.ItoTerm(1.0, k1)], degree_cap=1)


def build_white_noise(seed: int, n_rounds: int, scratch: str) -> Plan:
    rng = np.random.default_rng(seed)
    digest = _Digest()
    grid = ns.TimeGrid(0, 1, MC_LEVEL)
    n = grid.n_cells
    k1 = ns.SimplexKernel.constant(1, n)
    k2 = ns.SimplexKernel.constant(2, n)
    i1 = ns.NoiseFunctional.from_family("white-noise-i1", MC_LEVEL)
    one = ns.NoiseFunctional.from_program(
        grid, [ns.MapTerm(1.0, (ns.MapFactor(0, 0, "poly", (1.0,)),))], degree_cap=1
    )
    shifted = {c: _offset_functional(grid, c) for c in (*MC_OFFSETS, MC_DEFECT_OFFSET)}
    kinds = ["isometry-1", "isometry-2", "orthogonality", "npoint-1",
             *(f"offset-{c:g}" for c in MC_OFFSETS)]
    rounds = []
    for _ in range(n_rounds):
        seeds = [int(s) for s in rng.integers(0, 2**31, size=len(kinds))]
        digest.add(seeds)
        rounds.append([
            partial(_isometry_op, grid, k1, seeds[0]),
            partial(_isometry_op, grid, k2, seeds[1]),
            partial(_orthogonality_op, grid, k1, k2, seeds[2]),
            partial(_npoint_op, i1, seeds[3]),
            *(partial(_offset_op, shifted[c], one, c, s)
              for c, s in zip(MC_OFFSETS, seeds[4:])),
        ])
    defect_seed = int(rng.integers(0, 2**31))
    digest.add(defect_seed)
    probes = [Probe(
        f"offset {MC_DEFECT_OFFSET:g} stderr", "src/noisespectra/functionals.py:434",
        partial(_offset_op, shifted[MC_DEFECT_OFFSET], one, MC_DEFECT_OFFSET, defect_seed),
    )]
    sizes = {"cells": n, "paths": MC_PATHS, "workers": MC_WORKERS,
             "offsets": list(MC_OFFSETS), "defect_offset": MC_DEFECT_OFFSET}
    return Plan(kinds, rounds, probes, sizes, digest.hexdigest())


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, int, str], Plan]
    # rounds timed per second of --seconds, calibrated on a 2-core Xeon
    # (Sapphire Rapids, KVM) so a run lasts roughly --seconds there
    rounds_per_second: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-small", build_dense_small, 30.0),
        Workload("dense-large", build_dense_large, 2 / 15),
        Workload("tree-model", build_tree_model, 1.3),
        Workload("white-noise-mc", build_white_noise, 0.2),
    )
}
