"""Acceptance gate: ten numbered criteria, one printed PASS/FAIL line each.

Run with `-s` (or read captured output) to see the per-criterion lines.
Criteria 1, 6 and 9 also enforce wall-clock budgets.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from noisespectra import (
    ElementarySet,
    NoiseFunctional,
    SimplexKernel,
    TimeGrid,
    conditional_expectation,
    endpoint_mass_profile,
    estimate_dimension,
    fiber_characters,
    fiber_dimension,
    fiber_gram,
    finite_chaos_partition_span,
    first_chaos_criterion,
    inner_product,
    interior_cut_distances,
    isometry_check,
    mass_of_subsets_of,
    npoint_density_estimate,
    orthogonality_check,
    product,
    restrict,
    spectral_measure_of,
    tensor_product,
)
from noisespectra.functionals import evaluate_table, random_functional
from noisespectra.structure import additive_integral_of, classify
from noisespectra.transform import decompose

GRID = TimeGrid(0, 1, 1, base=10)
N = GRID.n_cells
CORPUS_SIZE = 200
SETS_PER_FUNCTIONAL = 50


def report(num, label, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {label}{tail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(101)
    return [random_functional(GRID, rng) for _ in range(CORPUS_SIZE)]


def random_sets(rng, count):
    out = [ElementarySet.from_cells(GRID, ()), ElementarySet.from_cells(GRID, tuple(range(N)))]
    while len(out) < count + 2:
        cells = tuple(int(c) for c in np.flatnonzero(rng.integers(0, 2, N)))
        out.append(ElementarySet.from_cells(GRID, cells))
    return out


def test_criterion_01_subset_mass_is_projection_norm(corpus):
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for f in corpus:
        mu = spectral_measure_of(f)
        for region in random_sets(rng, SETS_PER_FUNCTIONAL):
            g = conditional_expectation(f, region)
            err = abs(mass_of_subsets_of(mu, region) - inner_product(g, g))
            worst = max(worst, err)
    elapsed = time.perf_counter() - started
    report(
        1,
        "mu{C inside A} equals squared projection norm",
        worst <= 1e-10 and elapsed < 10.0,
        f"max err {worst:.3e}, {elapsed:.1f}s < 10s",
    )


def test_criterion_02_projection_algebra(corpus):
    rng = np.random.default_rng(303)
    worst = 0.0
    for f in corpus:
        sets = random_sets(rng, SETS_PER_FUNCTIONAL)
        table = evaluate_table(f)
        for a, b in zip(sets[::2], sets[1::2]):
            lhs = evaluate_table(conditional_expectation(conditional_expectation(f, a), b))
            rhs = evaluate_table(conditional_expectation(f, a & b))
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        del table
    # fixed witness: projections do not add across a union
    f = NoiseFunctional.from_walsh_entries(GRID, {(1, 2): 1.0})
    a = ElementarySet.from_cells(GRID, (1,))
    b = ElementarySet.from_cells(GRID, (2,))
    combo = (
        evaluate_table(conditional_expectation(f, a))
        + evaluate_table(conditional_expectation(f, b))
        - evaluate_table(conditional_expectation(f, a | b))
        - evaluate_table(conditional_expectation(f, a & b))
    )
    witness = math.sqrt(float(np.mean(combo**2)))
    report(
        2,
        "E_A E_B = E_{A and B}; union witness norm 1",
        worst <= 1e-12 and abs(witness - 1.0) <= 1e-12,
        f"max err {worst:.3e}, witness {witness!r}",
    )


def test_criterion_03_factorization_and_restriction(corpus):
    rng = np.random.default_rng(404)
    half = Fraction(1, 2)
    left = TimeGrid(0, half, 1, base=5)
    right = TimeGrid(half, 1, 1, base=5)
    worst = 0.0
    for _ in range(100):
        g = random_functional(left, rng)
        h = random_functional(right, rng)
        fg = tensor_product(g, h)
        mu_fg = spectral_measure_of(fg)
        mu_prod = product(spectral_measure_of(g), spectral_measure_of(h))
        assert mu_fg.grid == mu_prod.grid
        for key in set(mu_fg.entries) | set(mu_prod.entries):
            err = abs(mu_fg.entries.get(key, 0.0) - mu_prod.entries.get(key, 0.0))
            worst = max(worst, err)
    worst_r = 0.0
    for f in corpus[:50]:
        mu = spectral_measure_of(f)
        for region in random_sets(rng, 10):
            lhs = restrict(mu, region)
            rhs = spectral_measure_of(conditional_expectation(f, region))
            for key in set(lhs.entries) | set(rhs.entries):
                err = abs(lhs.entries.get(key, 0.0) - rhs.entries.get(key, 0.0))
                worst_r = max(worst_r, err)
    report(
        3,
        "measure of a product is the product measure; restriction commutes",
        worst <= 1e-12 and worst_r <= 1e-12,
        f"product err {worst:.3e}, restriction err {worst_r:.3e}",
    )


def test_criterion_04_first_chaos_characterization():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        entries = {(i,): float(rng.standard_normal()) for i in range(N)}
        f = NoiseFunctional.from_walsh_entries(GRID, entries)
        distances = interior_cut_distances(f)
        worst = max(worst, float(distances.max()))
        crit = first_chaos_criterion(f)
        assert crit.holds, "criterion must accept an exact first-chaos functional"
        # additivity under concatenation is coefficient-exact
        ai = additive_integral_of(f)
        r, s, t = sorted(rng.choice(N + 1, size=3, replace=False))
        joined = dict(
            decompose(ai.member(GRID.boundary(r), GRID.boundary(s))).entries
        )
        joined.update(decompose(ai.member(GRID.boundary(s), GRID.boundary(t))).entries)
        whole = dict(decompose(ai.member(GRID.boundary(r), GRID.boundary(t))).entries)
        assert joined == whole
    rejected = 0
    for _ in range(100):
        values = rng.standard_normal(1 << N)
        values -= values.mean()
        f = NoiseFunctional.from_table(GRID, values)
        masses = spectral_measure_of(f)
        deep = masses.total_mass - masses.empty_atom - sum(
            v for k, v in masses.entries.items() if len(k) == 1
        )
        assert deep >= 0.1 * masses.total_mass, "corpus must carry high-order mass"
        crit = first_chaos_criterion(f)
        if not crit.holds and crit.failing_boundary is not None:
            assert 1 <= crit.failing_boundary <= N - 1
            rejected += 1
    report(
        4,
        "cut distances vanish exactly on first chaos and name failures off it",
        worst <= 1e-12 and rejected == 100,
        f"max first-chaos cut {worst:.3e}, {rejected}/100 rejections named",
    )


def test_criterion_05_partition_span(corpus):
    rng = np.random.default_rng(606)
    full_cuts = [GRID.boundary(b) for b in range(1, N)]
    worst = 0.0
    for f in corpus[:50]:
        span = finite_chaos_partition_span(f, full_cuts)
        err = float(np.abs(evaluate_table(span) - evaluate_table(f)).max())
        worst = max(worst, err)
    # refining the cut family only ever enlarges the span
    monotone = True
    for f in corpus[:50]:
        boundaries = list(range(1, N))
        rng.shuffle(boundaries)
        k = int(rng.integers(0, N - 1))
        coarse_b = sorted(boundaries[:k])
        extra = int(rng.integers(0, len(boundaries) - k + 1))
        fine_b = sorted(boundaries[: k + extra])
        coarse = finite_chaos_partition_span(f, [GRID.boundary(b) for b in coarse_b])
        fine = finite_chaos_partition_span(f, [GRID.boundary(b) for b in fine_b])
        kept_coarse = set(coarse.backend.entries)
        kept_fine = set(fine.backend.entries)
        if not kept_coarse <= kept_fine:
            monotone = False
        if inner_product(coarse, coarse) > inner_product(fine, fine) + 1e-12:
            monotone = False
    report(
        5,
        "full cut family reproduces multilinear functionals; spans are monotone",
        worst <= 1e-12 and monotone,
        f"max reproduction err {worst:.3e}",
    )


def test_criterion_06_ito_isometry():
    started = time.perf_counter()
    grid = TimeGrid(0, 1, 10)
    n = grid.n_cells
    paths = 100_000
    k1 = SimplexKernel.constant(1, n)
    k2 = SimplexKernel.constant(2, n)
    c1 = isometry_check(grid, k1, paths, seed=11)
    c2 = isometry_check(grid, k2, paths, seed=22)
    ortho = orthogonality_check(grid, k1, k2, paths, seed=13)
    # second moments against the continuum values 1 and 1/2
    z1 = abs(c1.estimate.value - 1.0) / c1.estimate.stderr
    z2 = abs(c2.estimate.value - 0.5) / c2.estimate.stderr
    est = npoint_density_estimate(
        NoiseFunctional.from_family("white-noise-i1", 10), 1, paths, seed=14
    )
    density_err = abs(est.mean_density - 1.0)
    elapsed = time.perf_counter() - started
    report(
        6,
        "isometry, orthogonality and 1-point density of the white-noise integrals",
        z1 <= 3 and z2 <= 3 and c1.within <= 3 and c2.within <= 3
        and ortho.within <= 3 and density_err <= 0.05 and elapsed < 300.0,
        f"z1 {z1:.2f}, z2 {z2:.2f}, z_orth {ortho.z:.2f}, "
        f"density err {density_err:.4f}, {elapsed:.0f}s < 300s",
    )


def test_criterion_07_endpoint_mass():
    f = NoiseFunctional.from_family("white-noise-i1", 10)
    eps = [Fraction(1, 2**j) for j in range(4, 9)]
    profile = endpoint_mass_profile(f, Fraction(1, 2), eps)
    targets = np.array([2.0 * float(e) for e in eps])
    rel = np.abs(profile - targets) / targets
    monotone = bool((np.diff(profile) < 0).all())
    report(
        7,
        "mass near a point grows like twice the window half-width",
        bool((rel <= 0.10).all()) and monotone,
        f"max rel err {rel.max():.3e}, monotone {monotone}",
    )


def test_criterion_08_fiber_dimension():
    worst = 0.0
    ok = True
    grid = TimeGrid(0, 1, 2)
    for d in (1, 2, 3):
        for n in (0, 1, 2, 3):
            if fiber_dimension(d, n) != d**n:
                ok = False
            chars = fiber_characters(grid, tuple(range(n)), d)
            if len(chars) != d**n:
                ok = False
            if n:
                gram = fiber_gram(tuple(range(n)), d)
                worst = max(worst, float(np.abs(gram - np.eye(d**n)).max()))
    report(
        8,
        "channel-tagged character fibers are orthonormal and count d**n",
        ok and worst <= 1e-10,
        f"max Gram deviation {worst:.3e}",
    )


def test_criterion_09_dimension_estimator():
    started = time.perf_counter()
    cantor = estimate_dimension("cantor-calibration", [8], samples=8, seed=0)
    parity = estimate_dimension("parity", [6, 8], samples=8, seed=1)
    single = estimate_dimension("single-coordinate", [6, 8], samples=64, seed=2)
    target = math.log(2) / math.log(3)
    elapsed = time.perf_counter() - started
    report(
        9,
        "box-counting slopes match the calibration families",
        abs(cantor.slope - target) <= 0.05
        and abs(parity.slope - 1.0) <= 0.02
        and abs(single.slope - 0.0) <= 0.02
        and elapsed < 120.0,
        f"cantor {cantor.slope:.4f} (target {target:.4f}), parity {parity.slope}, "
        f"single {single.slope}, {elapsed:.0f}s < 120s",
    )


def test_criterion_10_classification_trends():
    parity = classify("parity", range(1, 7))
    parity_ok = all(r.singleton_mass == 0.0 for r in parity.records[1:])
    level1 = classify("coordinate-sum", range(1, 7))
    level1_ok = all(r.singleton_mass == r.total_mass for r in level1.records)
    majority = classify("majority3-iterated", range(1, 5))
    frozen = [0.75, 0.5625, 0.421875, 0.31640625]  # exact dyadic powers of 3/4
    maj_err = max(
        abs(r.singleton_mass - want) for r, want in zip(majority.records, frozen)
    )
    report(
        10,
        "singleton-mass trends separate the family classes",
        parity_ok and level1_ok and maj_err <= 1e-12,
        f"majority singleton err {maj_err:.3e}",
    )
