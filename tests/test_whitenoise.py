"""White-noise laboratory: isometry, densities, fibers, endpoint masses."""
import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noisespectra import (
    ChaosCoefficients,
    ItoTerm,
    MapFactor,
    MapTerm,
    NoiseFunctional,
    SimplexKernel,
    TimeGrid,
    endpoint_mass_profile,
    fiber_characters,
    fiber_dimension,
    fiber_gram,
    inner_product_mc,
    isometry_check,
    multiple_ito_integral,
    npoint_density_estimate,
    orthogonality_check,
    sample_paths,
)
from noisespectra.hermite import gauss_rule, hermite_values

GRID = TimeGrid(0, 1, 4)
N = GRID.n_cells


def test_sample_paths_reproducible_and_scaled():
    paths = sample_paths(GRID, 1, 2000, seed=4)
    again = sample_paths(GRID, 1, 2000, seed=4)
    assert np.array_equal(paths.increments, again.increments)
    assert paths.increments.shape == (2000, N, 1)
    # increment variance is the cell length
    var = paths.increments.var()
    assert abs(var - 1.0 / N) < 5e-4


def test_sample_paths_validation():
    with pytest.raises(ValueError):
        sample_paths(GRID, 0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_paths(TimeGrid(0, 1, 10), 1, 10**6, seed=0)  # above the table cap


def test_i1_telescopes_to_endpoint():
    paths = sample_paths(GRID, 1, 50, seed=1)
    vals = multiple_ito_integral(SimplexKernel.constant(1, N), paths)
    assert_allclose(vals, paths.increments[:, :, 0].sum(axis=1), rtol=1e-12)
    with pytest.raises(ValueError):
        multiple_ito_integral(SimplexKernel.constant(2, N), paths, max_order=1)


def test_isometry_checks_pass_at_3se():
    check1 = isometry_check(GRID, SimplexKernel.constant(1, N), samples=20000, seed=2)
    assert_allclose(check1.target, 1.0, rtol=1e-12)
    assert check1.within < 3
    check2 = isometry_check(GRID, SimplexKernel.constant(2, N), samples=20000, seed=3)
    assert_allclose(check2.target, math.comb(N, 2) / N**2, rtol=1e-12)
    assert check2.within < 3


def test_multiworker_runs_reproduce():
    k1 = SimplexKernel.constant(1, N)
    a = isometry_check(GRID, k1, samples=9000, seed=6, workers=3)
    b = isometry_check(GRID, k1, samples=9000, seed=6, workers=3)
    assert a.estimate.value == b.estimate.value
    assert a.estimate.stderr == b.estimate.stderr
    assert abs(a.z) < 4  # the split streams still estimate the moment


def test_orthogonality_check_target_zero():
    check = orthogonality_check(
        GRID,
        SimplexKernel.constant(1, N),
        SimplexKernel.constant(2, N),
        samples=20000,
        seed=5,
    )
    assert check.target == 0.0
    assert check.within < 3


def test_moment_check_zero_stderr_edge():
    from noisespectra import MCEstimate
    from noisespectra.whitenoise import MomentCheck

    assert MomentCheck(1.0, MCEstimate(1.0, 0.0, 10)).z == 0.0
    assert math.isinf(MomentCheck(1.0, MCEstimate(2.0, 0.0, 10)).z)


I1 = NoiseFunctional.from_family("white-noise-i1", GRID.level)
MC_RUNS = {  # each gives one float or array of its estimate, as hex or bytes
    "isometry_check": lambda samples, seed, workers: isometry_check(
        GRID, SimplexKernel.constant(1, N), samples, seed, workers).estimate.value.hex(),
    "inner_product_mc": lambda samples, seed, workers: inner_product_mc(
        I1, I1, samples, seed, workers).stderr.hex(),
    "npoint_density_estimate": lambda samples, seed, workers: npoint_density_estimate(
        I1, 1, samples, seed, workers).coefficients.tobytes(),
}


@pytest.mark.parametrize("run", MC_RUNS)
@pytest.mark.parametrize("samples, seed, workers, message", [
    (100, 1.7, 1, "seed must be an integer, got 1.7"),
    (100, True, 1, "seed must be an integer, got True"),
    (True, 1, 1, "path total must be an integer, got True"),
    (100.0, 1, 1, "path total must be an integer, got 100.0"),
    (100, 1, True, "worker count must be an integer, got True"),
    (100, 1, 2.0, "worker count must be an integer, got 2.0"),
])
def test_seeds_path_totals_and_worker_counts_must_be_integers(run, samples, seed, workers, message):
    with pytest.raises(ValueError) as got:
        MC_RUNS[run](samples, seed, workers)
    assert str(got.value) == message


@pytest.mark.parametrize("run", MC_RUNS)
def test_numpy_integer_seeds_give_the_int_seeds_bits(run):
    want = MC_RUNS[run](500, 3, 2)
    assert MC_RUNS[run](500, np.int64(3), np.int32(2)) == want
    assert MC_RUNS[run](np.int64(500), np.uint8(3), 2) == want


def test_seeds_key_philox_as_words_mod_2_64():
    import warnings

    from numpy.random import Generator, Philox

    from noisespectra import sample_sets, spectral_measure_of
    from noisespectra._rng import worker_generator

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no key word passes through float64
        first = {s: worker_generator(s, 0).random()
                 for s in (-1, -2, -3, -5, 2**63, 2**63 + 2048, 2**64 - 1)}
        # seeds below 2**63 keep the streams of Philox(key=[seed, worker])
        for s in (0, 1, 7, 3501, 2**31 - 1, 2**62, 2**63 - 1):
            for w in range(4):
                want = Generator(Philox(key=[s, w])).random(4)
                assert worker_generator(s, w).random(4).tolist() == want.tolist(), (s, w)
    assert first[-1] == first[2**64 - 1]
    assert len(set(first.values())) == 6
    mu = spectral_measure_of(NoiseFunctional.from_family("majority3-iterated", 10))
    assert sample_sets(mu, 200, -1) != sample_sets(mu, 200, -2)


def test_npoint_order1_density_of_i1():
    f = NoiseFunctional.from_family("white-noise-i1", 4)
    est = npoint_density_estimate(f, 1, samples=30000, seed=7)
    # unit kernel: density 1 in every cell
    assert est.densities.shape == (16,)
    assert abs(est.mean_density - 1.0) < 0.05
    assert_allclose(est.exact_norm_sq, 1.0, rtol=1e-12)
    # reproducibility
    again = npoint_density_estimate(f, 1, samples=30000, seed=7)
    assert np.array_equal(est.densities, again.densities)


def test_npoint_order2_density_of_i2():
    f = NoiseFunctional.from_family("white-noise-i2", 3)
    est = npoint_density_estimate(f, 2, samples=30000, seed=8)
    n = 8
    assert est.densities.shape == (n, n)
    iu = np.triu_indices(n, k=1)
    assert abs(est.densities[iu].mean() - 1.0) < 0.1
    assert np.tril(est.densities).sum() == 0.0  # strictly upper storage


def test_npoint_rejects_unsupported_order():
    f = NoiseFunctional.from_family("white-noise-i1", 3)
    with pytest.raises(ValueError):
        npoint_density_estimate(f, 3, samples=100, seed=0)


def test_fiber_characters_count_and_gram():
    grid = TimeGrid(0, 1, 2)
    chars = fiber_characters(grid, (0, 2), d=3)
    assert len(chars) == 9
    gram = fiber_gram((0, 2), d=3)
    assert_allclose(gram, np.eye(9), atol=1e-12)


def loop_fiber_gram(cells, d, points):
    """The Gram entry by entry: one factor per cell, m_same where the two channel
    assignments agree and m_cross where they differ, multiplied from cell 0 up."""
    x, wts = gauss_rule(points)
    he1 = hermite_values(x, 1)[1]
    m_same, m_cross = float(np.sum(wts * he1 * he1)), float(np.sum(wts * he1)) ** 2
    assigns = list(itertools.product(range(d), repeat=len(cells)))
    gram = np.ones((len(assigns), len(assigns)))
    for i, a in enumerate(assigns):
        for j, b in enumerate(assigns):
            for ca, cb in zip(a, b):
                gram[i, j] *= m_same if ca == cb else m_cross
    return gram


@pytest.mark.parametrize("points", [1, 3, 64])
def test_fiber_gram_is_the_entrywise_product_bit_for_bit(points):
    for d in (1, 2, 3):
        for n in range(5):
            got, want = fiber_gram(range(n), d, points), loop_fiber_gram(range(n), d, points)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (d, n)


def test_fiber_dimension_counts():
    for d in (1, 2, 3):
        for n in (0, 1, 2, 3):
            assert fiber_dimension(d, n) == d**n
    with pytest.raises(ValueError):
        fiber_dimension(0, 2)


def test_fiber_gram_detects_broken_orthogonality():
    # with a single quadrature node he_1 moments degenerate and the check fires
    with pytest.raises(ValueError):
        fiber_dimension(2, 2, points=1)


def test_endpoint_profile_is_twice_eps():
    f = NoiseFunctional.from_family("white-noise-i1", 6)
    eps = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
    profile = endpoint_mass_profile(f, Fraction(1, 2), eps)
    assert_allclose(profile, [0.5, 0.25, 0.125], rtol=1e-12)
    # monotone in eps
    assert (np.diff(profile) < 0).all()


def test_endpoint_profile_clips_at_window():
    f = NoiseFunctional.from_family("white-noise-i1", 4)
    # interval centered at the left edge only extends rightward
    profile = endpoint_mass_profile(f, 0, [Fraction(1, 4)])
    assert_allclose(profile, [0.25], rtol=1e-12)
    with pytest.raises(ValueError):
        endpoint_mass_profile(f, 0, [0])


# ---------------------------------------------------------------------------
# pinned seeded outputs
#
# Means as float.hex and arrays as sha256 prefixes of their bytes, captured
# from the serial per-worker loops that the threaded block engine replaced;
# the engine must reproduce them bit for bit.  The stderr column is pinned to
# 1e-14 relative: it moved by rounding only when the one-pass variance gave
# way to merged per-chunk (count, mean, M2).  At 128 cells a worker draws
# 2048-path blocks inside 8192-path chunks, and no path count below is a
# multiple of either.

PINNED = {
    ("isometry-1", 3000, 1): (("0x1.0c89699b5753dp+0",), "0x1.a731754547e6ap-6"),
    ("isometry-1", 9000, 2): (("0x1.f9b2a47eb66e6p-1",), "0x1.dfe58c7ebc0d3p-7"),
    ("isometry-1", 20000, 3): (("0x1.fe9209b1645afp-1",), "0x1.4889eb957dacbp-7"),
    ("isometry-2", 3000, 1): (("0x1.def4aeda09f41p-2",), "0x1.45b3132490ef7p-5"),
    ("isometry-2", 9000, 2): (("0x1.e20389b5364a3p-2",), "0x1.39428495a86ddp-6"),
    ("isometry-2", 20000, 3): (("0x1.e5ec25a831d46p-2",), "0x1.87f234597f4a2p-7"),
    ("orthogonality", 3000, 1): (("0x1.41b0a9249dd01p-6",), "0x1.c572d9de06270p-6"),
    ("orthogonality", 9000, 2): (("0x1.27a8162e310fdp-6",), "0x1.05ef3b1ffc081p-6"),
    ("orthogonality", 20000, 3): (("0x1.192f974c7666dp-6",), "0x1.5701ba1a559b0p-7"),
    ("offset", 3000, 1): (("0x1.82c5235aea188p+1",), "0x1.243ab2d3f0ce4p-6"),
    ("offset", 9000, 2): (("0x1.7f656197cf2fcp+1",), "0x1.53e67415c6fe6p-7"),
    ("offset", 20000, 3): (("0x1.80268140f3ee9p+1",), "0x1.cb460722786bep-8"),
    ("chaos", 3000, 1): (("0x1.82b132b23ebdap-4",), "0x1.66014bfffc592p-5"),
    ("chaos", 9000, 2): (("0x1.1b8adc0e0df70p-5",), "0x1.807f2f7188238p-6"),
    ("chaos", 20000, 3): (("0x1.0809573a9cc80p-5",), "0x1.fa561a2bca09dp-7"),
    ("dense-1", 3000, 1): (("0x1.c76dd36cc74e3p-1",), "0x1.7a2f269e587f6p-6"),
    ("dense-1", 9000, 2): (("0x1.c6740734dd7b6p-1",), "0x1.b0030c9d63297p-7"),
    ("dense-1", 20000, 3): (("0x1.c2067b53524c6p-1",), "0x1.220bc4bcfa632p-7"),
    ("dense-2", 3000, 1): (("0x1.0780dec86b47bp-1",), "0x1.dfae455cbf3f3p-7"),
    ("dense-2", 9000, 2): (("0x1.fe95bc123b826p-2",), "0x1.05248dd38fe02p-7"),
    ("dense-2", 20000, 3): (("0x1.fa886426b78c0p-2",), "0x1.537ada355ec05p-8"),
    ("npoint-1", 3000, 1): (("0x1.14bf69176dc02p+0", "51e0335d431e5ba8"), "0x1.3bc52ec27b8b5p-5"),
    ("npoint-1", 9000, 2): (("0x1.0296b5a130bbcp+0", "16aae300287ba21a"), "0x1.5be3b21204ed6p-6"),
    ("npoint-1", 20000, 3): (("0x1.008d2189869c3p+0", "103213d1feca4f92"), "0x1.d1200f5dd0257p-7"),
    ("npoint-2", 3000, 1): (("0x1.e37b3c1e2c8cap+1", "7b2d68e56edf4cfc"), "0x1.3015472e080edp-4"),
    ("npoint-2", 9000, 2): (("0x1.0c4fe2c651c87p+1", "b41930d441a0065e"), "0x1.0bc2ffbdf6c6bp-5"),
    ("npoint-2", 20000, 3): (("0x1.80ba9acb338bdp+0", "8ff609439aea9a4c"), "0x1.2b77072c0e7b8p-6"),
    ("paths", 3000, 1): (("706d6d8bb1959b12",), None),
    ("paths", 9000, 2): (("e6b749e37593ab1f",), None),
    ("paths", 20000, 3): (("5b305d27add653d3",), None),
}


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


@lru_cache(maxsize=1)
def _pinned_runs():
    grid = TimeGrid(0, 1, 7)
    n = grid.n_cells
    k1, k2 = SimplexKernel.constant(1, n), SimplexKernel.constant(2, n)
    rng = np.random.default_rng(11)
    dense1 = SimplexKernel(1, n, dense=rng.standard_normal(n))
    dense2 = SimplexKernel(2, n, dense=rng.standard_normal((n, n)))
    i1 = NoiseFunctional.from_family("white-noise-i1", 7)
    i2 = NoiseFunctional.from_family("white-noise-i2", 7)
    one = NoiseFunctional.from_program(
        grid, [MapTerm(1.0, (MapFactor(0, 0, "poly", (1.0,)),))], degree_cap=1
    )
    offset = NoiseFunctional.from_program(
        grid, [MapTerm(1.0, (MapFactor(0, 0, "poly", (3.0,)),)), ItoTerm(1.0, k1)], degree_cap=1
    )
    entries = {((3, 0, 1),): 0.5, ((3, 0, 1), (70, 0, 2)): 2.0, ((127, 0, 3),): -1.0}
    chaos = NoiseFunctional.from_chaos(ChaosCoefficients(grid, entries, "hermite"))

    def mc(e):
        return (e.value.hex(),), e.stderr

    def npoint(e):
        return (e.mean_density.hex(), _sha(e.coefficients)), e.mean_density_stderr

    return {
        "isometry-1": lambda s, w: mc(isometry_check(grid, k1, s, 101, w).estimate),
        "isometry-2": lambda s, w: mc(isometry_check(grid, k2, s, 102, w).estimate),
        "orthogonality": lambda s, w: mc(orthogonality_check(grid, k1, k2, s, 103, w).estimate),
        "offset": lambda s, w: mc(inner_product_mc(offset, one, s, 104, w)),
        "chaos": lambda s, w: mc(inner_product_mc(chaos, i1, s, 105, w)),
        "dense-1": lambda s, w: mc(isometry_check(grid, dense1, s, 106, w).estimate),
        "dense-2": lambda s, w: mc(isometry_check(grid, dense2, s, 107, w).estimate),
        "npoint-1": lambda s, w: npoint(npoint_density_estimate(i1, 1, s, 108, w)),
        "npoint-2": lambda s, w: npoint(npoint_density_estimate(i2, 2, s, 109, w)),
        "paths": lambda s, w: ((_sha(sample_paths(grid, 2, s, 110, w).increments),), None),
    }


@pytest.mark.parametrize("name, samples, workers", sorted(PINNED))
def test_seeded_outputs_are_pinned(name, samples, workers):
    bits, stderr = _pinned_runs()[name](samples, workers)
    want_bits, want_stderr = PINNED[name, samples, workers]
    assert bits == want_bits
    if want_stderr is not None:
        assert_allclose(stderr, float.fromhex(want_stderr), rtol=1e-14)


@pytest.mark.parametrize("block_paths", [1, 7, 64])
def test_npoint_reduction_does_not_depend_on_block_size(block_paths, monkeypatch):
    # order 1 continues one running axis-0 sum across a chunk's blocks, so
    # the coefficients keep their bits whatever the block holds
    import noisespectra._mc

    i1 = NoiseFunctional.from_family("white-noise-i1", 7)
    want = npoint_density_estimate(i1, 1, 3000, 108, 2)
    monkeypatch.setattr(noisespectra._mc, "BLOCK_FLOATS", block_paths * i1.grid.n_cells)
    got = npoint_density_estimate(i1, 1, 3000, 108, 2)
    assert got.mean_density.hex() == want.mean_density.hex() == "0x1.1e5b656537fc9p+0"
    assert _sha(got.coefficients) == _sha(want.coefficients) == "d1beacd7c700a3f2"
    assert_allclose(got.mean_density_stderr, want.mean_density_stderr, rtol=1e-14)


# npoint order 1 has its own pinned test above; `sample_paths` draws each
# worker's share in one call and never reads BLOCK_FLOATS
@pytest.mark.parametrize("block_paths", [1, 7, 64])
@pytest.mark.parametrize("name", sorted({name for name, _, _ in PINNED} - {"npoint-1", "paths"}))
def test_seeded_outputs_do_not_depend_on_block_size(name, block_paths, monkeypatch):
    # values are drawn in stream order and each chunk sum is formed over the
    # whole chunk, so means and tables keep their bits at any block size
    import noisespectra._mc

    run = _pinned_runs()[name]
    want_bits, want_stderr = run(3000, 2)
    monkeypatch.setattr(noisespectra._mc, "BLOCK_FLOATS", block_paths * 128)  # 128 cells
    got_bits, got_stderr = run(3000, 2)
    assert got_bits == want_bits
    if want_stderr is not None:
        assert_allclose(got_stderr, want_stderr, rtol=1e-14)


def _traced_peak_mib(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["isometry-2", "orthogonality", "npoint-1"])
def test_streamed_working_set_stays_small(name):
    # level 10, 16,384 paths, 2 workers: each worker holds one 2 MiB draw
    # block and one 0.5 MiB tile scratch (5.1-5.9 MiB traced in all); with a
    # (k, n) kernel scratch pair per block they traced 12-13 MiB, and 4 MiB
    # blocks 24 MiB
    grid = TimeGrid(0, 1, 10)
    n = grid.n_cells
    k1, k2 = SimplexKernel.constant(1, n), SimplexKernel.constant(2, n)
    i1 = NoiseFunctional.from_family("white-noise-i1", 10)
    run = {
        "isometry-2": lambda: isometry_check(grid, k2, 16384, 1, 2),
        "orthogonality": lambda: orthogonality_check(grid, k1, k2, 16384, 1, 2),
        "npoint-1": lambda: npoint_density_estimate(i1, 1, 16384, 1, 2),
    }[name]
    assert _traced_peak_mib(run) < 8.0


def test_npoint_order2_holds_two_chunk_tables():
    # one worker, so the peak is one worker's working set: the (8192, 256) z
    # table and its weighted copy, squared in place.  Drawn as a list of
    # blocks, concatenated and squared into fresh arrays, the same run traced
    # 71.1 MiB.
    i2 = NoiseFunctional.from_family("white-noise-i2", 8)
    peak = _traced_peak_mib(lambda: npoint_density_estimate(i2, 2, 16384, 1, 1))
    assert peak <= 0.6 * 71.1


def test_threaded_engine_matches_serial_loop_under_preemption():
    # reference: one serial pass per worker over fixed 8192-path chunks, each
    # drawn in one piece; more workers than cores and a tiny switch interval
    # force the pool threads to interleave
    import sys

    from noisespectra._rng import chunk_bounds, worker_generator
    from noisespectra.functionals import _values_on_increments

    grid = TimeGrid(0, 1, 7)
    n, scale, paths, workers = grid.n_cells, math.sqrt(1 / 128), 20000, 7
    f = NoiseFunctional.from_family("white-noise-i2", 7)
    g = NoiseFunctional.from_family("white-noise-i1", 7)
    total, table = 0.0, []
    for w, (lo, hi) in enumerate(chunk_bounds(paths, workers)):
        rng = worker_generator(5, w)
        for start in range(lo, hi, 8192):
            inc = rng.standard_normal((min(8192, hi - start), n, 1)) * scale
            total += float((_values_on_increments(f, inc) * _values_on_increments(g, inc)).sum())
        table.append(worker_generator(6, w).standard_normal((hi - lo, n, 1)) * scale)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            est = inner_product_mc(f, g, paths, 5, workers)
            assert est.value == total / paths
            paths_table = sample_paths(grid, 1, paths, 6, workers).increments
            assert np.array_equal(paths_table, np.concatenate(table))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers, want", [
    (1, ("32e6a7cd2c5e33bf", "0x1.082cd81f2c533p+0", "0x1.da4d8b5c38c6fp-7")),
    (2, ("ce5bd28840aee825", "0x1.0342d144c789ep+0", "0x1.d3a2e86ffb682p-7")),
    (3, ("efd85a8378d81765", "0x1.09f2634b3a19dp+0", "0x1.dc960be9538a3p-7")),
])
def test_npoint_order1_in_the_draw_block_keeps_every_bit(workers, want):
    # captured when order 1 formed z * f(z) in a chunk-wide scratch; now it is formed in
    # the spent draw block, and the coefficients, the mean and its stderr keep their bits
    i1 = NoiseFunctional.from_family("white-noise-i1", 8)
    e = npoint_density_estimate(i1, 1, 20000, 5, workers)
    assert (_sha(e.coefficients), e.mean_density.hex(), e.mean_density_stderr.hex()) == want
