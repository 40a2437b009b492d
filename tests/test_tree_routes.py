"""Tree-model routes against the node-by-node reference in tree_reference.

The library answers region and sampling queries with one array pass per tree
depth and cut queries with one scan over all depths; the reference walks one
node at a time.  Both read the same layer data, so these tests pin the passes
far past the sizes a dense twin reaches.
"""
import dataclasses
import functools
import hashlib
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_reference as ref
from noisespectra import (
    ElementarySet,
    NoiseFunctional,
    TimeGrid,
    box_count,
    cut_distance,
    interior_cut_distances,
    sample_sets,
    spectral_measure_of,
)
from noisespectra import families
from noisespectra.families import (
    TreeModel,
    _sized_layer,
    _smallest_keys,
    family_model,
    tribes_shape,
)
from noisespectra.spectral import SpectralMeasure

TOL = 1e-12
INSTANCES = [("majority3-iterated", level) for level in range(1, 8)] + [
    ("tribes", level) for level in range(3, 13)
]


def model_of(name, level):
    f = NoiseFunctional.from_family(name, level)
    return family_model(f.grid, f.backend)


@functools.cache
def reference_cuts(name, level):
    """Boundaries with reference prefix and suffix masses: every boundary on
    small trees, 300 seeded ones above."""
    model = model_of(name, level)
    n = model.grid.n_cells
    if name == "majority3-iterated" and level <= 6 or name == "tribes" and level <= 8:
        bs = np.arange(n + 1)
    else:
        bs = np.random.default_rng(level).integers(0, n + 1, size=300)
    prefix = [ref.prefix_mass(model, b) for b in bs.tolist()]
    suffix = [ref.suffix_mass(model, b) for b in bs.tolist()]
    return bs, prefix, suffix


def regions(name, level, grid, rng):
    n = grid.n_cells
    out = [ElementarySet.from_cells(grid, np.flatnonzero(rng.integers(0, 2, size=n)))
           for _ in range(3)]
    # sparse and dense scatter leave fully covered and empty subtrees
    out += [ElementarySet.from_cells(grid, np.flatnonzero(rng.random(n) < p))
            for p in (0.05, 0.95)]
    for _ in range(4):
        lo, hi = sorted(int(x) for x in rng.choice(n + 1, size=2, replace=False))
        out.append(ElementarySet(grid, ((lo, hi),)))
    if name == "tribes" and tribes_shape(level)[2]:
        # the padding cells past the last block never enter a set
        width, blocks, _ = tribes_shape(level)
        used = width * blocks
        out.append(ElementarySet(grid, ((used - 3 * width, n),)))
        out.append(ElementarySet.from_cells(grid, [0, 1, *range(used, n)]))
    return out


# regions reach further than cuts: at Maj3 L10 a half-density scatter has
# about 14,800 ranges, and the reference walks it in under a second
REGION_INSTANCES = INSTANCES + [("majority3-iterated", level) for level in (8, 9, 10)]


@pytest.mark.parametrize("name,level", REGION_INSTANCES)
def test_region_mass_matches_reference(name, level):
    model = model_of(name, level)
    rng = np.random.default_rng(100 + level)
    for region in regions(name, level, model.grid, rng):
        want = ref.subset_mass(model, frozenset(region.cells()))
        assert abs(model.subset_mass(region) - want) <= TOL


def test_tribes_13_regions_match_reference():
    # 910 blocks under the root: an interval enters it through the log1p
    # product form, with ~780 full children and two partial ones
    model = model_of("tribes", 13)
    grid, n = model.grid, model.grid.n_cells
    rng = np.random.default_rng(13)
    cases = [ElementarySet(grid, ((100, 7000),)), ElementarySet(grid, ((5, n - 7),))]
    cases += [ElementarySet.from_cells(grid, np.flatnonzero(rng.random(n) < p))
              for p in (0.05, 0.95)]
    for region in cases:
        want = ref.subset_mass(model, frozenset(region.cells()))
        assert abs(model.subset_mass(region) - want) <= TOL


def loop_route(model):
    """The same tree with every layer on the elementary symmetric loop."""
    return TreeModel(model.grid, [dataclasses.replace(layer, rho=None) for layer in model.layers])


@pytest.mark.parametrize("level", [5, 9, 12, 13])
def test_tribes_closed_form_matches_the_loop_route(level):
    model = model_of("tribes", level)
    loop = loop_route(model)
    grid, n = model.grid, model.grid.n_cells
    rng = np.random.default_rng(1500 + level)
    lo, hi = sorted(int(x) for x in rng.choice(n + 1, size=2, replace=False))
    cases = [ElementarySet(grid, ((lo, hi),)), ElementarySet(grid, ()),
             ElementarySet(grid, ((0, n),))]
    cases += [ElementarySet.from_cells(grid, np.flatnonzero(rng.random(n) < p))
              for p in (0.05, 0.5, 0.95)]
    for region in cases:
        assert abs(model.subset_mass(region) - loop.subset_mass(region)) <= TOL


@given(st.sampled_from(["and", "or"]), st.integers(1, 1000), st.floats(-0.99, 0.99),
       st.integers(0, 2**32 - 1))
def test_sized_layer_closed_form_matches_the_loop(kind, m, mu_in, seed):
    try:
        layer = _sized_layer(kind, m, mu_in)
    except ValueError:  # output almost surely constant at this fan-in
        return
    loop = dataclasses.replace(layer, rho=None)
    rng = np.random.default_rng(seed)
    partial = rng.random((4, m)) < rng.random((4, 1))
    full = [rng.integers(0, m - k + 1) for k in partial.sum(axis=1)]
    x = np.zeros((5, m))
    x[:4][partial] = rng.random(np.count_nonzero(partial))
    # each row's full children take the first columns that hold no partial child
    for row, free, count in zip(x, ~partial, full):
        row[np.flatnonzero(free)[:count]] = 1.0
    # with every child inside, both routes give the whole fraction
    x[4] = 1.0
    partial = np.vstack([partial, np.zeros((1, m), dtype=bool)])
    children = (x == 1.0) & ~partial, partial, x[partial]
    closed = layer.subset_values(*children)
    assert np.max(np.abs(closed - loop.subset_values(*children))) <= TOL
    assert abs(closed[-1] - 1.0) <= TOL


@pytest.mark.parametrize("kind,m,mu_in",
                         [("or", 200, 0.99), ("and", 200, -0.99), ("or", 2000, 0.5)])
def test_sized_layer_of_a_vanishing_rare_side_is_refused(kind, m, mu_in):
    # the rare side's probability underflows to 0, so the output is constant: the
    # fluctuation check refuses the layer
    base = math.log1p(mu_in) if kind == "and" else math.log1p(-mu_in)
    assert math.exp(m * base - m * math.log(2.0)) == 0.0
    with pytest.raises(ValueError, match=r"^combiner output is almost surely constant$"):
        _sized_layer(kind, m, mu_in)


@pytest.mark.parametrize("kind,m,mu_in", [("and", 8, 0.0), ("or", 21, -0.75), ("or", 512, -0.98)])
def test_and_or_partial_children_of_value_0_or_1_keep_their_class(kind, m, mu_in):
    # a partial child whose value is exactly 1 counts as full, one of value 0 as
    # outside: the same bits as the rows that mark them so
    layer = _sized_layer(kind, m, mu_in)
    rng = np.random.default_rng(m)
    partial = rng.random((6, m)) < 0.4
    full = ~partial & (rng.random((6, m)) < 0.5)
    value = rng.random(np.count_nonzero(partial))
    value[::3], value[1::3] = 1.0, 0.0
    x = full.astype(np.float64)
    x[partial] = value
    inner = partial & (x > 0.0) & (x < 1.0)
    want = layer.subset_values(x == 1.0, inner, x[inner])
    assert layer.subset_values(full, partial, value).tobytes() == want.tobytes()


def test_tribes_14_region_masses_are_bounded_and_monotone():
    # 1638 blocks under the root: C(1638, t) overflows a float, the product
    # form never forms it
    model = model_of("tribes", 14)
    grid, n, leaves = model.grid, model.grid.n_cells, model.leaf_count
    rng = np.random.default_rng(14)
    keys = rng.random(n)
    nested = [[ElementarySet.from_cells(grid, np.flatnonzero(keys < p))
               for p in (0.0, 0.05, 0.5, 0.95, 1.0)],
              [ElementarySet(grid, ((lo, hi),))
               for lo, hi in ((8000, 8001), (7000, 9000), (100, 16000), (0, leaves))]]
    for chain in nested:
        masses = [model.subset_mass(region) for region in chain]
        assert all(math.isfinite(m) for m in masses)
        assert all(model.empty_mass <= m <= model.total_mass for m in masses)
        assert masses == sorted(masses)
    assert model.subset_mass(ElementarySet(grid, ((0, leaves),))) == model.total_mass
    assert model.subset_mass(ElementarySet(grid, ((0, n),))) == model.total_mass


@pytest.mark.parametrize("name,level", [("majority3-iterated", 8), ("tribes", 12)])
def test_blocked_cut_pass_equals_per_boundary_prefix_masses(name, level, monkeypatch):
    model = model_of(name, level)
    n = model.grid.n_cells
    bs = np.random.default_rng(level).integers(0, n + 1, size=200)
    bs[:3] = (0, n, model.leaf_count)
    want = model.cut_masses(bs)
    monkeypatch.setattr(families, "CUT_BLOCK", 7)
    prefix, suffix = model.cut_masses(bs)
    assert prefix.tolist() == [model.prefix_mass(b) for b in bs.tolist()]
    clipped = np.minimum(bs, model.leaf_count)
    assert suffix.tolist() == [model.prefix_mass(model.leaf_count - b) for b in clipped.tolist()]
    assert prefix.tolist() == want[0].tolist() and suffix.tolist() == want[1].tolist()


@pytest.mark.parametrize("name,level", INSTANCES)
def test_cut_masses_match_reference(name, level):
    model = model_of(name, level)
    bs, want_prefix, want_suffix = reference_cuts(name, level)
    prefix, suffix = model.cut_masses(bs)
    assert np.max(np.abs(prefix - want_prefix)) <= TOL
    assert np.max(np.abs(suffix - want_suffix)) <= TOL
    assert [model.prefix_mass(b) for b in bs.tolist()] == prefix.tolist()


@pytest.mark.parametrize("name,levels", [("majority3-iterated", range(1, 13)),
                                         ("tribes", range(3, 17))])
def test_cut_coeffs_match_the_exact_ratio_reference(name, levels):
    # from tribes L14 on, C(m, t) of the root's fan-in overflows a float;
    # the reference takes each binomial ratio as an exact int/int division
    for level in levels:
        for layer in model_of(name, level).layers:
            m = layer.fanin
            alpha, beta = layer.cut_coeffs
            for full in sorted({0, 1, 2, m // 3, m // 2, m - 2, m - 1, m} & set(range(m + 1))):
                want_alpha, want_beta = ref.prefix_coeffs(layer, full)
                assert abs(alpha[full] - want_alpha) <= TOL, (level, m, full)
                assert abs(beta[full] - want_beta) <= TOL, (level, m, full)


def test_tribes_14_cut_masses_match_reference():
    model = model_of("tribes", 14)
    n = model.grid.n_cells
    bs = np.random.default_rng(14).integers(0, n + 1, size=8)
    bs = np.append(bs, [1, model.leaf_count - 1])
    prefix, suffix = model.cut_masses(bs)
    for b, left, right in zip(bs.tolist(), prefix, suffix):
        assert abs(left - ref.prefix_mass(model, b)) <= TOL, b
        assert abs(right - ref.suffix_mass(model, b)) <= TOL, b


@pytest.mark.parametrize("level", [14, 15, 16])
def test_tribes_cuts_answer_past_level_13(level):
    mu = spectral_measure_of(NoiseFunctional.from_family("tribes", level))
    distances = interior_cut_distances(mu)
    assert distances.shape == (2**level - 1,)
    assert np.all(np.isfinite(distances) & (distances >= 0.0) & (distances <= 1.0))


@pytest.mark.parametrize("name,level", INSTANCES)
def test_interior_cut_distances_match_per_boundary(name, level):
    model = model_of(name, level)
    grid = model.grid
    mu = SpectralMeasure(grid, None, model=model)  # model-backed even below the dense cap
    distances = interior_cut_distances(mu)
    assert distances.shape == (grid.n_cells - 1,)
    bs, want_prefix, want_suffix = reference_cuts(name, level)
    for b, left, right in zip(bs.tolist(), want_prefix, want_suffix):
        d = cut_distance(mu, grid.boundary(b))
        if not 0 < b < grid.n_cells:
            assert d == 0.0
            continue
        assert abs(distances[b - 1] - d) <= TOL
        straddle = model.total_mass - left - right + model.empty_mass
        assert abs(d * d - straddle) <= TOL


def test_prefix_and_region_routes_are_independent(monkeypatch):
    # the benchmark compares prefix_mass with a one-interval subset_mass;
    # that check means something only while neither calls the other
    model = model_of("majority3-iterated", 5)
    want_prefix = model.prefix_mass(100)
    region = ElementarySet(model.grid, ((0, 100),))
    want_region = model.subset_mass(region)

    def refuse(*args, **kwargs):
        raise AssertionError("routes must not call each other")

    monkeypatch.setattr(TreeModel, "subset_mass", refuse)
    assert model.prefix_mass(100) == want_prefix
    monkeypatch.undo()
    monkeypatch.setattr(TreeModel, "prefix_mass", refuse)
    monkeypatch.setattr(TreeModel, "cut_masses", refuse)
    assert model.subset_mass(region) == want_region
    assert abs(want_prefix - want_region) <= TOL


@pytest.mark.parametrize("sampler", ["library", "reference"])
@pytest.mark.parametrize("name,level", [("majority3-iterated", 5), ("tribes", 9),
                                        ("tribes", 12)])
def test_sampled_sizes_match_the_cardinality_profile(name, level, sampler):
    """Mean draw size within five standard errors of the exact profile mean."""
    model = model_of(name, level)
    k = 2000
    draws = model.sample(k, seed=17) if sampler == "library" else ref.sample(model, k, seed=17)
    profile = model.cardinality_profile()
    sizes = np.array(list(profile), dtype=np.float64)
    p = np.array(list(profile.values())) / model.total_mass
    mean = float(p @ sizes)
    var = float(p @ (sizes - mean) ** 2)
    z = (np.mean([len(d) for d in draws]) - mean) / math.sqrt(var / k)
    assert abs(z) <= 5.0
    assert all(not d or d[-1] < model.leaf_count for d in draws)
    assert all(list(d) == sorted(set(d)) for d in draws)


def test_box_counts_follow_galton_watson_far_past_the_dense_cap():
    """At Maj3 L12 the live boxes at depth j form a Galton-Watson generation.

    Each live node keeps one child with probability 3/4 and all three with
    probability 1/4, so the mean count is (3/2)**j with variance
    (3/4) (3/2)**(j-1) ((3/2)**j - 1) / (1/2).
    """
    mu = spectral_measure_of(NoiseFunctional.from_family("majority3-iterated", 12))
    k = 4000
    sets = sample_sets(mu, k, seed=23)
    m, var1 = 1.5, 0.75
    for j in range(2, 11):
        counts = [box_count(s, j) for s in sets]
        var = var1 * m ** (j - 1) * (m**j - 1) / (m - 1)
        z = (float(np.mean(counts)) - m**j) / math.sqrt(var / k)
        assert abs(z) <= 5.0, (j, z)


def test_all_cuts_at_maj3_level_12_in_one_pass():
    mu = spectral_measure_of(NoiseFunctional.from_family("majority3-iterated", 12))
    distances = interior_cut_distances(mu)
    assert distances.shape == (3**12 - 1,)
    assert np.all((distances > 0.0) & (distances <= 1.0))
    # cuts mirrored about the middle see mirrored trees
    assert np.allclose(distances, distances[::-1], rtol=0, atol=1e-13)


def test_cardinality_profile_at_maj3_level_12():
    # sizes past about 8,500 underflow to zero mass and are left out; what
    # remains still carries all the mass, with mean size (3/2)**12
    model = model_of("majority3-iterated", 12)
    profile = model.cardinality_profile()
    assert abs(sum(profile.values()) - model.total_mass) <= TOL
    mean = sum(k * v for k, v in profile.items())
    assert abs(mean / 1.5**12 - 1.0) <= TOL
    assert profile[1] == model.singleton_mass()


def test_tribes_profiles_to_level_16_sum_to_one_in_well_under_a_second():
    # the and/or layers' q underflows to zero far below their fanin, and the
    # profile forms no power of a size past the last nonzero q[t]
    models = [model_of("tribes", level) for level in (14, 15, 16)]
    started = time.perf_counter()
    for model in models:
        assert abs(sum(model.cardinality_profile().values()) - model.total_mass) <= TOL
    assert time.perf_counter() - started < 1.0


EXACT_INSTANCES = [("majority3-iterated", level) for level in range(1, 7)] + [
    ("tribes", level) for level in range(1, 7)
]


@pytest.mark.parametrize("name,level", EXACT_INSTANCES)
def test_cut_and_region_masses_match_the_exact_fraction_oracle(name, level):
    """Every cut and seeded regions against Fractions built from the combiners'
    truth tables: a check of the layers' q and of both float routes."""
    model = model_of(name, level)
    grid, n = model.grid, model.grid.n_cells
    backend = NoiseFunctional.from_family(name, level).backend
    tree = ref.exact_tree(families._tree_specs(grid, backend))
    empty, fluct, layers = tree
    assert abs(model.empty_mass - empty) <= TOL and abs(model.fluctuation_mass - fluct) <= TOL
    for layer, (m, w) in zip(model.layers, layers):
        exact_q = [math.comb(m, t) * w[t] for t in range(m + 1)]
        assert np.max(np.abs(layer.q - np.array(exact_q, dtype=np.float64))) <= TOL
    bs = np.arange(n + 1)
    prefix, suffix = model.cut_masses(bs)
    for b, left, right in zip(bs.tolist(), prefix, suffix):
        assert abs(left - ref.exact_subset_mass(tree, [(0, b)])) <= TOL, b
        assert abs(right - ref.exact_subset_mass(tree, [(b, n)])) <= TOL, b
    for region in regions(name, level, grid, np.random.default_rng(600 + level)):
        want = ref.exact_subset_mass(tree, region.ranges)
        assert abs(model.subset_mass(region) - want) <= TOL, region


# region masses at HEAD of the routes' rewrite: seeded prefixes, intervals and
# 5%, 50% and 95% scatters, hashed as float64 bytes
REGION_DIGESTS = {
    ("majority3-iterated", 8): "85d1fe09292288c7",
    ("majority3-iterated", 12): "6fdee9b981863714",
    ("tribes", 12): "5fd9bc97fa3da41f",
    ("tribes", 14): "f13ccae3890ed029",
}


@pytest.mark.parametrize("name,level", sorted(REGION_DIGESTS))
def test_region_mass_bits_are_pinned(name, level):
    model = model_of(name, level)
    grid, n = model.grid, model.grid.n_cells
    rng = np.random.default_rng(level)
    cases = [((0, b),) for b in rng.integers(1, n, size=6).tolist()]
    cases += [(tuple(sorted(rng.choice(n + 1, size=2, replace=False).tolist())),)
              for _ in range(6)]
    regions = [ElementarySet(grid, ranges) for ranges in cases]
    regions += [ElementarySet.from_cells(grid, np.flatnonzero(rng.random(n) < p))
                for p in (0.05, 0.5, 0.95)]
    masses = np.array([model.subset_mass(region) for region in regions])
    assert digest(masses.tobytes()) == REGION_DIGESTS[name, level]


# bit pins: a change to the layer arithmetic that moves any bit of these
# cut distances, profiles or seeded tribes draws must show up here
MAJ3_DIGESTS = {  # level: (interior cut distances, cardinality profile)
    1: ("606e5166986dd9f1", "1be6e6b07855a719"),
    2: ("b0850bf187a1da28", "43a7233403d8f656"),
    3: ("b76910cab8cfee24", "bc918bc8f04ec43d"),
    4: ("438ed4c798d2e670", "3dd37103498a9566"),
    5: ("1b5fed3919a2223d", "276f810b4528cf68"),
    6: ("7ff198bbc21ea00e", "eb784e52f9e7d351"),
    7: ("0abde2fde4108ef4", "e622d69f2d73aa6d"),
    8: ("8f7553571e40c65e", "2356b62446d44f22"),
    9: ("f4161cb22640ee11", "89f6683f8d147ce4"),
    10: ("e7114639f1079836", "33e5deef132b74c3"),
    11: ("96477e9888a875d4", "eecc3594d3c738d5"),
    12: ("91b68029ef331516", "3aad15ae3a8c886d"),
}
TRIBES_DRAW_DIGESTS = {5: "356e52459c8fb56b", 9: "a06486bf37d22a28", 12: "b8a6094f5a869e3c"}
# 200 seeded Maj3 draws per level (seed = level); both child-pick routes must keep them
MAJ3_DRAW_DIGESTS = {5: "f5901aa3d9833e69", 8: "cbb623113be260a5", 12: "915131cc1ad71a15"}


def digest(data) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("level", sorted(MAJ3_DIGESTS))
def test_maj3_cut_and_profile_bits_are_pinned(level):
    model = model_of("majority3-iterated", level)
    distances = interior_cut_distances(SpectralMeasure(model.grid, None, model=model))
    profile = np.array(sorted(model.cardinality_profile().items()), dtype=np.float64)
    assert (digest(distances.tobytes()), digest(profile.tobytes())) == MAJ3_DIGESTS[level]


@pytest.mark.parametrize("level", sorted(TRIBES_DRAW_DIGESTS))
def test_seeded_tribes_draws_are_pinned(level):
    draws = model_of("tribes", level).sample(200, seed=level)
    assert digest(repr(draws).encode()) == TRIBES_DRAW_DIGESTS[level]


@pytest.mark.parametrize("level", sorted(MAJ3_DRAW_DIGESTS))
def test_seeded_maj3_draws_are_pinned(level):
    draws = model_of("majority3-iterated", level).sample(200, seed=level)
    assert digest(repr(draws).encode()) == MAJ3_DRAW_DIGESTS[level]


def broadcast_picks(keys, sizes):
    """The counting route before column comparisons: one row broadcast per column."""
    below = np.zeros(keys.shape, dtype=np.uint8)
    for j in range(keys.shape[1]):
        below += keys[:, j : j + 1] < keys
    return below < sizes


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 8, 512]), st.integers(2, 8))
def test_child_picks_equal_the_kth_smallest_rule(seed, fanin, levels):
    """Both pick routes give `keys <= kth`; few key values force ties."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, levels, size=(40, fanin)) / levels
    sizes = rng.integers(1, fanin + 1, size=(40, 1))
    kth = np.take_along_axis(np.sort(keys, axis=1), sizes - 1, axis=1)
    assert np.array_equal(_smallest_keys(keys, sizes), keys <= kth)
    if fanin < 256:  # the counting route, whatever the cutoff
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(families, "SORT_FREE_FANIN", 255)
            assert np.array_equal(_smallest_keys(keys, sizes), keys <= kth)
            assert np.array_equal(_smallest_keys(keys, sizes), broadcast_picks(keys, sizes))


# ---------------------------------------------------------------------------
# the depth scan, the one-key sampler and the interpolated region counts against
# the routes they replaced, bit for bit


def per_depth_cut_mass(model, cut):
    """Cut masses by one array step per depth, as computed before the depth scan."""
    frac = np.zeros(cut.shape)
    scale = np.ones(cut.shape)
    rem = cut
    for layer, child_span in model._levels():
        alpha, beta = layer.cut_coeffs
        full, rem = np.divmod(rem, child_span)
        frac += scale * alpha[full]
        scale = np.where(rem > 0, scale * beta[full], 0.0)
    frac[cut >= model.leaf_count] = 1.0
    return model.empty_mass + model.fluctuation_mass * frac


def per_depth_sample(model, k, seed):
    """Draws with owner and first-leaf arrays gathered apart and picks counted by
    `broadcast_picks`, as drawn before the one-key sampler."""
    rng = families.worker_generator(seed, 0)
    owner = np.flatnonzero(rng.random(k) >= model.empty_mass / model.total_mass)
    first = np.zeros(owner.shape, dtype=np.int64)
    for layer, child_span in model._levels():
        m, cdf, nodes = layer.fanin, layer.size_cdf, len(owner)
        sizes = np.minimum(np.searchsorted(cdf, rng.random(nodes) * cdf[-1], side="right"), m)
        picked = np.empty((nodes, m), dtype=bool)
        step = max(1, (1 << 20) // m)
        for s in range(0, nodes, step):
            keys = rng.random((min(step, nodes - s), m))
            block = sizes[s : s + step, None]
            if m <= families.SORT_FREE_FANIN:
                picked[s : s + step] = broadcast_picks(keys, block)
            else:
                picked[s : s + step] = keys <= np.take_along_axis(np.sort(keys, axis=1),
                                                                  block - 1, axis=1)
        rows, cols = np.divmod(np.flatnonzero(picked), m)
        owner, first = owner[rows], first[rows] + cols * child_span
    cells = first.tolist()
    ends = np.cumsum(np.bincount(owner, minlength=k)).tolist()
    return [tuple(cells[a:b]) for a, b in zip([0, *ends], ends)]


@pytest.mark.parametrize("name,level", [("majority3-iterated", level) for level in range(1, 11)]
                         + [("tribes", level) for level in range(2, 15)])
def test_depth_scan_equals_the_per_depth_loop_at_every_boundary(name, level):
    """Every boundary in one call (Maj3 L9-L10 and tribes L14 span several CUT_BLOCK
    passes), then 1-D prefix input and single boundaries, which run the column route."""
    model = model_of(name, level)
    n, leaves = model.grid.n_cells, model.leaf_count
    bs = np.arange(n + 1)
    cut = np.minimum(bs, leaves)
    prefix, suffix = model.cut_masses(bs)
    assert prefix.tolist() == per_depth_cut_mass(model, cut).tolist()
    assert suffix.tolist() == per_depth_cut_mass(model, leaves - cut).tolist()
    if (name, level) in (("majority3-iterated", 10), ("tribes", 14)):
        assert n + 1 > families.CUT_BLOCK
    if n > 300:
        bs = np.append(np.random.default_rng(level).integers(0, n + 1, size=300), [n, leaves])
    cut = np.minimum(bs, leaves)
    assert [model.prefix_mass(b) for b in bs.tolist()] == per_depth_cut_mass(model, cut).tolist()
    single = [model.cut_masses([b]) for b in bs.tolist()]
    assert [left[0] for left, _ in single] == per_depth_cut_mass(model, cut).tolist()
    assert [right[0] for _, right in single] == per_depth_cut_mass(model, leaves - cut).tolist()


@pytest.mark.parametrize("level", [6, 7, 11, 12])
def test_depth_scan_keeps_the_whole_tree_at_exactly_all_the_mass(level):
    # on the loop route the root's alpha at full count rounds off 1; the per-depth
    # loop set the cut past every leaf to all the mass, and the scan must too
    model = loop_route(model_of("tribes", level))
    assert model.layers[0].cut_coeffs[0][-1] != 1.0
    n, leaves = model.grid.n_cells, model.leaf_count
    cut = np.minimum(np.arange(n + 1), leaves)
    prefix, suffix = model.cut_masses(np.arange(n + 1))
    assert prefix.tolist() == per_depth_cut_mass(model, cut).tolist()
    assert suffix.tolist() == per_depth_cut_mass(model, leaves - cut).tolist()
    whole = per_depth_cut_mass(model, np.array([leaves]))[0]
    assert model.prefix_mass(n) == model.prefix_mass(leaves) == whole


@pytest.mark.parametrize("k", [1, 64, 2000])
@pytest.mark.parametrize("name,level", [("majority3-iterated", 5), ("majority3-iterated", 12),
                                        ("tribes", 9), ("tribes", 12)])
def test_one_key_sampler_equals_the_per_depth_loop(name, level, k):
    model = model_of(name, level)
    for seed in (0, 7):
        assert model.sample(k, seed) == per_depth_sample(model, k, seed)


def searchsorted_subset_mass(model, ranges):
    """Region masses by the descent before interpolated counts: a node's region cells are
    whole ranges below it (a searchsorted on range ends) plus the part of the range it cuts."""
    flat = np.fromiter(itertools.chain.from_iterable(ranges), dtype=np.int64)
    lo, hi = np.minimum(flat.reshape(-1, 2), model.leaf_count).T
    before = np.concatenate([[0], np.cumsum(hi - lo)])
    lo = np.append(lo, model.leaf_count)

    def covered(x):
        k = np.searchsorted(hi, x, side="right")
        return before[k] + np.maximum(x - lo[k], 0)

    if before[-1] == 0:
        return model.empty_mass
    if before[-1] == model.leaf_count:
        return model.empty_mass + model.fluctuation_mass
    nodes = np.zeros(1, dtype=np.int64)
    levels = []
    for layer, child_span in model._levels():
        starts = nodes[:, None] + child_span * np.arange(layer.fanin + 1)
        counts = np.diff(covered(starts), axis=1)
        partial = (counts > 0) & (counts < child_span)
        levels.append((layer, counts == child_span, partial))
        nodes = starts[:, :-1][partial]
        if not nodes.size:
            break
    value = np.zeros(0)
    for layer, full, partial in reversed(levels):
        value = layer.subset_values(full, partial, value)
    return model.empty_mass + model.fluctuation_mass * float(value[0])


def edge_regions(model, rng):
    """Regions at the edges of the count route: empty and full, single end cells, ranges
    ending on a node boundary at every depth, ranges into the ignored cells past the
    leaves, and 5%, 50% and 95% scatters, which keep `from_cells`' own bounds."""
    grid, n, leaves = model.grid, model.grid.n_cells, model.leaf_count
    cases = [(), ((0, n),), ((0, leaves),), ((0, 1),), ((leaves - 1, leaves),),
             ((0, 1), (leaves - 1, leaves))]
    for span in model.spans[1:]:
        k = int(rng.integers(0, leaves // span))
        a, b = k * span, (k + 1) * span
        cases += [((a, b),), ((0, b),), ((b, leaves),), ((a + span // 2, b),)]
        if b < leaves:  # two ranges that meet at a node boundary
            cases.append(((int(rng.integers(0, b)), b), (b, int(rng.integers(b, leaves)) + 1)))
    # one range per depth, left to right, each from one cell past the last to the
    # first node boundary of that depth above it
    ranges, end = [], 0
    for span in model.spans[1:]:
        lo = end + 1
        end = (lo // span + 1) * span
        if end > leaves:
            break
        ranges.append((lo, end))
    cases.append(tuple(ranges))
    if leaves < n:
        cases += [((leaves - 3, n),), ((leaves, n),), ((0, 1), (leaves + 1, n)),
                  ((leaves - 1, leaves + 1),)]
    scatters = [np.flatnonzero(rng.random(n) < p) for p in (0.05, 0.5, 0.95)]
    return ([ElementarySet(grid, ranges) for ranges in cases]
            + [ElementarySet.from_cells(grid, cells) for cells in scatters])


@pytest.mark.parametrize("name,level", [("majority3-iterated", level) for level in range(1, 10)]
                         + [("tribes", level) for level in range(2, 15)])
def test_interpolated_counts_equal_the_searchsorted_descent(name, level):
    model = model_of(name, level)
    rng = np.random.default_rng(4000 + level)
    cases = edge_regions(model, rng)
    got = np.array([model.subset_mass(region) for region in cases])
    want = np.array([searchsorted_subset_mass(model, region.ranges) for region in cases])
    assert got.tobytes() == want.tobytes()


# region masses from int64 bounds and the fan-in-3 closed form, and draws whose
# size uniforms and first key block come from one call, against the routes they
# replaced, bit for bit


def recurrence_values(layer, full, partial, value):
    """Majority subset values by the elementary symmetric recurrence at every fan-in."""
    x = full.astype(np.float64)
    x[partial] = value
    e = np.zeros((layer.fanin + 1, len(x)))
    e[0] = 1.0
    for i, xi in enumerate(x.T):
        e[1 : i + 2] += xi * e[: i + 1]
    return layer.weights[1:] @ e[1:]


def tuple_route_subset_mass(model, ranges):
    """Region masses read from range tuples, per-call child starts and the recurrence
    on every majority layer, as computed before bounds and the closed form."""
    flat = np.fromiter(itertools.chain.from_iterable(ranges), dtype=np.int64)
    ends = np.minimum(flat, model.leaf_count, dtype=np.float64)
    below = np.zeros(len(ends))
    below[1::2] = ends[1::2] - ends[::2]
    np.cumsum(below, out=below)
    if not below.any():
        return model.empty_mass
    if below[-1] == model.leaf_count:
        return model.empty_mass + model.fluctuation_mass
    nodes, levels = np.zeros(1), []
    for layer, child_span in model._levels():
        starts = nodes[:, None] + child_span * np.arange(layer.fanin + 1)
        below_starts = np.interp(starts, ends, below)
        counts = below_starts[:, 1:] - below_starts[:, :-1]
        full = counts == child_span
        partial = (counts > 0) ^ full
        levels.append((layer, full, partial))
        nodes = starts[:, :-1][partial]
        if not nodes.size:
            break
    value = np.zeros(0)
    for layer, full, partial in reversed(levels):
        route = layer.subset_values if layer.rho is not None else functools.partial(
            recurrence_values, layer)
        value = route(full, partial, value)
    return model.empty_mass + model.fluctuation_mass * float(value[0])


@pytest.mark.parametrize("name,level", [("majority3-iterated", level) for level in range(1, 10)]
                         + [("tribes", level) for level in range(2, 15)])
def test_bounds_and_closed_form_equal_the_tuple_route(name, level):
    model = model_of(name, level)
    cases = edge_regions(model, np.random.default_rng(5000 + level))
    for region in cases:  # every set's bounds are its ranges laid flat, built once
        assert region.bounds.dtype == np.int64 and not region.bounds.flags.writeable
        assert region.bounds.tolist() == list(itertools.chain.from_iterable(region.ranges))
        assert region.bounds is region.bounds
    got = np.array([model.subset_mass(region) for region in cases])
    want = np.array([tuple_route_subset_mass(model, region.ranges) for region in cases])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mu_in", [0.0, 0.3, -0.6])
def test_fanin_3_closed_form_equals_the_recurrence_on_rows(mu_in):
    # biased inputs give size-2 subsets weight, which unbiased Maj3 layers lack
    layer = families._majority_layer(3, mu_in)
    assert bool(layer.weights[2]) == (mu_in != 0.0)
    rng = np.random.default_rng(3)
    partial = rng.random((500, 3)) < 0.5
    full = ~partial & (rng.random((500, 3)) < 0.5)
    value = rng.random(np.count_nonzero(partial))
    value[::7], value[1::7] = 0.0, 1.0
    got = layer.subset_values(full, partial, value)
    assert got.tobytes() == recurrence_values(layer, full, partial, value).tobytes()


def test_majority_fanin_5_takes_the_recurrence():
    grid = TimeGrid(0, 1, 4, base=5)
    model = TreeModel(grid, families.build_layers([("majority", 5)] * 4))
    assert model.layers[0].fanin == 5 and model.layers[0].rho is None
    cases = edge_regions(model, np.random.default_rng(5))
    got = np.array([model.subset_mass(region) for region in cases])
    want = np.array([tuple_route_subset_mass(model, region.ranges) for region in cases])
    assert got.tobytes() == want.tobytes()
    for region in cases[-3:]:
        want = ref.subset_mass(model, frozenset(region.cells()))
        assert abs(model.subset_mass(region) - want) <= TOL


def two_call_sample(model, k, seed):
    """Draws whose sizes and keys come from separate calls, split by `np.divmod`."""
    rng = families.worker_generator(seed, 0)
    key = np.flatnonzero(rng.random(k) >= model.empty_mass / model.total_mass) * model.leaf_count
    for layer, child_span in model._levels():
        m, cdf, nodes = layer.fanin, layer.size_cdf, len(key)
        sizes = np.searchsorted(cdf[:-1], rng.random(nodes) * cdf[-1], side="right")
        picks, step = np.empty((nodes, m), dtype=bool), max(1, (1 << 20) // m)
        for s in range(0, nodes, step):
            block = picks[s : s + step]
            block[...] = _smallest_keys(rng.random(block.shape), sizes[s : s + step, None])
        rows, cols = np.divmod(np.flatnonzero(picks), m)
        key = key[rows] + cols * child_span
    ends = np.searchsorted(key, model.leaf_count * np.arange(1, k + 1)).tolist()
    cells = (key % model.leaf_count).tolist()
    return [tuple(cells[a:b]) for a, b in zip([0, *ends], ends)]


@pytest.mark.parametrize("name,level,k", [
    ("majority3-iterated", 12, 64), ("majority3-iterated", 12, 20_000), ("tribes", 12, 64),
    ("tribes", 12, 20_000), ("tribes", 14, 64), ("tribes", 14, 2_000)])
def test_one_call_draws_equal_the_two_call_draws(name, level, k):
    # Maj3 L12's deepest layers at 20,000 draws and tribes L14's 1638-way root at 2,000
    # span several key blocks, so the blocks after the first still draw their own keys
    model = model_of(name, level)
    assert model.sample(k, seed=k + level) == two_call_sample(model, k, seed=k + level)
