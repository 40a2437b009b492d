"""Named families: dense brute force against the tree-model closed forms.

Every exact query a TreeModel answers (totals, singletons, cardinality
profile, subset, prefix and straddle masses, sampling) is checked here against the
full Walsh decomposition of the materialized function at sizes where both
routes exist.
"""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noisespectra import (
    ElementarySet,
    NoiseFunctional,
    TimeGrid,
    cardinality_profile,
    cut_distance,
    mass_of_subsets_of,
    sample_sets,
    singleton_mass,
    spectral_measure_of,
    straddle_mass,
)
from noisespectra.families import (
    _majority_layer,
    calibration_measure,
    family_mean,
    family_model,
    family_names,
    family_values,
    make_functional,
    tribes_shape,
)
from noisespectra.functionals import (BackendError, FamilyRef, evaluate, evaluate_table,
                                      expectation, norm_sq)
from test_merged_routes import old_sign_table


def dense_twin(f):
    """Same function as a value table, losing the family tag."""
    return NoiseFunctional.from_table(f.grid, family_values(f.grid, f.backend))


def test_family_names_construct():
    for name in family_names():
        level = 2 if name != "majority3-iterated" else 1
        f = make_functional(name, level)
        assert f.grid.n_cells >= 2


def test_unknown_family_and_params():
    with pytest.raises(ValueError):
        make_functional("no-such", 3)
    with pytest.raises(ValueError):
        make_functional("parity", 3, unexpected=1)


TREE_FAMILIES = {"majority3-iterated", "tribes"}


def test_family_names_keep_their_order():
    assert family_names() == ["single-coordinate", "parity", "coordinate-sum",
                              "majority3-iterated", "tribes", "white-noise-i1", "white-noise-i2"]


@pytest.mark.parametrize("name", family_names())
def test_family_parameter_rules(name):
    tree = name in TREE_FAMILIES
    # a tree family lives on its own base; every other family takes base=
    if tree:
        with pytest.raises(ValueError, match=r"unexpected parameters \['base'\]"):
            make_functional(name, 2, base=3)
    else:
        assert make_functional(name, 2, base=3).grid.n_cells == 9
        assert make_functional(name, 2).grid.n_cells == 4
    # cell= is single-coordinate's alone, and no family takes an unknown keyword
    if name == "single-coordinate":
        assert make_functional(name, 2, cell=3).backend.entries == {(3,): 1.0}
    else:
        with pytest.raises(ValueError, match=r"unexpected parameters \['cell'\]"):
            make_functional(name, 2, cell=0)
    with pytest.raises(ValueError, match=r"unexpected parameters \['unknown'\]"):
        make_functional(name, 2, unknown=1)
    # a tree has at least one depth; no family has a negative level
    if tree:
        with pytest.raises(ValueError, match=f"{name} needs level >= 1"):
            make_functional(name, 0)
    else:
        assert make_functional(name, 0).grid.n_cells == 1
    with pytest.raises(ValueError, match="level must be nonnegative"):
        make_functional(name, -1)


def test_unknown_family_names_every_family():
    with pytest.raises(ValueError, match="unknown family 'no-such'") as err:
        make_functional("no-such", 3)
    assert all(name in str(err.value) for name in family_names())


@pytest.mark.parametrize("name", ["parity", "no-such"])
def test_hand_built_ref_of_no_tree_is_refused(name):
    """Only a tree family has a model, a table, a mean and an evaluator; below the dense cap
    and above it (81 cells), every route refuses any other name."""
    for grid in (TimeGrid(0, 1, 3), TimeGrid(0, 1, 4, base=3)):
        with pytest.raises(BackendError, match="not tree-structured"):
            spectral_measure_of(NoiseFunctional(grid, FamilyRef(name, 3)))
    f = NoiseFunctional(TimeGrid(0, 1, 3), FamilyRef(name, 3))
    for route in (norm_sq, expectation, evaluate_table, lambda f: evaluate(f, np.ones(8))):
        with pytest.raises(BackendError, match="not tree-structured"):
            route(f)


def test_single_coordinate_and_sums():
    f = make_functional("single-coordinate", 3, cell=5)
    assert f.backend.entries == {(5,): 1.0}
    assert make_functional("single-coordinate", 3, cell=np.int64(7)).backend.entries == {
        (7,): 1.0}
    for bad in (8, -1, 1.7, 1.0, True, "1"):
        with pytest.raises(ValueError, match="cell must be an integer in 0..7"):
            make_functional("single-coordinate", 3, cell=bad)
    p = make_functional("parity", 2)
    assert set(p.backend.entries) == {(0, 1, 2, 3)}
    s = make_functional("coordinate-sum", 2)
    assert_allclose(norm_sq(s), 1.0, rtol=1e-12)
    mu = spectral_measure_of(s)
    assert_allclose(singleton_mass(mu), mu.total_mass, rtol=1e-12)


def test_majority_semantics():
    f = make_functional("majority3-iterated", 1)
    assert f.grid.base == 3
    for omega in itertools.product((-1.0, 1.0), repeat=3):
        want = 1.0 if sum(omega) > 0 else -1.0
        assert evaluate(f, np.array(omega)) == want


def test_tribes_semantics():
    f = make_functional("tribes", 4)
    width, blocks, ignored = tribes_shape(4)
    assert (width, blocks) == (2, 8)
    assert ignored == 0
    rng = np.random.default_rng(0)
    for _ in range(50):
        om = rng.choice([-1.0, 1.0], size=16)
        used = om[: width * blocks].reshape(blocks, width)
        want = 1.0 if ((used == 1.0).all(axis=1)).any() else -1.0
        assert evaluate(f, om) == want


def test_tribes_shape_properties():
    for level in range(1, 12):
        width, blocks, ignored = tribes_shape(level)
        assert width >= 1 and blocks >= 1
        assert width * blocks + ignored == 1 << level
        assert ignored < width


@pytest.mark.parametrize(
    "name,level",
    [("majority3-iterated", 1), ("majority3-iterated", 2), ("tribes", 3), ("tribes", 4)],
)
def test_model_totals_match_dense(name, level):
    f = make_functional(name, level)
    model = family_model(f.grid, f.backend)
    mu = spectral_measure_of(dense_twin(f))
    assert_allclose(model.empty_mass, mu.empty_atom, atol=1e-14)
    assert_allclose(model.total_mass, mu.total_mass, rtol=1e-12)
    assert_allclose(model.singleton_mass(), singleton_mass(mu), atol=1e-13)
    dense_profile = cardinality_profile(mu)  # empty atom included at key 0
    model_profile = model.cardinality_profile()
    for k in set(dense_profile) | set(model_profile):
        assert abs(dense_profile.get(k, 0.0) - model_profile.get(k, 0.0)) < 1e-13


@pytest.mark.parametrize(
    "name,level", [("majority3-iterated", 2), ("tribes", 4)]
)
def test_model_subset_and_prefix_match_dense(name, level):
    f = make_functional(name, level)
    model = family_model(f.grid, f.backend)
    mu = spectral_measure_of(dense_twin(f))
    n = f.grid.n_cells
    rng = np.random.default_rng(7)
    for _ in range(25):
        region = ElementarySet.from_cells(f.grid, np.flatnonzero(rng.integers(0, 2, size=n)))
        assert abs(model.subset_mass(region) - mass_of_subsets_of(mu, region)) < 1e-12
    prefix, suffix = model.cut_masses(np.arange(n + 1))
    for b in range(n + 1):
        left = mass_of_subsets_of(mu, ElementarySet.from_cells(f.grid, range(b)))
        right = mass_of_subsets_of(mu, ElementarySet.from_cells(f.grid, range(b, n)))
        assert abs(model.prefix_mass(b) - left) < 1e-12
        assert abs(prefix[b] - left) < 1e-12 and abs(suffix[b] - right) < 1e-12
    straddles = model.straddle_masses(np.arange(n + 1))
    for b in range(n + 1):
        assert abs(straddles[b] - straddle_mass(mu, b)) < 1e-12


def test_majority_singleton_recursion():
    # exact dense values: total one-cell mass contracts by 3/4 per level
    for k, want in [(1, 0.75), (2, 0.5625), (3, 0.421875), (4, 0.31640625)]:
        f = make_functional("majority3-iterated", k)
        model = family_model(f.grid, f.backend)
        assert_allclose(model.singleton_mass(), want, rtol=1e-13)
    # brute-force cross-check where the table fits
    for k in (1, 2):
        f = make_functional("majority3-iterated", k)
        assert_allclose(
            singleton_mass(spectral_measure_of(dense_twin(f))), 0.75**k, rtol=1e-12
        )


@pytest.mark.parametrize("m", [3, 5, 7])
@pytest.mark.parametrize("mu_in", [0.0, 0.3, -0.6])
def test_majority_layer_weights_depend_on_subset_size_only(m, mu_in):
    """Every biased coefficient of majority, by brute force over its 2^m inputs.

    Each squared coefficient over the fluctuation must equal the layer's
    weight for its subset size; that is what lets a layer keep only q.
    """
    layer = _majority_layer(m, mu_in)
    sigma = np.sqrt(1.0 - mu_in * mu_in)
    ys = np.array(list(itertools.product([1.0, -1.0], repeat=m)))
    prob = np.prod((1.0 + mu_in * ys) / 2.0, axis=1)
    phi = (ys - mu_in) / sigma
    value = np.where(ys.sum(axis=1) > 0, 1.0, -1.0)
    coeffs = {
        subset: float(np.sum(prob * value * np.prod(phi[:, list(subset)], axis=1)))
        for t in range(m + 1)
        for subset in itertools.combinations(range(m), t)
    }
    fluct = sum(c * c for subset, c in coeffs.items() if subset)
    assert abs(layer.mu_out - coeffs[()]) <= 1e-14
    assert abs(layer.sigma_sq - fluct) <= 1e-14
    for subset, c in coeffs.items():
        if subset:
            assert abs(c * c / fluct - layer.weights[len(subset)]) <= 1e-14, subset


@pytest.mark.parametrize("level", [14, 15, 16])
def test_wide_tribes_layer_weights_are_finite_and_sum_to_one(level):
    # the widest `or` has fan-in 1638 at L14; its binomials overflow a float
    f = NoiseFunctional.from_family("tribes", level)
    for layer in family_model(f.grid, f.backend).layers:
        w = layer.weights
        assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
        # sum w[t] C(m, t) exactly, over the largest of the power-of-two denominators
        ratios = [x.as_integer_ratio() for x in w.tolist()]
        top = max(b for _, b in ratios)
        total = sum(a * (top // b) * math.comb(layer.fanin, t) for t, (a, b) in enumerate(ratios))
        assert abs(Fraction(total, top) - 1) <= 1e-12, (layer.fanin, float(Fraction(total, top)))


def test_tribes_ignored_cells_carry_no_mass():
    f = make_functional("tribes", 3)  # width 1, blocks 8 -> no ignored at 3
    width, blocks, ignored = tribes_shape(3)
    assert ignored == 0
    # force a level with leftovers: level 5 -> width 2, blocks 16, 0 left;
    # level 7 -> width 4, blocks 32, 0 left; width never divides unevenly
    # until level 9 (2**9=512, width 5, blocks 102, 2 ignored)
    width, blocks, ignored = tribes_shape(9)
    assert ignored == 2
    model = family_model(TimeGrid(0, 1, 9), NoiseFunctional.from_family("tribes", 9).backend)
    assert model.leaf_count == width * blocks
    # sets never touch the trailing cells
    draws = model.sample(200, seed=3)
    assert all(all(c < model.leaf_count for c in s) for s in draws)


def test_model_sampler_matches_dense_frequencies():
    # tribes L4 spreads its mass over 4**8 atoms, where an exact sampler
    # still shows TV near 0.075 at 40,000 draws
    for name, level, draws in [("majority3-iterated", 2, 40_000), ("tribes", 4, 2_000_000)]:
        f = make_functional(name, level)
        model = family_model(f.grid, f.backend)
        mu = spectral_measure_of(dense_twin(f))
        n = f.grid.n_cells
        # dense probabilities by cell bitmask; the entries hold the empty atom too
        probs = np.zeros(1 << n)
        for cells, v in mu.entries.items():
            probs[sum(1 << c for c in cells)] = v / mu.total_mass
        freq = np.zeros(1 << n)
        batch = 500_000
        for start in range(0, draws, batch):
            sets = model.sample(min(batch, draws - start), seed=5 + start // batch)
            masks = np.fromiter((sum(1 << c for c in s) for s in sets), dtype=np.int64,
                                count=len(sets))
            freq += np.bincount(masks, minlength=1 << n)
        tv = 0.5 * np.abs(freq / draws - probs).sum()
        assert tv < 0.02, (name, level, tv)


def test_sample_sets_routes_through_model():
    f = make_functional("majority3-iterated", 4)  # 81 cells, beyond the dense cap
    mu = spectral_measure_of(f)
    assert not mu.is_dense
    draws = sample_sets(mu, 100, seed=1)
    assert len(draws) == 100
    assert draws == sample_sets(mu, 100, seed=1)


def test_straddle_mass_of_model_measure_is_squared_cut_distance():
    # Maj3 L4 has 81 cells, past the dense cap, so the measure is model-backed
    mu = spectral_measure_of(make_functional("majority3-iterated", 4))
    assert not mu.is_dense
    for b in (1, 9, 40, 80):
        d = cut_distance(mu, mu.grid.boundary(b))
        assert abs(straddle_mass(mu, b) - d * d) < 1e-12


def test_family_mean_matches_dense():
    for name, level in [("majority3-iterated", 2), ("tribes", 4)]:
        f = make_functional(name, level)
        dense_mean = float(np.mean(evaluate_table(dense_twin(f))))
        assert_allclose(family_mean(f.grid, f.backend), dense_mean, atol=1e-13)


def test_materialize_respects_sign_convention():
    f = make_functional("majority3-iterated", 1)
    table = evaluate_table(dense_twin(f))
    rows = old_sign_table(3).astype(np.float64)
    for pos in range(8):
        assert table[pos] == evaluate(f, rows[pos])


def test_calibration_measures():
    mu = calibration_measure("point", 4)
    (atom,) = mu.entries
    assert len(atom) == 1
    mu = calibration_measure("full-interval", 3)
    (atom,) = mu.entries
    assert len(atom) == 27
    mu = calibration_measure("cantor-thirds", 4)
    (atom,) = mu.entries
    assert len(atom) == 16  # 2**level cells survive the middle-thirds deletion
    # no surviving cell has a middle-third digit
    for c in atom:
        digits = []
        x = c
        for _ in range(4):
            digits.append(x % 3)
            x //= 3
        assert 1 not in digits
    with pytest.raises(ValueError):
        calibration_measure("bogus", 3)
