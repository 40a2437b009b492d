"""Simplex kernels: the prefix-sum routes against direct tuple enumeration."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from noisespectra import SimplexKernel
from noisespectra.kernels import iterated_sum


def brute_norm_sq(kernel, h):
    return sum(v * v * np.prod(h[list(cells)]) for cells, v in kernel.iterate_entries())


def brute_iterated_sum(kernel, inc):
    out = np.zeros(inc.shape[0])
    for cells, v in kernel.iterate_entries():
        term = np.full(inc.shape[0], v)
        for slot, c in enumerate(cells):
            term = term * inc[:, c, kernel.channels[slot]]
        out += term
    return out


def test_validation():
    with pytest.raises(ValueError):
        SimplexKernel(0, 4)
    with pytest.raises(ValueError):
        SimplexKernel(2, 4, channels=(0,))
    k = SimplexKernel.constant(3, 5)
    assert k.channels == (0, 0, 0)
    assert k.tuple_count() == 10  # C(5, 3)


def test_value_on_tuples():
    k = SimplexKernel.separable([np.arange(1.0, 5.0), np.ones(4)])
    assert k.value((2, 3)) == 3.0
    with pytest.raises(ValueError):
        k.value((3, 2))  # not increasing
    with pytest.raises(ValueError):
        k.value((0, 1, 2))  # wrong arity


@pytest.mark.parametrize("order", [1, 2, 3])
def test_isometry_norm_matches_enumeration(order):
    rng = np.random.default_rng(order)
    n = 7
    k = SimplexKernel.separable([rng.standard_normal(n) for _ in range(order)])
    h = rng.uniform(0.5, 1.5, size=n)
    assert_allclose(k.cross_norm(k, h), brute_norm_sq(k, h), rtol=1e-12)


def test_dense_order2_norm_matches_enumeration():
    rng = np.random.default_rng(5)
    n = 6
    dense = np.triu(rng.standard_normal((n, n)), k=1)
    k = SimplexKernel(2, n, dense=dense)
    h = rng.uniform(0.5, 1.5, size=n)
    assert_allclose(k.cross_norm(k, h), brute_norm_sq(k, h), rtol=1e-12)


def test_cross_norm_symmetry_and_enumeration():
    rng = np.random.default_rng(11)
    n = 6
    a = SimplexKernel.separable([rng.standard_normal(n), rng.standard_normal(n)])
    b = SimplexKernel.separable([rng.standard_normal(n), rng.standard_normal(n)])
    h = rng.uniform(0.5, 1.5, size=n)
    brute = sum(
        va * b.value(cells) * np.prod(h[list(cells)]) for cells, va in a.iterate_entries()
    )
    assert_allclose(a.cross_norm(b, h), brute, rtol=1e-12)
    assert_allclose(a.cross_norm(b, h), b.cross_norm(a, h), rtol=1e-12)


def _random_kernel(layout, order, n, rng):
    if layout == "separable":
        return SimplexKernel.separable([rng.standard_normal(n) for _ in range(order)])
    shape = (n,) if order == 1 else (n, n)
    return SimplexKernel(order, n, dense=rng.standard_normal(shape))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("layouts", [
    ("dense", "dense"), ("dense", "separable"), ("separable", "dense"),
])
def test_cross_norm_with_dense_side_matches_enumeration(order, layouts):
    rng = np.random.default_rng(17 + order)
    n = 7
    a, b = (_random_kernel(layout, order, n, rng) for layout in layouts)
    h = rng.uniform(0.5, 1.5, size=n)
    brute = sum(
        va * b.value(cells) * np.prod(h[list(cells)]) for cells, va in a.iterate_entries()
    )
    assert_allclose(a.cross_norm(b, h), brute, rtol=1e-12, atol=1e-12)
    assert_allclose(b.cross_norm(a, h), brute, rtol=1e-12, atol=1e-12)


def test_cross_norm_zero_across_orders_and_channels():
    n = 5
    a = SimplexKernel.constant(1, n)
    b = SimplexKernel.constant(2, n)
    h = np.full(n, 1.0 / n)
    assert a.cross_norm(b, h) == 0.0
    c = SimplexKernel.constant(2, n, channels=(0, 1))
    assert b.cross_norm(c, h) == 0.0


@pytest.mark.parametrize("order", [1, 2, 3])
def test_iterated_sum_matches_enumeration(order):
    rng = np.random.default_rng(20 + order)
    n, paths = 6, 40
    k = SimplexKernel.separable([rng.standard_normal(n) for _ in range(order)])
    inc = rng.standard_normal((paths, n, 1))
    assert_allclose(iterated_sum(k, inc), brute_iterated_sum(k, inc), rtol=1e-10, atol=1e-12)


def test_iterated_sum_dense_and_channels():
    rng = np.random.default_rng(31)
    n, paths, d = 5, 30, 2
    dense = np.triu(rng.standard_normal((n, n)), k=1)
    k = SimplexKernel(2, n, dense=dense, channels=(0, 1))
    inc = rng.standard_normal((paths, n, d))
    assert_allclose(iterated_sum(k, inc), brute_iterated_sum(k, inc), rtol=1e-10, atol=1e-12)


def test_iterated_sum_shape_guard():
    k = SimplexKernel.constant(1, 4)
    with pytest.raises(ValueError):
        iterated_sum(k, np.zeros((3, 5)))


@pytest.mark.parametrize("shape", ["sep-1", "sep-2", "sep-3", "dense-1", "dense-2"])
def test_iterated_sum_rows_do_not_depend_on_block_size(shape):
    # the Monte Carlo engine evaluates paths in blocks; each path's value must
    # be the same bits whatever block it lands in
    rng = np.random.default_rng(41)
    n, paths = 96, 700
    if shape.startswith("sep"):
        order = int(shape[-1])
        k = SimplexKernel.separable(
            [rng.standard_normal(n) for _ in range(order)], channels=(1, 0, 1)[:order]
        )
    elif shape == "dense-1":
        k = SimplexKernel(1, n, dense=rng.standard_normal(n), channels=(1,))
    else:
        k = SimplexKernel(2, n, dense=rng.standard_normal((n, n)), channels=(1, 0))
    inc = rng.standard_normal((paths, n, 2))
    whole = iterated_sum(k, inc)
    for step in (1, 7, 256):
        parts = [iterated_sum(k, inc[a : a + step]) for a in range(0, paths, step)]
        assert np.array_equal(np.concatenate(parts), whole)


def loop_iterated_sum(kernel, inc):
    # reference: the plain slot-by-slot loop, fresh arrays and every multiply
    term = inc[:, :, kernel.channels[0]] * kernel.factors[0]
    for vec, ch in zip(kernel.factors[1:], kernel.channels[1:]):
        acc = np.zeros((inc.shape[0], inc.shape[1]))
        np.cumsum(term[:, :-1], axis=1, out=acc[:, 1:])
        term = inc[:, :, ch] * vec * acc
    return term.sum(axis=1)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("slots", ["unit", "value-2", "random", "alternating"])
def test_separable_iterated_sum_matches_the_loop_bit_for_bit(slots, order, d):
    rng = np.random.default_rng(100 * order + 10 * d + len(slots))
    n, paths = 150, 60
    channels = tuple(int(c) for c in rng.integers(0, d, size=order))
    if slots == "unit":
        k = SimplexKernel.constant(order, n, channels=channels)
    elif slots == "value-2":  # slot 0 is not a unit slot, the later ones are
        k = SimplexKernel.constant(order, n, value=2.0, channels=channels)
    else:
        vecs = [rng.standard_normal(n) for _ in range(order)]
        if slots == "alternating":
            vecs[1::2] = [np.ones(n)] * len(vecs[1::2])
        k = SimplexKernel.separable(vecs, channels=channels)
    inc = rng.standard_normal((paths, n, d))
    inc.setflags(write=False)  # the input is read, never written
    assert np.array_equal(iterated_sum(k, inc), loop_iterated_sum(k, inc))


def untiled_iterated_sum(kernel, inc):
    # reference: the separable route before row tiles, one (k, n) scratch pair per call
    x = inc[:, :, kernel.channels[0]]
    unit = bool((kernel.factors[0] == 1.0).all())
    term = x if unit else x * kernel.factors[0]
    if kernel.order > 1:
        acc = np.empty(x.shape)
        acc[:, 0] = 0.0
        out = np.empty(x.shape) if term is x else term
    for vec, ch in zip(kernel.factors[1:], kernel.channels[1:]):
        np.cumsum(term[:, :-1], axis=1, out=acc[:, 1:])
        x = inc[:, :, ch]
        if bool((vec == 1.0).all()):
            term = np.multiply(x, acc, out=out)
        else:
            term = np.multiply(x, vec, out=out)
            term *= acc
    return term.sum(axis=1)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("slots", ["unit", "value-2", "random"])
def test_tiled_iterated_sum_is_the_untiled_route_bit_for_bit(slots, order, monkeypatch):
    from noisespectra import kernels
    from noisespectra.kernels import TILE_FLOATS

    rng = np.random.default_rng(10 * order + len(slots))
    n = 96
    tile = TILE_FLOATS // n
    channels = tuple(int(c) for c in rng.integers(0, 2, size=order))
    if slots == "unit":
        k = SimplexKernel.constant(order, n, channels=channels)
    elif slots == "value-2":
        k = SimplexKernel.constant(order, n, value=2.0, channels=channels)
    else:
        k = SimplexKernel.separable([rng.standard_normal(n) for _ in range(order)], channels)
    inc = rng.standard_normal((tile + 1, n, 2))
    inc.setflags(write=False)
    for rows in (1, tile - 1, tile, tile + 1, 700):
        part = inc[:rows] if rows <= tile + 1 else rng.standard_normal((rows, n, 2))
        assert np.array_equal(iterated_sum(k, part), untiled_iterated_sum(k, part)), rows
    monkeypatch.setattr(kernels, "TILE_FLOATS", 1)  # one row per tile
    assert np.array_equal(iterated_sum(k, part), untiled_iterated_sum(k, part))


def test_multiple_ito_integral_on_a_path_table_is_the_untiled_route():
    from noisespectra import TimeGrid
    from noisespectra.whitenoise import multiple_ito_integral, sample_paths

    grid = TimeGrid(0, 1, 8)
    paths = sample_paths(grid, 2, 1500, 7, workers=2)
    rng = np.random.default_rng(8)
    for k in (SimplexKernel.constant(2, 256, channels=(1, 0)),
              SimplexKernel.separable([rng.standard_normal(256) for _ in range(3)], (0, 1, 1))):
        want = untiled_iterated_sum(k, paths.increments)
        assert np.array_equal(multiple_ito_integral(k, paths), want)


def test_tiled_iterated_sum_traces_one_tile_scratch():
    # one (256, 1024) block of an order-2 kernel: the (2, 32, 1024) tile scratch, 0.5 MiB;
    # the untiled route traced 4.0 MiB, two fresh (256, 1024) arrays
    import tracemalloc

    k = SimplexKernel.constant(2, 1024)
    inc = np.random.default_rng(9).standard_normal((256, 1024, 1))
    tracemalloc.start()
    try:
        iterated_sum(k, inc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20
