import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noisespectra import (
    BackendError,
    BrownianProgram,
    ItoTerm,
    MapFactor,
    MapTerm,
    NoiseFunctional,
    SimplexKernel,
    TimeGrid,
    decompose,
    inner_product,
    inner_product_mc,
    joined_grid,
    level_projection,
    multiply,
    random_functional,
    reconstruct,
    shift,
    tensor_product,
)
from noisespectra.functionals import (
    _sparse_dot,
    evaluate_table,
    expectation,
    hermite_decompose,
    norm_sq,
)
from test_merged_routes import old_sign_table

GRID = TimeGrid(0, 1, 3)


def test_table_and_chaos_representations_agree(rng):
    f = random_functional(GRID, rng)
    from noisespectra import decompose

    g = NoiseFunctional.from_chaos(decompose(f))
    table = old_sign_table(GRID.n_cells)
    for pos in range(0, 256, 37):
        assert_allclose(g.evaluate(table[pos]), f.evaluate(table[pos]), rtol=1e-12)
    assert_allclose(expectation(g), expectation(f), rtol=1e-12)
    assert_allclose(norm_sq(g), norm_sq(f), rtol=1e-12)
    assert_allclose(evaluate_table(g), evaluate_table(f), atol=1e-12)


def test_from_walsh_entries_evaluation():
    f = NoiseFunctional.from_walsh_entries(GRID, {(): 2.0, (0, 2): -1.0})
    omega = np.ones(8)
    assert f.evaluate(omega) == 1.0  # 2 - 1
    omega[0] = -1
    assert f.evaluate(omega) == 3.0  # 2 + 1
    assert expectation(f) == 2.0
    assert f.norm_sq == 5.0


@pytest.mark.parametrize("key, message", [
    ((1.7,), "Walsh index cells must be integers, got 1.7"),
    ((True,), "Walsh index cells must be integers, got True"),
    ((0, 1.0), "Walsh index cells must be integers, got 1.0"),
    ((9,), r"^entries\[0\]: cells \[9\] are not strictly increasing integers in 0\.\.3$"),
    ((-1, 2), r"^entries\[0\]: cells \[-1, 2\] are not strictly increasing integers in 0\.\.3$"),
])
def test_walsh_entries_take_integer_cells_on_the_grid(key, message):
    # a float cell would be truncated into another cell, and an off-grid cell would be
    # read past the end of the value table
    with pytest.raises(ValueError, match=message):
        NoiseFunctional.from_walsh_entries(TimeGrid(0, 1, 2), {key: 1.0})
    f = NoiseFunctional.from_walsh_entries(TimeGrid(0, 1, 2), {(np.int64(3), 0): 1.0})
    assert f.backend.entries == {(0, 3): 1.0}


def test_inner_product_dual_routes(rng):
    """Sparse coefficient dot against the value-table average."""
    from noisespectra import decompose

    f = random_functional(GRID, rng)
    g = random_functional(GRID, rng)
    by_table = inner_product(f, g)
    fc = NoiseFunctional.from_chaos(decompose(f))
    gc = NoiseFunctional.from_chaos(decompose(g))
    assert_allclose(inner_product(fc, gc), by_table, rtol=1e-11)
    assert_allclose(inner_product(fc, g), by_table, rtol=1e-11)  # mixed backends


@pytest.mark.parametrize("n", range(1, 15))
def test_table_inner_product_and_norm_are_the_bits_of_np_mean(n):
    # the table routes sum and divide as np.mean does, without its dispatch
    rng = np.random.default_rng(300 + n)
    grid = TimeGrid(0, 1, 1, base=n) if n > 1 else TimeGrid(0, 1, 0)
    a, b = rng.standard_normal((2, 1 << n)) * 10.0 ** rng.integers(-3, 4, size=(2, 1 << n))
    f, g = NoiseFunctional.from_table(grid, a), NoiseFunctional.from_table(grid, b)
    assert inner_product(f, g) == float(np.mean(a * b))
    assert norm_sq(f) == float(np.mean(a**2))


def test_sparse_dot_does_not_depend_on_argument_order():
    # equal-size expansions with the same keys inserted in opposite orders
    rng = np.random.default_rng(24)
    keys = [tuple(np.flatnonzero(m).tolist()) for m in old_sign_table(GRID.n_cells) < 0]
    for _ in range(200):
        picked = [keys[i] for i in rng.choice(len(keys), size=12, replace=False)]
        f = NoiseFunctional.from_walsh_entries(GRID, dict(zip(picked, rng.standard_normal(12))))
        g = NoiseFunctional.from_walsh_entries(GRID, dict(zip(picked[::-1], rng.standard_normal(12))))
        assert inner_product(f, g) == inner_product(g, f)
        assert norm_sq(f) == f.backend.norm_sq


def test_walsh_expansions_past_the_cap_have_no_value_table():
    f = NoiseFunctional.from_walsh_entries(TimeGrid(0, 1, 5), {tuple(range(32)): 1.0})
    with pytest.raises(BackendError, match="capped at 24 cells, got 32"):
        evaluate_table(f)


def test_inner_product_rejects_mixed_hermite_walsh():
    from noisespectra.chaos import ChaosCoefficients, HERMITE

    f = NoiseFunctional.from_walsh_entries(GRID, {(0,): 1.0})
    h = NoiseFunctional.from_chaos(
        ChaosCoefficients(GRID, {((0, 0, 1),): 1.0}, kind=HERMITE)
    )
    with pytest.raises(BackendError):
        inner_product(f, h)


def test_shift_cyclic_routes_agree(rng):
    from noisespectra import decompose

    f = random_functional(GRID, rng)
    fc = NoiseFunctional.from_chaos(decompose(f))
    for k in (1, 3, -2):
        a = evaluate_table(shift(f, k))
        b = evaluate_table(shift(fc, k, mode="cyclic"))
        assert_allclose(a, b, atol=1e-11)
        assert_allclose(norm_sq(shift(f, k)), norm_sq(f), rtol=1e-12)


def test_shift_truncate_drops_outgoing_mass():
    f = NoiseFunctional.from_walsh_entries(GRID, {(0,): 1.0, (7,): 2.0, (3, 4): 1.0})
    moved = shift(f, 1, mode="truncate")
    assert moved.backend.entries == {(1,): 1.0, (4, 5): 1.0}  # cell 7 left the window
    # table route agrees
    ft = NoiseFunctional.from_table(GRID, evaluate_table(f))
    assert_allclose(
        evaluate_table(shift(ft, 1, mode="truncate")), evaluate_table(moved), atol=1e-12
    )


def test_shift_truncate_routes_agree(rng):
    from noisespectra import decompose

    f = random_functional(GRID, rng)
    fc = NoiseFunctional.from_chaos(decompose(f))
    for k in (0, 1, -1, 3, -3, 8, -8, 10, -10):
        a = evaluate_table(shift(f, k, mode="truncate"))
        b = evaluate_table(shift(fc, k, mode="truncate"))
        assert_allclose(a, b, atol=1e-12)


def test_multiply_is_pointwise(rng):
    f = random_functional(GRID, rng)
    g = random_functional(GRID, rng)
    assert_allclose(evaluate_table(multiply(f, g)), evaluate_table(f) * evaluate_table(g))


def test_joined_grid_shapes():
    from fractions import Fraction

    dy = joined_grid(TimeGrid(0, Fraction(1, 2), 2), TimeGrid(Fraction(1, 2), 1, 2))
    assert dy == TimeGrid(0, 1, 3)
    odd = joined_grid(
        TimeGrid(0, Fraction(5, 10), 1, base=5), TimeGrid(Fraction(5, 10), 1, 1, base=5)
    )
    assert odd.n_cells == 10
    from noisespectra import GridMismatchError

    with pytest.raises(GridMismatchError):
        joined_grid(TimeGrid(0, 1, 2), TimeGrid(2, 3, 2))


def test_tensor_product_values(rng):
    wl = TimeGrid(0, 0.5, 2)
    wr = TimeGrid(0.5, 1, 2)
    f = random_functional(wl, rng)
    g = random_functional(wr, rng)
    fg = tensor_product(f, g)
    table = old_sign_table(8)
    for pos in (0, 17, 100, 255):
        om = table[pos]
        assert_allclose(
            fg.evaluate(om), f.evaluate(om[:4]) * g.evaluate(om[4:]), rtol=1e-12
        )


def fresh_table_results(f, g, left, right, seed):
    """Every constructor that wraps a table it has just built, with its inputs."""
    return {
        "multiply": (multiply(f, g), (f, g)),
        "tensor_product": (tensor_product(left, right), (left, right)),
        "shift": (shift(f, 3), (f,)),
        "shift truncate": (shift(f, -2, "truncate"), (f,)),
        "reconstruct": (reconstruct(decompose(f)), (f,)),
        "level_projection": (level_projection(f, 2), (f,)),
        "random_functional": (random_functional(GRID, np.random.default_rng(seed)), ()),
    }


def test_fresh_tables_are_frozen_not_copied(rng, monkeypatch):
    f, g = random_functional(GRID, rng), random_functional(GRID, rng)
    left = random_functional(TimeGrid(0, 0.5, 2), rng)
    right = random_functional(TimeGrid(0.5, 1, 2), rng)
    fresh = fresh_table_results(f, g, left, right, 7)
    for name, (out, inputs) in fresh.items():
        v = out.backend.values
        assert v.dtype == np.float64 and v.shape == (1 << out.grid.n_cells,), name
        assert not v.flags.writeable, name
        assert not any(np.shares_memory(v, evaluate_table(x)) for x in inputs), name
    # the same results wrapped through from_table, which copies and re-checks
    monkeypatch.setattr(NoiseFunctional, "_of_fresh_table",
                        classmethod(lambda cls, grid, values: cls.from_table(grid, values)))
    copied = fresh_table_results(f, g, left, right, 7)
    for name, (out, _) in fresh.items():
        assert out.grid == copied[name][0].grid, name
        assert out.backend.values.tobytes() == copied[name][0].backend.values.tobytes(), name


def test_fresh_tables_past_the_cap_are_refused_before_they_are_built():
    left, right = TimeGrid(0, 1, 1, base=13), TimeGrid(1, 2, 1, base=13)
    f = random_functional(left, np.random.default_rng(0))
    g = random_functional(right, np.random.default_rng(1))
    with pytest.raises(ValueError, match="capped at 24 cells, got 26"):
        tensor_product(f, g)
    with pytest.raises(ValueError, match="capped at 24 cells, got 32"):
        random_functional(TimeGrid(0, 1, 5), np.random.default_rng(0))


def test_value_tables_past_the_cap_have_one_refusal():
    # a table, a tensor product and a random table share `_require_table_cap`'s text and class
    grid = TimeGrid(0, 1, 1, base=25)
    left, right = TimeGrid(0, 1, 1, base=13), TimeGrid(1, 2, 1, base=13)
    f = random_functional(left, np.random.default_rng(0))
    g = random_functional(right, np.random.default_rng(1))
    for build, n in ((lambda: NoiseFunctional.from_table(grid, np.zeros(1)), 25),
                     (lambda: tensor_product(f, g), 26),
                     (lambda: random_functional(TimeGrid(0, 1, 5), np.random.default_rng(0)), 32)):
        with pytest.raises(BackendError, match=rf"^value tables are capped at 24 cells, got {n}$"):
            build()


# ---------------------------------------------------------------------------
# Brownian programs


def unit_i1(grid, weight=1.0):
    return NoiseFunctional.from_program(
        grid, [ItoTerm(weight, SimplexKernel.constant(1, grid.n_cells))]
    )


def test_ito_program_moments():
    grid = TimeGrid(0, 1, 4)
    f = unit_i1(grid)
    assert expectation(f) == 0.0
    assert_allclose(norm_sq(f), 1.0, rtol=1e-12)  # Ito isometry, discrete
    two = NoiseFunctional.from_program(
        grid, [ItoTerm(1.0, SimplexKernel.constant(2, grid.n_cells))]
    )
    n = grid.n_cells
    assert_allclose(norm_sq(two), math.comb(n, 2) / n**2, rtol=1e-12)


def test_ito_inner_product_exact():
    grid = TimeGrid(0, 1, 3)
    n = grid.n_cells
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    fa = NoiseFunctional.from_program(grid, [ItoTerm(1.0, SimplexKernel.separable([a]))])
    fb = NoiseFunctional.from_program(grid, [ItoTerm(1.0, SimplexKernel.separable([b]))])
    assert_allclose(inner_product(fa, fb), np.dot(a, b) / n, rtol=1e-12)
    # different orders are orthogonal
    i2 = NoiseFunctional.from_program(grid, [ItoTerm(1.0, SimplexKernel.constant(2, n))])
    assert inner_product(fa, i2) == 0.0


def test_map_term_moments_match_closed_form():
    grid = TimeGrid(0, 1, 2)
    a = 0.7
    f = NoiseFunctional.from_program(
        grid, [MapTerm(1.0, (MapFactor(0, 0, "exp", (a,)),))], degree_cap=10
    )
    h = float(grid.cell_length)
    assert_allclose(expectation(f), math.exp(a * a * h / 2), rtol=1e-10)
    assert_allclose(norm_sq(f), math.exp(2 * a * a * h), rtol=1e-10)


def test_hermite_decompose_i1_coefficients():
    grid = TimeGrid(0, 1, 2)
    n = grid.n_cells
    vec = np.array([1.0, -2.0, 0.5, 3.0])
    f = NoiseFunctional.from_program(grid, [ItoTerm(1.0, SimplexKernel.separable([vec]))])
    coeffs = hermite_decompose(grid, f.backend)
    scale = math.sqrt(1.0 / n)
    for c in range(n):
        assert_allclose(coeffs.coefficient(((c, 0, 1),)), vec[c] * scale, rtol=1e-12)
    assert_allclose(coeffs.norm_sq, norm_sq(f), rtol=1e-12)


def test_hermite_decompose_refuses_quadrature_overshoot():
    # the 64-point Gauss rule resolves degrees below 64 only: above that the
    # projected coefficients of sign() capture more than its squared norm
    grid = TimeGrid(0, 1, 2)
    sign = MapTerm(1.0, (MapFactor(0, 0, "sign"),))
    f = NoiseFunctional.from_program(grid, [sign], degree_cap=70)
    with pytest.raises(BackendError, match="quadrature"):
        hermite_decompose(grid, f.backend)
    # within the rule the unresolved tail stays an explicit residual
    coeffs = hermite_decompose(grid, f.backend, degree_cap=60)
    assert coeffs.residual > 1e-3
    assert_allclose(coeffs.norm_sq + coeffs.residual, 1.0, rtol=1e-12)


def test_mc_stderr_survives_large_offset():
    # <1e8 + I1, 1> has per-path variance exactly 1, whatever the offset; a
    # one-pass E[x^2] - E[x]^2 cancels it to about 0.011 or to 0.0 here
    grid = TimeGrid(0, 1, 10)
    n, paths = grid.n_cells, 16384
    offset = MapTerm(1.0, (MapFactor(0, 0, "poly", (1e8,)),))
    f = NoiseFunctional.from_program(
        grid, [offset, ItoTerm(1.0, SimplexKernel.constant(1, n))], degree_cap=1
    )
    one = NoiseFunctional.from_program(
        grid, [MapTerm(1.0, (MapFactor(0, 0, "poly", (1.0,)),))], degree_cap=1
    )
    for seed in (3, 12):
        est = inner_product_mc(f, one, samples=paths, seed=seed, workers=2)
        assert abs(est.stderr * math.sqrt(paths) - 1.0) < 0.05
        assert abs(est.value - 1e8) < 5 / math.sqrt(paths)


def test_mc_inner_product_reproducible_and_consistent():
    grid = TimeGrid(0, 1, 4)
    f = unit_i1(grid)
    a = inner_product_mc(f, f, samples=4000, seed=9, workers=2)
    b = inner_product_mc(f, f, samples=4000, seed=9, workers=2)
    assert a == b  # bit-identical, not merely close
    exact = inner_product(f, f)
    assert abs(a.value - exact) < 4 * a.stderr
    with pytest.raises(BackendError):
        inner_product_mc(f, random_functional(grid, np.random.default_rng(0)), 100, 0)


# ---------------------------------------------------------------------------
# sample points: `evaluate` checks each point kind once, and keeps the bits of
# the routes it replaced


def old_evaluate_family(grid, ref, omega):
    from noisespectra.families import _evaluate_rows

    om = np.asarray(omega, dtype=np.float64)
    if om.shape != (grid.n_cells,) or not np.all(np.abs(om) == 1.0):
        raise ValueError("omega must be a +-1 vector, one sign per cell")
    return float(_evaluate_rows(grid, ref, om[None, :])[0])


def old_evaluate(f, omega):
    from noisespectra.chaos import WALSH, ChaosCoefficients
    from noisespectra.functionals import (BrownianProgram, RademacherTable,
                                          _values_on_increments, program_values)
    from noisespectra.walsh import omega_index

    b = f.backend
    if isinstance(b, RademacherTable):
        return float(b.values[omega_index(omega)])
    if isinstance(b, ChaosCoefficients):
        inc = np.asarray(omega, dtype=np.float64)
        if b.kind == WALSH:
            if inc.shape != (f.grid.n_cells,) or not np.all(np.abs(inc) == 1.0):
                raise ValueError("omega must be a +-1 vector, one sign per cell")
            inc = inc * math.sqrt(float(f.grid.cell_length))
        return float(_values_on_increments(f, inc.reshape(1, f.grid.n_cells, -1))[0])
    if isinstance(b, BrownianProgram):
        inc = np.asarray(omega, dtype=np.float64)
        if inc.ndim == 1:
            inc = inc[None, :, None]
        elif inc.ndim == 2:
            inc = inc[None, :, :]
        return float(program_values(b, inc)[0])
    return old_evaluate_family(f.grid, b, omega)


def _program(channels):
    """Map and Ito terms on 4 cells, spread over `channels` channels."""
    grid, top = TimeGrid(0, 1, 2), channels - 1
    maps = MapTerm(0.7, (MapFactor(1, 0, "sin", (0.5,)), MapFactor(3, top, "exp", (0.3,))))
    kernel = SimplexKernel(2, 4, dense=np.triu(np.arange(16.0).reshape(4, 4) / 8, 1),
                           channels=(0, top))
    return NoiseFunctional.from_program(grid, [maps, ItoTerm(1.2, kernel)], 3, channels)


def _expanded(f):
    return NoiseFunctional.from_chaos(hermite_decompose(f.grid, f.backend))


def _bits(x):
    return np.float64(x).tobytes()


TABLE_2 = NoiseFunctional.from_table(TimeGrid(0, 1, 1), [1.0, 2.0, 3.0, 4.0])
HERMITE_1 = _expanded(_program(1))


@pytest.mark.parametrize("f, omega, message", [
    (TABLE_2, [-1], r"^omega must be a \+-1 vector, one sign per cell$"),
    (TABLE_2, [-1, 1, 1], r"\+-1 vector, one sign per cell"),
    (TABLE_2, [1, 1, -1], r"\+-1 vector, one sign per cell"),
    (_program(1), np.ones(1),
     r"^omega must hold 4 increments on each of 1 channel\(s\), shape \(4, 1\), got \(1,\)$"),
    (_program(1), np.ones(5), r"shape \(4, 1\), got \(5,\)"),
    (_program(1), np.ones((4, 2)), r"shape \(4, 1\), got \(4, 2\)"),
    (HERMITE_1, np.ones((4, 2)), r"shape \(4, 1\), got \(4, 2\)"),
    (HERMITE_1, np.ones(2), r"shape \(4, 1\), got \(2,\)"),
    (_program(2), np.ones(4),
     r"^omega must hold 4 increments on each of 2 channel\(s\), shape \(4, 2\), got \(4,\)$"),
], ids=["table-1-sign", "table-3-signs", "table-3-signs-last-minus", "program-1-increment",
        "program-5-increments", "program-4x2", "hermite-4x2", "hermite-2-increments",
        "program-2-channels-4-increments"])
def test_evaluate_refuses_malformed_points(f, omega, message):
    with pytest.raises(ValueError, match=message):
        f.evaluate(omega)


def _sign_rows(n, count=None, seed=0):
    """Every sign pattern of n cells, in table order, or `count` seeded ones."""
    if count is None:
        return 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    return np.random.default_rng(seed).choice([-1.0, 1.0], size=(count, n))


def _walsh_130():
    rng = np.random.default_rng(130)
    grid = TimeGrid(0, 1, 1, base=130)
    entries = {tuple(sorted(rng.choice(130, size=k, replace=False).tolist())): float(c)
               for k, c in zip(rng.integers(0, 6, size=40).tolist(), rng.standard_normal(40))}
    return NoiseFunctional.from_walsh_entries(grid, entries)


@pytest.mark.parametrize("case", ["table-10-all", "walsh-130", "maj3-l2-all", "tribes-l4",
                                  "maj3-l13"])
def test_evaluate_keeps_the_bits_on_sign_points(case):
    from noisespectra.families import make_functional

    if case == "table-10-all":
        grid = TimeGrid(0, 1, 1, base=10)
        f = NoiseFunctional.from_table(grid, np.random.default_rng(10).standard_normal(1 << 10))
        rows = _sign_rows(10)
    elif case == "walsh-130":
        f, rows = _walsh_130(), _sign_rows(130, 50, seed=130)
        assert f.backend.rows.shape[1] == 3
    elif case == "maj3-l2-all":
        f, rows = make_functional("majority3-iterated", 2), _sign_rows(9)
        assert len(rows) == 512
    elif case == "tribes-l4":
        f, rows = make_functional("tribes", 4), _sign_rows(16, 200, seed=4)
    else:
        f, rows = make_functional("majority3-iterated", 13), _sign_rows(3**13, 20, seed=13)
    for omega in rows:
        assert _bits(f.evaluate(omega)) == _bits(old_evaluate(f, omega))
    if case in ("table-10-all", "maj3-l2-all"):  # every pattern: the value table itself
        got = np.array([f.evaluate(omega) for omega in rows])
        assert got.tobytes() == evaluate_table(f).tobytes()


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("kind", ["program", "hermite"])
def test_evaluate_keeps_the_bits_on_increment_points(kind, channels):
    f = _expanded(_program(channels)) if kind == "hermite" else _program(channels)
    assert f.backend.channels == channels
    points = np.random.default_rng(channels).standard_normal((50, 4, channels)) / 2
    for point in points:
        shapes = [point, point[:, 0]] if channels == 1 else [point]
        for omega in shapes:
            assert _bits(f.evaluate(omega)) == _bits(old_evaluate(f, omega))
        assert _bits(f.evaluate(point)) == _bits(f.evaluate(shapes[-1]))


def test_map_terms_with_one_sided_slots_pair_as_their_hermite_expansions():
    # slots (0, 0) and (5, 0) sit in a only, (4, 0) and (5, 1) in b only, (2, 1) in both;
    # polynomial maps under the degree cap expand with no residual
    grid = TimeGrid(0, 1, 3)
    rng = np.random.default_rng(31)

    def term(slots):
        return MapTerm(float(rng.uniform(0.5, 2.0)), tuple(
            MapFactor(c, ch, "poly", tuple(rng.standard_normal(3).tolist())) for c, ch in slots))

    a = BrownianProgram((term([(0, 0), (2, 1), (5, 0)]), term([(1, 1)])), 3, 2)
    b = BrownianProgram((term([(2, 1), (4, 0), (5, 1)]), term([(7, 0), (0, 0)])), 3, 2)
    ca, cb = hermite_decompose(grid, a), hermite_decompose(grid, b)
    assert max(ca.residual, cb.residual) <= 1e-12
    for f, g, want in ((a, b, _sparse_dot(ca, cb)), (a, a, _sparse_dot(ca, ca))):
        got = inner_product(NoiseFunctional(grid, f), NoiseFunctional(grid, g))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)
