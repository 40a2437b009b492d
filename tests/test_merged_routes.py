"""Jobs that run one route now, bit for bit against the second routes they replaced.

Each reference below is the former implementation, kept here verbatim as the
oracle: the exact kernel norm's own simplex recursion and dense contractions,
the per-backend `norm_sq`, the Walsh reconstruction through a dense vector,
the first-chaos filter of `additive_integral_of`, the family fallbacks of
`conditional_expectation`, `level_projection` and `inner_product` that built a
table functional and called themselves again, the sign table, the pair loop of
`product`, the key-set rule of `is_absolutely_continuous`, the family table
evaluated row by row on the sign table, the per-index support and
multiplicity rules of a chaos index, the Walsh expansion as a dict of cell
tuples: its `decompose`, its table and its support-dict measure, and the
selections of a chaos expansion (`filtered`, `scaled`, the chaos routes of
`conditional_expectation` and `level_projection`, the partition span and the
additive-integral members) as per-index predicates over its entries dict.
Every comparison is `==`.
"""
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from noisespectra import ElementarySet, NoiseFunctional, SimplexKernel, TimeGrid
from noisespectra.chaos import (
    HERMITE,
    WALSH,
    ChaosCoefficients,
    add_coefficients,
    shift_index,
)
from noisespectra.families import _evaluate_rows, family_values, make_functional
from noisespectra.functionals import (
    BackendError,
    BrownianProgram,
    FamilyRef,
    ItoTerm,
    MapFactor,
    MapTerm,
    RademacherTable,
    _max_degree,
    _sparse_dot,
    evaluate_table,
    hermite_decompose,
    inner_product,
    inner_product_mc,
    joined_grid,
    norm_sq,
    program_inner,
    random_functional,
    shift,
)
from noisespectra.spectral import (
    SpectralMeasure,
    cardinality_profile,
    is_absolutely_continuous,
    measure_from_coefficients,
    product,
    restrict,
    spectral_measure_of,
)
from noisespectra.structure import (
    AdditiveIntegral,
    additive_integral_of,
    finite_chaos_partition_span,
)
from noisespectra.transform import (
    chaos_order_masses,
    conditional_expectation,
    decompose,
    level_projection,
    reconstruct,
    walsh_coefficients,
)
from noisespectra.walsh import (
    DENSE_CELL_CAP,
    _checked_rows,
    _subset_keys,
    row_sizes,
    values_from_coefficients,
)

# -- the former routes --------------------------------------------------------


def old_sign_table(n_cells):
    """Array of shape (2**n, n) listing omega_i = +-1 for every table position."""
    if n_cells > DENSE_CELL_CAP:
        raise ValueError(f"{n_cells} cells exceeds the dense cap of {DENSE_CELL_CAP}")
    positions = np.arange(1 << n_cells, dtype=np.uint32)
    bits = (positions[:, None] >> np.arange(n_cells, dtype=np.uint32)) & 1
    return 1 - 2 * bits.astype(np.int8)


def old_index_support(index):
    """Distinct cells carried by the index, sorted."""
    if not index:
        return ()
    if isinstance(index[0], tuple):
        return tuple(sorted({c for c, _, _ in index}))
    return index  # Walsh indices are already sorted distinct cells


def old_index_cardinality(index):
    return len(old_index_support(index))


def old_index_has_multiplicity(index):
    """True when some cell carries total Hermite degree >= 2 across channels."""
    if not index or not isinstance(index[0], tuple):
        return False
    per_cell = {}
    for c, _, d in index:
        per_cell[c] = per_cell.get(c, 0) + d
    return any(total >= 2 for total in per_cell.values())


def old_mask_of_cells(cells):
    m = 0
    for c in cells:
        m |= 1 << int(c)
    return m


def old_product(left, right):
    """The product measure as a dict over every pair of atoms, packed by the constructor."""
    offset = left.grid.n_cells
    out = {}
    for ka, va in left.entries.items():
        for kb, vb in right.entries.items():
            out[ka + tuple(c + offset for c in kb)] = va * vb
    return SpectralMeasure(joined_grid(left.grid, right.grid), out)


def old_is_absolutely_continuous(mu_g, mu_f):
    return set(mu_g._atoms.keys) <= set(mu_f._atoms.keys)


def old_family_values(grid, ref):
    return _evaluate_rows(grid, ref, old_sign_table(grid.n_cells).astype(np.float64))


def old_cells_of_masks(masks, n_cells):
    h = n_cells // 2
    lo, hi = _subset_keys(range(h)), _subset_keys(range(h, n_cells))
    low = (1 << h) - 1
    return [lo[m & low] + hi[m >> h] for m in masks]


def old_decompose(f, tol=None):
    """The Walsh entries of a table as a dict: every nonzero mask decoded to a tuple."""
    dense = walsh_coefficients(f, tol)
    masks = np.flatnonzero(dense)
    keys = old_cells_of_masks(masks.tolist(), f.grid.n_cells)  # rising tuples, as chaos indices
    return dict(zip(keys, dense[masks].tolist()))


def old_walsh_table(entries, n):
    """`evaluate_table` of a Walsh entry dict: each coefficient at its packed mask."""
    dense = np.zeros(1 << n)
    masks = _checked_rows(list(entries), n)[0][:, 0].astype(np.intp)
    dense[masks] = np.fromiter(entries.values(), np.float64, len(masks))
    return values_from_coefficients(dense)


def old_measure_from_coefficients(grid, entries, residual=0.0):
    plain, mult = {}, {}
    for ix, c in entries.items():
        target = mult if old_index_has_multiplicity(ix) else plain
        s = old_index_support(ix)
        target[s] = target.get(s, 0.0) + c * c
    return SpectralMeasure(grid, plain, mult, residual=residual)


def old_shift_entries(entries, k, n, mode):
    moved = {}
    for ix, c in entries.items():
        if mode == "truncate":
            support = old_index_support(ix)
            if any(not 0 <= cell + k < n for cell in support):
                continue
        moved[shift_index(ix, k, n)] = c
    return moved


def old_filtered(c, keep):
    """`ChaosCoefficients.filtered`: (entries, residual) kept by a per-index predicate."""
    return {ix: v for ix, v in c.entries.items() if keep(ix)}, c.residual


def old_scaled(c, factor):
    return {ix: factor * v for ix, v in c.entries.items()}, c.residual * factor * factor


def old_chaos_projection(c, region):
    """The chaos route of `conditional_expectation`."""
    cells = set(region.cells())
    return old_filtered(c, lambda ix: set(old_index_support(ix)) <= cells)


def old_chaos_level(c, order):
    """The chaos route of `level_projection`."""
    return old_filtered(
        c, lambda ix: old_index_cardinality(ix) == order and not old_index_has_multiplicity(ix))


def old_partition_span(c, cuts):
    boundaries = sorted({c.grid.boundary_index(t) for t in cuts})

    def keeps(ix) -> bool:
        # cells share an interval exactly when as many cuts lie at or below each
        support = old_index_support(ix)
        return len({bisect_right(boundaries, c) for c in support}) == len(support)

    return old_filtered(c, keeps)


def old_additive_integral(c):
    """`AdditiveIntegral.__post_init__`: (one-cell indices only, is_zero)."""
    return (not any(len(old_index_support(ix)) != 1 for ix in c.entries),
            not any(v != 0.0 for v in c.entries.values()))


def old_member(c, lo, hi):
    """`AdditiveIntegral.member` on window cells lo..hi-1: no residual."""
    return {ix: v for ix, v in c.entries.items() if lo <= old_index_support(ix)[0] < hi}, 0.0


def old_ordered_product_sum(slot_vectors, weights):
    acc = np.ones_like(weights)
    for vec in slot_vectors:
        term = vec * weights * acc
        acc = np.concatenate(([0.0], np.cumsum(term)[:-1]))
    return float(np.sum(term))


def old_dense_form(k):
    if k.dense is not None:
        return k.dense
    if k.order == 1:
        return k.factors[0]
    return np.triu(np.outer(*k.factors), k=1)


def old_cross_norm(a, b, cell_lengths):
    if a.order != b.order or a.channels != b.channels:
        return 0.0
    h = np.asarray(cell_lengths, dtype=np.float64)
    if a.factors is not None and b.factors is not None:
        return old_ordered_product_sum([x * y for x, y in zip(a.factors, b.factors)], h)
    prod = old_dense_form(a) * old_dense_form(b)
    if a.order == 1:
        return float(np.sum(prod * h))
    return float(np.einsum("ij,i,j->", prod, h, h))


def old_norm_sq(f):
    b = f.backend
    if isinstance(b, RademacherTable):
        return float(np.add.reduce(b.values**2) / b.values.shape[0])
    if isinstance(b, ChaosCoefficients):
        return b.norm_sq
    return program_inner(f.grid, b, b)


def old_reconstruct_values(c):
    dense = np.zeros(1 << c.grid.n_cells)
    for ix, coeff in c.entries.items():
        dense[old_mask_of_cells(ix)] = coeff
    return values_from_coefficients(dense)


def old_additive_coefficients(f, tol=None):
    return decompose(f, tol).filtered(
        lambda ix: old_index_cardinality(ix) == 1 and not old_index_has_multiplicity(ix)
    )


def old_materialize(grid, ref):
    """Dense value table of a family instance; only below the dense cap."""
    n = grid.n_cells
    if n > DENSE_CELL_CAP:
        raise BackendError(
            f"family {ref.name!r} at {n} cells exceeds the dense cap; "
            "use its spectral model instead"
        )
    values = _evaluate_rows(grid, ref, old_sign_table(n).astype(np.float64))
    return NoiseFunctional.from_table(grid, values)


def old_conditional_expectation(f, region):
    if isinstance(f.backend, FamilyRef):
        return conditional_expectation(old_materialize(f.grid, f.backend), region)
    return conditional_expectation(f, region)


def old_level_projection(f, order):
    if isinstance(f.backend, FamilyRef):
        return level_projection(old_materialize(f.grid, f.backend), order)
    return level_projection(f, order)


def old_backend_kind(f):
    if isinstance(f.backend, RademacherTable):
        return "table"
    if isinstance(f.backend, ChaosCoefficients):
        return "chaos"
    if isinstance(f.backend, BrownianProgram):
        return "brownian"
    return "family"


def old_inner_product(f, g):
    fb, gb = f.backend, g.backend
    f_kind, g_kind = old_backend_kind(f), old_backend_kind(g)

    if "family" in (f_kind, g_kind):
        if f_kind == "family":
            f = old_materialize(f.grid, fb)
        if g_kind == "family":
            g = old_materialize(g.grid, gb)
        return old_inner_product(f, g)

    walsh_side = {"table", "chaos"}
    if f_kind in walsh_side and g_kind in walsh_side:
        f_is_hermite = f_kind == "chaos" and fb.kind == HERMITE
        g_is_hermite = g_kind == "chaos" and gb.kind == HERMITE
        if f_is_hermite != g_is_hermite:
            raise BackendError("cannot pair a Hermite expansion with a Rademacher backend")
        if f_is_hermite:
            return _sparse_dot(fb, gb)
        if f_kind == "table" or g_kind == "table":
            prod = evaluate_table(f) * evaluate_table(g)
            return float(np.add.reduce(prod) / prod.shape[0])
        return _sparse_dot(fb, gb)

    if f_kind == "brownian" and g_kind == "brownian":
        return program_inner(f.grid, fb, gb)
    if f_kind == "brownian" and g_kind == "chaos" and gb.kind == HERMITE:
        need = _max_degree(gb)
        return _sparse_dot(hermite_decompose(f.grid, fb, max(fb.degree_cap, need)), gb)
    if g_kind == "brownian" and f_kind == "chaos" and fb.kind == HERMITE:
        return old_inner_product(g, f)
    raise BackendError(f"no exact inner product between {f_kind} and {g_kind} backends")


# -- random subjects -------------------------------------------------------------


def _vector(rng, n):
    """Normal entries, sometimes all ones (a unit slot) or with zeros."""
    pick = rng.integers(3)
    if pick == 0:
        return np.ones(n)
    v = rng.standard_normal(n)
    if pick == 1:
        v[rng.random(n) < 0.3] = 0.0
    return v


def _kernel(layout, order, n, rng, channels=()):
    if layout == "separable":
        return SimplexKernel.separable([_vector(rng, n) for _ in range(order)], channels)
    shape = (n,) if order == 1 else (n, n)
    return SimplexKernel(order, n, dense=rng.standard_normal(shape), channels=channels)


PAIRS = [("separable", "separable", order) for order in (1, 2, 3, 4)] + [
    (a, b, order)
    for order in (1, 2)
    for a, b in [("dense", "dense"), ("dense", "separable"), ("separable", "dense")]
]


@pytest.mark.parametrize("left, right, order", PAIRS)
def test_cross_norm_is_the_former_formula_bit_for_bit(left, right, order):
    rng = np.random.default_rng(7000 + 10 * order + len(left) + 3 * len(right))
    for trial in range(150):
        n = int(rng.integers(order, 13))
        h = rng.uniform(0.01, 2.0, n) if trial % 2 else np.full(n, 1.0 / n)
        a = _kernel(left, order, n, rng)
        b = _kernel(right, order, n, rng)
        assert a.cross_norm(b, h) == old_cross_norm(a, b, h)
        assert a.cross_norm(a, h) == old_cross_norm(a, a, h)
    other = _kernel(right, order, n, rng, channels=(1,) * order)
    assert a.cross_norm(other, h) == old_cross_norm(a, other, h) == 0.0


GRID = TimeGrid(0, 1, 3)  # 8 cells


def _walsh_chaos(rng):
    entries = {}
    for _ in range(12):
        cells = tuple(sorted(rng.choice(8, size=int(rng.integers(0, 5)), replace=False)))
        entries[tuple(int(c) for c in cells)] = float(rng.standard_normal())
    return NoiseFunctional.from_chaos(ChaosCoefficients(GRID, entries, WALSH))


def _program(rng):
    k1 = SimplexKernel.separable([rng.standard_normal(8)])
    k2 = SimplexKernel(2, 8, dense=rng.standard_normal((8, 8)))
    cells = rng.choice(8, size=2, replace=False)
    maps = MapTerm(float(rng.uniform(0.5, 2.0)), (
        MapFactor(int(cells[0]), 0, "sin", (float(rng.uniform(0.5, 1.5)),)),
        MapFactor(int(cells[1]), 0, "poly", (0.3, 1.0, 0.5)),
    ))
    terms = (ItoTerm(0.7, k1), ItoTerm(-1.3, k2), maps)
    return NoiseFunctional(GRID, BrownianProgram(terms, degree_cap=4))


def _subjects(seed):
    rng = np.random.default_rng(seed)
    program = _program(rng)
    return {
        "table": random_functional(GRID, rng),
        "walsh-chaos": _walsh_chaos(rng),
        "hermite-chaos": NoiseFunctional.from_chaos(hermite_decompose(GRID, program.backend)),
        "program": program,
    }


@pytest.mark.parametrize("seed", range(5))
def test_norm_sq_is_the_former_per_backend_route(seed):
    for f in _subjects(seed).values():
        assert norm_sq(f) == old_norm_sq(f)


@pytest.mark.parametrize("seed", range(5))
def test_reconstruct_is_the_former_dense_vector_route(seed):
    rng = np.random.default_rng(seed)
    c = decompose(random_functional(GRID, rng))
    for chaos in (c, _walsh_chaos(rng).backend):
        values = reconstruct(chaos).backend.values
        assert np.array_equal(values, old_reconstruct_values(chaos))
        assert not values.flags.writeable
    hermite = hermite_decompose(GRID, _program(rng).backend)
    assert reconstruct(hermite).backend is hermite


@pytest.mark.parametrize("seed", range(5))
def test_additive_integral_is_the_former_first_chaos_filter(seed):
    for f in _subjects(seed).values():
        for tol in (None, 0.3):
            got = additive_integral_of(f, tol).coefficients
            want = old_additive_coefficients(f, tol)
            assert got.entries == want.entries
            assert list(got.entries) == list(want.entries)
            assert (got.kind, got.channels, got.residual) == (
                want.kind, want.channels, want.residual)
    assert {HERMITE, WALSH} == {
        additive_integral_of(f).coefficients.kind for f in _subjects(seed).values()
    }


# -- families below the dense cap are tables to every table route ----------------

FAMILIES = [("majority3-iterated", 1), ("majority3-iterated", 2), ("tribes", 2), ("tribes", 3),
            ("tribes", 4)]


def _family_subjects(name, level, seed):
    """The family and, on its grid, one of each other backend."""
    family = make_functional(name, level)
    grid, n = family.grid, family.grid.n_cells
    rng = np.random.default_rng(seed)
    entries = {}
    for _ in range(12):
        cells = rng.choice(n, size=int(rng.integers(0, min(n, 4) + 1)), replace=False)
        entries[tuple(sorted(int(c) for c in cells))] = float(rng.standard_normal())
    maps = MapTerm(1.5, (MapFactor(0, 0, "sin", (0.8,)), MapFactor(n - 1, 0, "poly", (0.3, 1.0))))
    program = NoiseFunctional(grid, BrownianProgram(
        (ItoTerm(0.7, SimplexKernel.separable([rng.standard_normal(n)])), maps), degree_cap=3))
    return {
        "family": family,
        "table": random_functional(grid, rng),
        "walsh-chaos": NoiseFunctional.from_chaos(ChaosCoefficients(grid, entries, WALSH)),
        "hermite-chaos": NoiseFunctional.from_chaos(hermite_decompose(grid, program.backend)),
        "program": program,
    }


def _regions(grid, rng):
    n = grid.n_cells
    yield ElementarySet.empty(grid)
    yield ElementarySet(grid, ((0, n),))
    for _ in range(20):
        yield ElementarySet.from_cells(grid, np.flatnonzero(rng.random(n) < 0.5).tolist())


@pytest.mark.parametrize("name, level", FAMILIES)
def test_family_conditional_expectation_is_the_former_materialize_route(name, level):
    f = make_functional(name, level)
    for region in _regions(f.grid, np.random.default_rng(level)):
        got, want = conditional_expectation(f, region), old_conditional_expectation(f, region)
        assert np.array_equal(evaluate_table(got), want.backend.values)
        if region.cell_count == f.grid.n_cells:
            assert got is f  # a full region returns f itself, as it does for a table
        else:
            assert isinstance(got.backend, RademacherTable)
            assert not got.backend.values.flags.writeable


@pytest.mark.parametrize("name, level", FAMILIES)
def test_family_level_projection_is_the_former_materialize_route(name, level):
    f = make_functional(name, level)
    for order in range(f.grid.n_cells + 1):
        got, want = level_projection(f, order), old_level_projection(f, order)
        assert np.array_equal(got.backend.values, want.backend.values)


@pytest.mark.parametrize("name, level", FAMILIES)
def test_family_inner_products_are_the_former_materialize_route(name, level):
    subjects = _family_subjects(name, level, seed=level)
    family = subjects["family"]
    for other in ("family", "table", "walsh-chaos"):
        g = subjects[other]
        assert inner_product(family, g) == old_inner_product(family, g)
        assert inner_product(g, family) == old_inner_product(g, family)
    # every other pair of backends dispatches as before: the same bits or both refused
    for f in subjects.values():
        for g in subjects.values():
            try:
                want = old_inner_product(f, g)
            except BackendError:
                with pytest.raises(BackendError):
                    inner_product(f, g)
                continue
            assert inner_product(f, g) == want, (f.kind, g.kind)


REFUSED = [("table", "program"), ("family", "program"), ("family", "hermite-chaos"),
           ("table", "hermite-chaos"), ("walsh-chaos", "program"), ("walsh-chaos", "hermite-chaos")]


@pytest.mark.parametrize("left, right", REFUSED)
def test_rademacher_and_gaussian_backends_do_not_pair(left, right):
    subjects = _family_subjects("tribes", 3, seed=5)
    f, g = subjects[left], subjects[right]
    for a, b in ((f, g), (g, f)):
        with pytest.raises(BackendError, match="cannot pair a Rademacher backend"):
            inner_product(a, b)


@pytest.mark.parametrize("side", ["family", "table", "walsh-chaos"])
def test_mc_inner_product_refuses_rademacher_backends(side):
    subjects = _family_subjects("majority3-iterated", 2, seed=6)
    for f, g in ((subjects[side], subjects["program"]), (subjects["program"], subjects[side]),
                 (subjects[side], subjects[side])):
        with pytest.raises(BackendError, match="MC inner products pair"):
            inner_product_mc(f, g, samples=16, seed=1)


# -- dense tables by array passes ----------------------------------------------


def _windows(k, m, length=Fraction(1, 10)):
    """Adjacent windows of k and m cells, all cells of one length (one cell is level 0)."""
    return (TimeGrid(0, k * length, int(k > 1), base=max(k, 2)),
            TimeGrid(k * length, (k + m) * length, int(m > 1), base=max(m, 2)))


def _random_entries(n, rng, count, size_cap=None):
    entries = {}
    for _ in range(count):
        size = int(rng.integers(0, min(n, size_cap or n) + 1))
        entries[tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))] = float(
            rng.exponential())
    return entries


def _same_table(got, want):
    a, b = got._atoms, want._atoms
    assert got.grid == want.grid
    assert (a.n_plain, a.n_cells) == (b.n_plain, b.n_cells)
    assert np.array_equal(a.rows, b.rows) and a.mass.tobytes() == b.mass.tobytes()


@pytest.mark.parametrize("k, m", [(k, 11 - k) for k in range(1, 11)] + [(10, 2), (2, 2)])
def test_product_of_random_tables_is_the_former_pair_loop(k, m):
    rng = np.random.default_rng(100 * k + m)
    wl, wr = _windows(k, m)
    left = spectral_measure_of(random_functional(wl, rng))
    right = spectral_measure_of(random_functional(wr, rng))
    _same_table(product(left, right), old_product(left, right))
    # sparse sides: a restricted table, and one with no atoms at all
    part = restrict(right, ElementarySet.from_cells(wr, rng.choice(m, size=m // 2).tolist()))
    _same_table(product(left, part), old_product(left, part))
    nothing = SpectralMeasure(wl, {})
    _same_table(product(nothing, right), old_product(nothing, right))


def test_product_of_two_word_rows_is_the_former_pair_loop():
    rng = np.random.default_rng(40)
    wl, wr = _windows(40, 40, Fraction(1, 80))
    for _ in range(5):
        left = SpectralMeasure(wl, _random_entries(40, rng, 30))
        right = SpectralMeasure(wr, _random_entries(40, rng, 30))
        got = product(left, right)
        assert got._atoms.rows.shape[1] == 2
        _same_table(got, old_product(left, right))
    # masses whose product underflows to zero leave the table on both routes
    tiny_l, tiny_r = SpectralMeasure(wl, {(0,): 1e-200, (): 1.0}), SpectralMeasure(wr, {(1,): 1e-200})
    _same_table(product(tiny_l, tiny_r), old_product(tiny_l, tiny_r))
    assert len(product(tiny_l, tiny_r).entries) == 1


def test_absolute_continuity_is_the_former_key_set_rule():
    rng = np.random.default_rng(41)
    grid = TimeGrid(0, 1, 1, base=6)
    empty = SpectralMeasure(grid, {})
    both = SpectralMeasure(grid, {(1, 2): 1.0}, {(1, 2): 0.5})
    plain_only, mult_only = SpectralMeasure(grid, {(1, 2): 1.0}), SpectralMeasure(grid, {}, {(1, 2): 2.0})
    measures = [empty, both, plain_only, mult_only]
    for _ in range(30):
        plain = _random_entries(6, rng, int(rng.integers(0, 8)), size_cap=3)
        mult = _random_entries(6, rng, int(rng.integers(0, 3)), size_cap=3)
        measures.append(SpectralMeasure(grid, plain, mult))
    seen = set()
    for g in measures:
        for f in measures:
            want = old_is_absolutely_continuous(g, f)
            assert is_absolutely_continuous(g, f) is want
            seen.add(want)
    assert seen == {True, False}
    assert is_absolutely_continuous(empty, empty) and not is_absolutely_continuous(both, empty)
    assert is_absolutely_continuous(both, mult_only) and is_absolutely_continuous(both, plain_only)


@pytest.mark.parametrize("name, level", [("tribes", level) for level in range(1, 5)]
                         + [("majority3-iterated", 1), ("majority3-iterated", 2)])
def test_family_values_are_the_former_sign_table_rows(name, level):
    f = make_functional(name, level)
    got, want = family_values(f.grid, f.backend), old_family_values(f.grid, f.backend)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert got.flags.writeable and got is not family_values(f.grid, f.backend)


def test_walsh_table_is_the_former_mask_loop_at_16_cells():
    grid = TimeGrid(0, 1, 4)
    c = decompose(random_functional(grid, np.random.default_rng(16)))
    assert len(c.entries) == 1 << 16
    assert np.array_equal(reconstruct(c).backend.values, old_reconstruct_values(c))


# -- Walsh expansions keep their packed rows --------------------------------------


def _same_expansion(c, want, residual=0.0):
    """`c` against the dict `want`: entries in order, its table below the cap, its measure."""
    assert list(c.entries.items()) == list(want.items())
    assert c.norm_sq == float(sum(v * v for v in want.values()))
    n = c.grid.n_cells
    if n <= DENSE_CELL_CAP:
        got = evaluate_table(NoiseFunctional.from_chaos(c))
        assert got.tobytes() == old_walsh_table(want, n).tobytes()
    mu, old = measure_from_coefficients(c), old_measure_from_coefficients(c.grid, want, residual)
    _same_table(mu, old)
    assert mu.residual == old.residual


@pytest.mark.parametrize("tol", [None, 0.05])
@pytest.mark.parametrize("n", range(1, 17))
def test_decompose_is_the_former_dict_route(n, tol):
    grid = TimeGrid(0, 1, 0) if n == 1 else TimeGrid(0, 1, 1, base=n)
    f = random_functional(grid, np.random.default_rng(200 + n))
    c = decompose(f, tol)
    assert c.rows.shape == (len(c.coeffs), 1)
    _same_expansion(c, old_decompose(f, tol))
    assert reconstruct(c).backend.values.tobytes() == old_walsh_table(c.entries, n).tobytes()


def test_walsh_expansions_built_every_way_are_the_former_dict_routes():
    rng = np.random.default_rng(42)
    for _ in range(10):
        entries = _random_entries(8, rng, 20)  # keys in the order drawn, not sorted
        c = ChaosCoefficients(GRID, entries, WALSH)
        _same_expansion(c, entries)
        keep = lambda ix: len(ix) % 2 == 0  # noqa: E731
        _same_expansion(c.filtered(keep), {ix: v for ix, v in entries.items() if keep(ix)})
        _same_expansion(c.scaled(-1.5), {ix: -1.5 * v for ix, v in entries.items()})
        for k, mode in ((3, "cyclic"), (-2, "cyclic"), (2, "truncate"), (-3, "truncate")):
            moved = shift(NoiseFunctional.from_chaos(c), k, mode).backend
            _same_expansion(moved, old_shift_entries(entries, k, 8, mode))
        other = _random_entries(8, rng, 20)
        merged = dict(entries)
        for ix, v in other.items():
            merged[ix] = merged.get(ix, 0.0) + v
        total = add_coefficients(c, ChaosCoefficients(GRID, other, WALSH, residual=0.25))
        _same_expansion(total, merged, residual=0.25)


def test_a_sparse_expansion_past_one_word_is_the_former_dict_route():
    grid = TimeGrid(0, 1, 1, base=70)
    rng = np.random.default_rng(70)
    entries = _random_entries(70, rng, 40)
    c = ChaosCoefficients(grid, entries, WALSH)
    assert c.rows.shape == (len(entries), 2)
    _same_expansion(c, entries)
    high = {ix: v for ix, v in entries.items() if 64 in ix}
    assert 0 < len(high) < len(entries)
    _same_expansion(c.filtered(lambda ix: 64 in ix), high)
    _same_expansion(c.scaled(0.5), {ix: 0.5 * v for ix, v in entries.items()})
    moved = shift(NoiseFunctional.from_chaos(c), 5, "truncate").backend
    _same_expansion(moved, old_shift_entries(entries, 5, 70, "truncate"))


def test_rows_to_values_and_measure_never_decode(monkeypatch):
    f = random_functional(TimeGrid(0, 1, 4), np.random.default_rng(16))

    def refuse(rows, n_cells):
        raise AssertionError("a Walsh expansion was decoded to cell tuples")

    for module in ("walsh", "chaos", "spectral"):
        monkeypatch.setattr(f"noisespectra.{module}.cells_of_rows", refuse)
    c = decompose(f)
    values = reconstruct(c).backend.values
    assert evaluate_table(NoiseFunctional.from_chaos(c)).tobytes() == values.tobytes()
    profile = cardinality_profile(spectral_measure_of(NoiseFunctional.from_chaos(c)))
    assert len(profile) == 17 and "entries" not in vars(c)
    with pytest.raises(AssertionError, match="decoded"):
        c.entries


# -- selections of a chaos expansion are row queries -----------------------------


def _same_selection(got, want, like):
    """`got` against the former (entries, residual): entries in order and bit for bit, the
    residual, the squared norm, and the grid, kind and channels of the source `like`."""
    entries, residual = want
    assert list(got.entries.items()) == list(entries.items())
    bits = [np.array(list(m.values()), dtype=np.float64).tobytes() for m in (got.entries, entries)]
    assert bits[0] == bits[1]
    assert got.residual == residual
    assert got.norm_sq == float(sum(v * v for v in entries.values()))
    assert (got.grid, got.kind, got.channels) == (like.grid, like.kind, like.channels)


def _two_channel_program(grid, rng):
    n = grid.n_cells
    maps = MapTerm(0.8, (MapFactor(1, 0, "cos", (0.9,)), MapFactor(1, 1, "poly", (0.2, 1.0, 0.4)),
                         MapFactor(n - 1, 1, "tanh", (1.3,))))
    kernel = SimplexKernel(2, n, dense=rng.standard_normal((n, n)), channels=(1, 0))
    return NoiseFunctional.from_program(grid, [ItoTerm(0.6, kernel), maps], degree_cap=3,
                                        channels=2)


def _selection_subjects():
    """Walsh expansions of random tables at 1-12 cells and of random dicts (one on 70 cells,
    two-word rows), Hermite expansions of programs, and empty expansions of both kinds."""
    rng = np.random.default_rng(35)
    for n in range(1, 13):
        grid = TimeGrid(0, 1, 0) if n == 1 else TimeGrid(0, 1, 1, base=n)
        yield decompose(random_functional(grid, rng), 0.3 if n % 3 == 0 else None)
        yield ChaosCoefficients(grid, _random_entries(n, rng, 12), WALSH, residual=0.125 * (n % 2))
    wide = ChaosCoefficients(TimeGrid(0, 1, 1, base=70), _random_entries(70, rng, 40), WALSH)
    assert wide.rows.shape[1] == 2
    yield wide
    for program in (_program(rng), _two_channel_program(GRID, rng)):
        hermite = hermite_decompose(GRID, program.backend)
        assert hermite.residual > 0 and any(map(old_index_has_multiplicity, hermite.entries))
        yield hermite
    yield ChaosCoefficients(GRID, {}, WALSH)
    yield ChaosCoefficients(GRID, {}, HERMITE, channels=2, residual=0.5)


@pytest.mark.parametrize("c", list(_selection_subjects()),
                         ids=lambda c: f"{c.kind}-{c.grid.n_cells}-{len(c.coeffs)}")
def test_selections_are_the_former_predicate_routes(c):
    grid, n = c.grid, c.grid.n_cells
    f = NoiseFunctional.from_chaos(c)
    rng = np.random.default_rng(n + len(c.coeffs))
    for region in _regions(grid, rng):
        got = conditional_expectation(f, region).backend
        _same_selection(got, old_chaos_projection(c, region), c)
    for order in range(min(n, 5) + 2):
        _same_selection(level_projection(f, order).backend, old_chaos_level(c, order), c)
    for _ in range(8):
        cuts = [grid.boundary(b) for b in rng.choice(n + 1, size=int(rng.integers(0, n + 2)))]
        got = finite_chaos_partition_span(f, cuts).backend
        _same_selection(got, old_partition_span(c, cuts), c)
    mask = rng.random(len(c.coeffs)) < 0.5
    picked = {ix for ix, m in zip(c.entries, mask) if m}
    _same_selection(c.filtered(mask), old_filtered(c, picked.__contains__), c)
    odd = lambda ix: len(ix) % 2 == 1  # noqa: E731
    _same_selection(c.filtered(odd), old_filtered(c, odd), c)
    _same_selection(c.filtered(np.zeros(len(c.coeffs), dtype=bool)), ({}, c.residual), c)
    for factor in (-1.5, 3, 0.0, -0.0, 1e-300):
        _same_selection(c.scaled(factor), old_scaled(c, factor), c)
    for k in (-n - 1, -2, -1, 0, 1, 3, n):
        for mode in ("cyclic", "truncate"):
            if mode == "cyclic" and abs(k) > n:
                continue
            moved = shift(f, k, mode).backend
            _same_selection(moved, (old_shift_entries(c.entries, k, n, mode), c.residual), c)
    # an additive integral from the one-cell part, and one refused for other indices
    first = level_projection(f, 1).backend
    one_cell, is_zero = old_additive_integral(first)
    assert one_cell and AdditiveIntegral(grid, first).is_zero == is_zero
    family = AdditiveIntegral(grid, first)
    for lo, hi in [(0, 0), (0, n), *(sorted(rng.choice(n + 1, size=2)) for _ in range(6))]:
        got = family.member(grid.boundary(int(lo)), grid.boundary(int(hi))).backend
        _same_selection(got, old_member(first, lo, hi), c)
    if not old_additive_integral(c)[0]:
        with pytest.raises(ValueError, match="one-cell indices only"):
            AdditiveIntegral(grid, c)


@pytest.mark.parametrize("c", [decompose(random_functional(GRID, np.random.default_rng(37))),
                               hermite_decompose(GRID, _program(np.random.default_rng(38)).backend)],
                         ids=[WALSH, HERMITE])
def test_expansions_pickle_and_copy_before_and_after_entries_are_read(c):
    import copy
    import pickle

    for read in (False, True):
        if read:
            c.entries  # the dict made from the columns is kept
        for twin in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
            assert twin == c
            assert list(twin.entries.items()) == list(c.entries.items())
            assert twin.coeffs.tobytes() == c.coeffs.tobytes() and twin.residual == c.residual


def test_program_level_projection_is_the_expansion_route():
    # a program with map terms projects through its Hermite expansion, so multiplicity
    # indices are dropped as on the expansion itself, and each order keeps its spectral mass
    rng = np.random.default_rng(36)
    programs = [p for _ in range(3) for p in (_program(rng), _two_channel_program(GRID, rng))]
    for program in programs:
        expansion = NoiseFunctional.from_chaos(hermite_decompose(GRID, program.backend))
        masses = chaos_order_masses(program)
        for order in range(5):
            got = level_projection(program, order)
            want = level_projection(expansion, order).backend
            assert list(got.backend.entries.items()) == list(want.entries.items())
            assert got.backend.rows.tobytes() == want.rows.tobytes()
            assert got.backend.coeffs.tobytes() == want.coeffs.tobytes()
            assert (got.backend.residual, got.backend.channels) == (want.residual, want.channels)
            assert abs(norm_sq(got) - masses.get(order, 0.0)) <= 1e-12
    # one squared cell: he_2 is no pure order, so order 1 keeps only the linear part
    grid = TimeGrid(0, 1, 2)
    square = NoiseFunctional.from_program(
        grid, [MapTerm(1.0, (MapFactor(1, 0, "poly", (0.0, 1.0, 1.0)),))])
    one = level_projection(square, 1)
    assert list(one.backend.entries) == [((1, 0, 1),)]
    assert abs(norm_sq(one) - 0.25) <= 1e-12 and abs(chaos_order_masses(square)[1] - 0.25) <= 1e-12


def test_selections_never_decode(monkeypatch, capsys, tmp_path):
    from noisespectra import functional_to_data, write_json
    from noisespectra import cli

    grid = TimeGrid(0, 1, 4)
    table = random_functional(grid, np.random.default_rng(16))
    write_json(tmp_path / "table16.json", functional_to_data(table))
    c = decompose(table)
    f = NoiseFunctional.from_chaos(c)

    def refuse(rows, n_cells):
        raise AssertionError("a Walsh expansion was decoded to cell tuples")

    for module in ("walsh", "chaos", "spectral"):
        monkeypatch.setattr(f"noisespectra.{module}.cells_of_rows", refuse)
    built = [
        conditional_expectation(f, ElementarySet.parse(grid, "0:5,9:14")).backend,
        level_projection(f, 2).backend,
        finite_chaos_partition_span(f, [grid.boundary(b) for b in (0, 3, 8, 11, 16)]).backend,
        additive_integral_of(table).member(grid.boundary(2), grid.boundary(13)).backend,
        c.filtered(row_sizes(c.rows) % 3 == 1),
        c.scaled(-1.5),
    ]
    for out in built:
        assert len(out.coeffs) and "entries" not in vars(out)
        with pytest.raises(AssertionError, match="decoded"):
            out.entries
    assert "entries" not in vars(c)
    # `cli decompose` counts its entries from the column; the file writer renders each
    # row's cells as text through its own binding of the decoder
    made = []
    monkeypatch.setattr(cli, "decompose", lambda *a: made.append(decompose(*a)) or made[-1])
    out = tmp_path / "coeffs16.json"
    assert cli.main(["decompose", "--in", str(tmp_path / "table16.json"), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "65536 entries, residual 0.0\n"
    assert len(made) == 1 and "entries" not in vars(made[0])
