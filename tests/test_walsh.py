import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from noisespectra import walsh
from noisespectra.walsh import (
    cells_of_rows,
    character_coefficients,
    fwht,
    omega_index,
    values_from_coefficients,
)
from test_merged_routes import old_sign_table


def bits_of(m):
    return tuple(i for i in range(m.bit_length()) if m >> i & 1)


def brute_walsh_matrix(n):
    """chi[m, pos] = prod of omega_i over i in mask m, built entrywise."""
    table = old_sign_table(n)
    out = np.empty((1 << n, 1 << n))
    for m in range(1 << n):
        cells = bits_of(m)
        out[m] = table[:, cells].prod(axis=1) if cells else 1.0
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_fwht_matches_character_matrix(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(1 << n)
    chi = brute_walsh_matrix(n)
    assert_allclose(fwht(values), chi @ values, atol=1e-12)


@given(st.integers(0, 6), st.integers(0, 2**31 - 1))
def test_fwht_is_an_involution_up_to_scale(n, seed):
    values = np.random.default_rng(seed).standard_normal(1 << n)
    assert_allclose(fwht(fwht(values)), (1 << n) * values, rtol=1e-13, atol=1e-13)


def stage_loop_fwht(values):
    """The transform one stage at a time over the whole array."""
    a = np.array(values, dtype=np.float64)
    h = 1
    while h < a.shape[0]:
        b = a.reshape(-1, 2, h)
        top = b[:, 0, :].copy()
        b[:, 0, :] += b[:, 1, :]
        np.subtract(top, b[:, 1, :], out=b[:, 1, :])
        h *= 2
    return a


@pytest.mark.parametrize("n", range(0, 23))
def test_blocked_fwht_equals_the_stage_loop_bit_for_bit(n):
    # int64 views, so that -0.0 and 0.0 (equal as floats) and NaN payloads count as different
    rng = np.random.default_rng(n)
    tables = (rng.standard_normal(1 << n), rng.choice([-1.0, 1.0], 1 << n),
              rng.choice([-0.0, 0.0], 1 << n),
              rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e-300, 1.0], 1 << n))
    for kind, values in zip(("normal", "signs", "zeros", "mixed"), tables):
        with np.errstate(over="ignore", invalid="ignore"):  # 1e300 sums reach inf, then nan
            got, want = fwht(values), stage_loop_fwht(values)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), kind


@pytest.mark.parametrize("block", [1, 2, 8])
def test_fwht_strips_of_any_width_equal_the_stage_loop(monkeypatch, block):
    # small blocks send short tables through the strip route, with more rows than a block
    monkeypatch.setattr(walsh, "FWHT_BLOCK", block)
    for n in range(0, 12):
        values = np.random.default_rng(n).standard_normal(1 << n)
        assert np.array_equal(fwht(values).view(np.int64), stage_loop_fwht(values).view(np.int64)), n


def test_fwht_rejects_bad_lengths():
    for k in (0, 3, 6):
        with pytest.raises(ValueError):
            fwht(np.zeros(k))


@pytest.mark.parametrize("values, named", [
    (np.arange(4.0).reshape(2, 2), r"shape \(2, 2\)"),
    (np.zeros((1, 8)), r"shape \(1, 8\)"),
    (np.float64(1.0), r"shape \(\)"),
    (np.array([1 + 2j, 3.0]), "dtype complex128"),
    (np.zeros(4, np.complex64), "dtype complex64"),
])
def test_fwht_refuses_tables_it_cannot_transform(values, named):
    with pytest.raises(ValueError, match=named):
        fwht(values)


def test_fwht_peak_memory_is_the_output_and_its_scratch():
    # one copy of the input plus one or two scratch blocks; a route that copies half the
    # table per stage peaks at 2.0x the input at 2**20 entries and at 3.05x at 2**12
    for n, bound in ((20, 1.25), (12, 2.5)):
        values = np.random.default_rng(n).standard_normal(1 << n)
        tracemalloc.start()
        try:
            fwht(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * values.nbytes, (n, peak / values.nbytes)


def test_coefficients_are_expectations_against_characters():
    n = 4
    rng = np.random.default_rng(7)
    values = rng.standard_normal(1 << n)
    coeffs = character_coefficients(values)
    chi = brute_walsh_matrix(n)
    assert_allclose(coeffs, chi @ values / (1 << n), atol=1e-14)
    assert_allclose(values_from_coefficients(coeffs), values, atol=1e-12)


def test_parseval():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(64)
    coeffs = character_coefficients(values)
    assert_allclose(np.sum(coeffs**2), np.mean(values**2), rtol=1e-13)


def test_omega_index_convention():
    # bit i set <=> omega_i = -1
    assert omega_index([1, 1, 1]) == 0
    assert omega_index([-1, 1, 1]) == 1
    assert omega_index([1, -1, 1]) == 2
    assert omega_index([-1, -1, -1]) == 7
    for pos in range(8):
        assert omega_index([-1 if pos >> i & 1 else 1 for i in range(3)]) == pos


def test_mask_helpers():
    for n in (0, 1, 5, 11):
        every = list(range(1 << n))
        rows = np.array(every, np.uint64)[:, None]
        assert cells_of_rows(rows, n) == [bits_of(m) for m in every]
        sparse = every[::7][::-1]
        assert cells_of_rows(rows[sparse], n) == [bits_of(m) for m in sparse]


def _rows_by_loop(keys, n_cells):
    """`_checked_rows` one cell at a time: the first bad list's index, or the OR of each list's bits."""
    words = max(1, -(-n_cells // 64))
    rows = np.zeros((len(keys), words), dtype=np.uint64)
    for i, cells in enumerate(keys):
        good = all((type(c) is int or isinstance(c, np.integer)) and 0 <= c < n_cells for c in cells)
        if not good or any(a >= b for a, b in zip(cells, cells[1:])):
            return None, i
        for c in cells:
            rows[i, int(c) // 64] |= np.uint64(1 << (int(c) % 64))
    return rows, None


@pytest.mark.parametrize("n_cells", [1, 7, 64, 65, 130, 200])
def test_checked_rows_matches_the_cell_loop(n_cells):
    from noisespectra.walsh import _checked_rows

    rng = np.random.default_rng(n_cells)
    for trial in range(40):
        keys = [sorted(rng.choice(n_cells, size=int(rng.integers(0, min(n_cells, 9) + 1)),
                                  replace=False).tolist()) for _ in range(int(rng.integers(0, 12)))]
        if trial % 4 == 1 and keys:  # one list spoiled by a bool, a float, a huge int or its order
            i = int(rng.integers(len(keys)))
            keys[i] = [*keys[i], [True, 1.0, 1 << 70, -1, n_cells][trial % 5]]
        if trial % 4 == 2 and keys:
            keys[int(rng.integers(len(keys)))] = [np.int32(0), np.uint64(n_cells - 1)][: 1 + (n_cells > 1)]
        got, want = _checked_rows(keys, n_cells), _rows_by_loop(keys, n_cells)
        assert got[1] == want[1], keys
        if want[0] is not None:
            assert got[0].dtype == np.uint64 and np.array_equal(got[0], want[0]), keys
    assert _checked_rows([[], [], []], n_cells)[0].shape == (3, max(1, -(-n_cells // 64)))
    if n_cells > 1:
        assert _checked_rows([[0], [1, 0], [2]], n_cells) == (None, 1)
