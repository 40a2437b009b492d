import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

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


@pytest.mark.parametrize("n", range(16, 21))
def test_blocked_fwht_equals_the_stage_loop_bit_for_bit(n):
    values = np.random.default_rng(n).standard_normal(1 << n)
    assert np.array_equal(fwht(values), stage_loop_fwht(values))


def test_fwht_rejects_bad_lengths():
    for k in (0, 3, 6):
        with pytest.raises(ValueError):
            fwht(np.zeros(k))


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
    with pytest.raises(ValueError):
        omega_index([1, 0])
    for pos in range(8):
        assert omega_index([-1 if pos >> i & 1 else 1 for i in range(3)]) == pos


def test_mask_helpers():
    for n in (0, 1, 5, 11):
        every = list(range(1 << n))
        rows = np.array(every, np.uint64)[:, None]
        assert cells_of_rows(rows, n) == [bits_of(m) for m in every]
        sparse = every[::7][::-1]
        assert cells_of_rows(rows[sparse], n) == [bits_of(m) for m in sparse]
