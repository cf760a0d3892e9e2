"""Hypergeometric series evaluation against a literal-definition oracle."""

import random
import tracemalloc

import numpy as np
import pytest

from charsum import chars, hyperf, make_field, sums

from conftest import field


def binom_oracle(ctx, a, b):
    """Greene binomial from the defining Jacobi summation."""
    j = sum(
        chars.mul_char(ctx, a, x) * chars.mul_char(ctx, -b, ctx.sub(1, x))
        for x in ctx.elements()
    )
    return chars.mul_char(ctx, b, ctx.minus_one()) / ctx.q * j


def hf_oracle(ctx, upper, lower, x):
    """Term-by-term series sum with no caching anywhere."""
    L = ctx.q - 1
    total = 0j
    for k in range(L):
        term = binom_oracle(ctx, upper[0] + k, k)
        for a_i, b_i in zip(upper[1:], lower):
            term *= binom_oracle(ctx, a_i + k, b_i + k)
        total += term * chars.mul_char(ctx, k, x)
    return ctx.q / L * total


def test_zero_argument_is_zero(f13):
    assert hyperf.hf_eval(f13, [1, 5], [6], 0) == 0


def test_mismatched_parameter_lists(f13):
    with pytest.raises(ValueError):
        hyperf.hf_eval(f13, [1, 5], [6, 2], 1)
    with pytest.raises(ValueError):
        hyperf.hf_eval(f13, [1], [6], 1)


def test_2f1_matches_oracle_every_argument(f13):
    for x in f13.elements():
        got = hyperf.hf_eval(f13, [1, 5], [6], x)
        assert abs(got - hf_oracle(f13, [1, 5], [6], x)) < 1e-10


def test_3f2_matches_oracle_sampled(f17):
    for x in (1, 5, 9, 16):
        got = hyperf.hf_eval(f17, [2, 7, 11], [4, 8], x)
        assert abs(got - hf_oracle(f17, [2, 7, 11], [4, 8], x)) < 1e-10


def test_extension_field_series(f25):
    for x in (1, 7, 24):
        got = hyperf.hf_eval(f25, [3, 10], [12], x)
        assert abs(got - hf_oracle(f25, [3, 10], [12], x)) < 1e-10


def test_direct_rows_agree_with_cached(f13):
    for x in f13.units():
        fast = hyperf.hf_eval(f13, [1, 5], [6], x)
        slow = hyperf.hf_eval(f13, [1, 5], [6], x, rows="direct")
        assert abs(fast - slow) < 1e-9 * f13.q


def test_shifted_binom_rows_match_scalar(f13):
    k = np.arange(12)
    for a, b in [(1, 0), (5, 6), (0, 4), (7, 7), (3, 6)]:
        row = sums.binom_grid(f13, a + k, b + k)
        for j in range(12):
            assert abs(row[j] - sums.greene_binom(f13, a + j, b + j)) < 1e-12


def test_half_argument_special_value():
    # 2F1(phi, phi; eps | 1/2) = phi(-2) * (binom(T^(L/4), phi) + binom(T^(3L/4), phi))
    for p in (13, 17, 29, 37):
        ctx = field(p)
        L = p - 1
        lhs = hyperf.hf_eval(ctx, [L // 2, L // 2], [0], ctx.inv(ctx.embed(2)))
        rhs = chars.mul_char(ctx, L // 2, ctx.neg(2)) * (
            sums.greene_binom(ctx, L // 4, L // 2)
            + sums.greene_binom(ctx, 3 * L // 4, L // 2)
        )
        assert abs(lhs - rhs) < 1e-10


def test_determinism_bit_identical(f13):
    a = hyperf.hf_eval(f13, [1, 5], [6], 3)
    b = hyperf.hf_eval(f13, [1, 5], [6], 3)
    assert a == b


def test_trivial_parameters_handled_literally(f13):
    # a degenerate upper parameter (eps) must go through the generic path
    got = hyperf.hf_eval(f13, [0, 5], [6], 2)
    assert abs(got - hf_oracle(f13, [0, 5], [6], 2)) < 1e-10


def dot_at(ctx, upper, lower, x):
    """The series at one x as one O(q) dot of the row product with chi(x)."""
    L = ctx.q - 1
    k = np.arange(L)
    rows = sums.binom_grid(ctx, np.array(upper)[:, None] + k, np.array([0] + lower)[:, None] + k)
    acc = np.prod(rows, axis=0)
    chi_x = chars.unit_roots(ctx)[(np.arange(L) * ctx.dlog_of(x)) % L]
    return ctx.q / L * complex(np.dot(acc, chi_x))


_TABLE_PARAMS = [([1, 5], [6]), ([2, 7, 11], [4, 8]), ([0, 3], [9]), ([6, 6], [0])]


@pytest.mark.parametrize("pn", [(13, 1), (17, 1), (5, 2), (3, 3)], ids=["13", "17", "25", "27"])
def test_table_matches_dot_every_argument(pn):
    ctx = field(*pn)
    for upper, lower in _TABLE_PARAMS:
        for x in ctx.units():
            got = hyperf.hf_eval(ctx, upper, lower, x)
            assert abs(got - dot_at(ctx, upper, lower, x)) <= 1e-12


@pytest.mark.parametrize("pn", [(4093, 1), (3, 8)], ids=["4093", "3^8"])
def test_table_matches_dot_sampled(pn):
    ctx = field(*pn)
    L = ctx.q - 1
    rng = random.Random(4093)
    params = [([L // 12, 5 * L // 12], [L // 2]), ([L // 2, L // 4, 3 * L // 4], [L // 3, 1])]
    for upper, lower in params:
        for _ in range(200):
            x = rng.randrange(1, ctx.q)
            got = hyperf.hf_eval(ctx, upper, lower, x)
            assert abs(got - dot_at(ctx, upper, lower, x)) <= 1e-12


def test_table_cached_frozen_and_reduced(f13):
    tab = hyperf.hf_table(f13, [1, 5], [6])
    assert tab.shape == (12,)
    with pytest.raises(ValueError):
        tab[0] = 0
    assert hyperf.hf_table(f13, [13, -7], [18]) is tab
    assert hyperf.hf_table(f13, (1, 5), (-5,)) is not tab
    with pytest.raises(ValueError):
        hyperf.hf_table(f13, [1], [6])


def test_binom_row_and_series_table_peak_memory():
    # tracemalloc peaks at q = 4093, in rows of 16(q-1) bytes: measured 3.64
    # for a full binom_grid row and 5.16 for a 4F3 table build (the table
    # itself is one row), against 5.0 and 6.5 with a temporary per factor
    ctx = make_field(4093)
    sums.gauss_table(ctx)
    L = ctx.q - 1
    row = 16 * L
    top, bottom = np.arange(5, 5 + L), np.arange(7, 7 + L)
    sums.binom_grid(ctx, top, bottom)  # any table it reads is built here
    tracemalloc.start()
    try:
        sums.binom_grid(ctx, top, bottom)
        grid_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        hyperf.hf_table(ctx, (L // 2, L // 4, 3 * L // 4, L // 3), (L // 6, 1, L // 2))
        table_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid_peak < 4.0 * row
    assert table_peak < 5.7 * row
