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


def test_array_argument_equals_scalar_calls(f13):
    # 0 included: its dlog is the -1 sentinel, which must not be read as g^(q-2)
    xs = np.array([0, 1, 2, 12, 0, 7], dtype=np.int64)
    got = hyperf.hf_eval(f13, [1, 5], [6], xs)
    assert got.dtype == np.complex128 and got.shape == xs.shape
    assert got.tolist() == [hyperf.hf_eval(f13, [1, 5], [6], int(x)) for x in xs]


def test_mismatched_parameter_lists(f13):
    with pytest.raises(ValueError):
        hyperf.hf_eval(f13, [1, 5], [6, 2], 1)
    with pytest.raises(ValueError):
        hyperf.hf_eval(f13, [1], [6], 1)


def test_exponents_take_the_integer_rule():
    # a fresh field, so no cached table answers the probe: the check runs
    # when a table is built, and only then
    ctx = make_field(13)
    for upper, lower in (([1.5, 5], [6]), ([True, 5], [6]), ([1, 5], [np.float64(6)])):
        with pytest.raises(ValueError, match="exponent must be an integer"):
            hyperf.hf_eval(ctx, upper, lower, 3)
    want = hyperf.hf_eval(ctx, [1, 5], [6], 3)
    assert hyperf.hf_eval(make_field(13), [np.int64(1), np.uint8(5)], [np.int32(6)], 3) == want


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
        slow = hyperf.hf_direct(f13, [1, 5], [6], x)
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


def test_table_probe_takes_reduced_and_unreduced_exponents(f13):
    # exponents a caller gives are checked and reduced on every probe
    tab = hyperf.hf_table(f13, [1, 5], [6])
    assert hyperf.hf_params(f13, [13, -7], [18]) == ((1, 5), (6,))
    for upper, lower in (((1, 5), (6,)), ([1, 5], [6]), ([13, -7], [18]),
                         (np.array([1, 5]), np.array([6]))):
        assert hyperf.hf_table(f13, upper, lower) is tab
    # a probe never stands in for the parameter check
    with pytest.raises(ValueError):
        hyperf.hf_eval(f13, [1, 5], [6, 2], 1)
    with pytest.raises(ValueError):
        hyperf.hf_eval(f13, (1, 5, 6), (), 1)


def test_warm_probes_are_checked_and_plans_skip_the_check(monkeypatch):
    from charsum import apps, curves

    ctx = make_field(13)
    want = hyperf.hf_eval(ctx, [1, 5], [6], 3)
    for upper in ([True, 5], [1.0, 5]):
        with pytest.raises(ValueError, match="exponent must be an integer"):
            hyperf.hf_eval(ctx, upper, [6], 3)
    assert hyperf.hf_eval(ctx, (1, 5), (6,), 3) == want
    spec = curves.CurveSpec(ctx, 2, 3, 1, 2)
    expected = curves.count_theorem(spec), apps.lennon_trace(ctx, 1, 2)

    def refuse(*args):
        raise AssertionError("hf_params called on a warm plan")

    monkeypatch.setattr(hyperf, "hf_params", refuse)
    assert (curves.count_theorem(spec), apps.lennon_trace(ctx, 1, 2)) == expected


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
