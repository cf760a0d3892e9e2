"""Field construction, arithmetic, dlog tables, and the trace map."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from charsum.field import FieldError, factor_prime_power, make_field

from conftest import field


def brute_order(ctx, x):
    k, acc = 1, x
    while acc != 1:
        acc = ctx.mul(acc, x)
        k += 1
    return k


def test_f13_generator_is_two(f13):
    assert f13.q == 13
    assert f13.g == 2
    # exhaustive order check: 2 is the first element of order 12
    assert brute_order(f13, 2) == 12
    for cand in (1,):
        assert brute_order(f13, cand) < 12


def test_f9_modulus_is_smallest_irreducible(f9):
    assert f9.q == 9
    assert f9.modulus == (1, 0, 1)  # t^2 + 1
    # independent oracle: enumerate monic quadratics in candidate order,
    # test irreducibility by root search
    p = 3
    for code in range(p**2):
        a0, a1 = code % p, (code // p) % p
        has_root = any((t * t + a1 * t + a0) % p == 0 for t in range(p))
        if not has_root:
            assert (a0, a1, 1) == f9.modulus
            break
        assert (a0, a1, 1) != f9.modulus


def test_nonprime_p_rejected():
    with pytest.raises(FieldError):
        make_field(4)


def test_size_cap_enforced():
    with pytest.raises(FieldError):
        make_field(13, size_cap=12)
    assert make_field(13, size_cap=13).q == 13


def test_known_extension_moduli(f25, f27):
    assert f25.modulus == (2, 0, 1)  # t^2 + 2
    assert f27.modulus == (1, 2, 0, 1)  # t^3 + 2t + 1


def test_arith_examples(f13):
    x = 9
    assert f13.mul(x, 1) == x
    assert f13.inv(2) == 7
    with pytest.raises(ZeroDivisionError):
        f13.inv(0)


def test_dlog_examples(f13):
    assert f13.dlog_of(8) == 3  # 2^3
    assert f13.dlog_of(1) == 0
    assert f13.dlog_of(11) == 7  # 2^7 = 128 = 11 (mod 13)
    with pytest.raises(ZeroDivisionError):
        f13.dlog_of(0)


def test_exp_dlog_roundtrip(f13, f9, f27):
    for ctx in (f13, f9, f27):
        for k in range(ctx.q - 1):
            assert ctx.dlog_of(int(ctx.exp[k])) == k
        for x in ctx.units():
            assert int(ctx.exp[ctx.dlog_of(x)]) == x


@given(st.integers(1, 12), st.integers(1, 12))
def test_dlog_homomorphism_f13(x, y):
    ctx = field(13)
    lhs = ctx.dlog_of(ctx.mul(x, y))
    assert lhs == (ctx.dlog_of(x) + ctx.dlog_of(y)) % 12


@given(st.integers(1, 26), st.integers(1, 26))
def test_dlog_homomorphism_f27(x, y):
    ctx = field(3, 3)
    lhs = ctx.dlog_of(ctx.mul(x, y))
    assert lhs == (ctx.dlog_of(x) + ctx.dlog_of(y)) % 26


def test_trace_prime_field_is_identity(f13):
    for x in f13.elements():
        assert f13.trace(x) == x


def test_trace_f9_examples(f9):
    t = f9.from_coeffs((0, 1))
    assert f9.trace(t) == 0  # t + t^3 = t - t = 0
    assert f9.trace(0) == 0


def test_trace_additive_and_surjective(f9, f25, f27):
    for ctx in (f9, f25, f27):
        for x in range(ctx.q):
            for y in range(0, ctx.q, 5):
                assert ctx.trace(ctx.add(x, y)) == (ctx.trace(x) + ctx.trace(y)) % ctx.p
        assert set(ctx.trace(x) for x in ctx.elements()) == set(range(ctx.p))
        # F_p-linearity
        for c in range(ctx.p):
            for x in range(0, ctx.q, 3):
                assert ctx.trace(ctx.mul(c, x)) == (c * ctx.trace(x)) % ctx.p


def test_generator_canonical_across_rebuilds():
    a = make_field(37)
    b = make_field(37)
    assert a.g == b.g
    x = make_field(3, 3)
    y = make_field(3, 3)
    assert x.g == y.g and x.modulus == y.modulus
    assert np.array_equal(x.exp, y.exp)


def test_vector_ops_match_scalar(f27):
    xs = np.arange(f27.q, dtype=np.int64)
    ys = (xs * 7 + 3) % f27.q
    added = f27.add_vec(xs, ys)
    for x, y, s in zip(xs, ys, added):
        assert int(s) == f27.add(int(x), int(y))
    powed = f27.pow_vec(xs, 5)
    for x, v in zip(xs, powed):
        assert int(v) == f27.pow(int(x), 5)
    muled = f27.mul_vec(xs, 11)
    for x, v in zip(xs, muled):
        assert int(v) == f27.mul(int(x), 11)


def test_factor_prime_power():
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(13) == (13, 1)
    with pytest.raises(FieldError):
        factor_prime_power(14)
    with pytest.raises(FieldError):
        factor_prime_power(1)


def test_sqrt_canonical(f13):
    for x in f13.units():
        if f13.dlog_of(x) % 2 == 0:
            r = f13.sqrt_canonical(x)
            assert f13.mul(r, r) == x
            assert f13.dlog_of(r) < 6  # canonical branch: dlog below (q-1)/2
        else:
            with pytest.raises(ValueError):
                f13.sqrt_canonical(x)


# -- the linear-algebra table builders against the element-by-element ones ----

def reference_tables(ctx):
    """exp, dlog and trace tables built one element at a time: a literal
    g^k loop through the polynomial product, and the Frobenius sum
    x + x^p + ... + x^(p^(n-1)) for every x."""
    order = ctx.q - 1
    exp = np.zeros(order, dtype=np.int64)
    dlog = np.full(ctx.q, -1, dtype=np.int64)
    acc = 1
    for k in range(order):
        exp[k] = acc
        dlog[acc] = k
        acc = ctx._raw_mul(acc, ctx.g)
    assert acc == 1
    tr = np.zeros(ctx.q, dtype=np.int64)
    for x in range(ctx.q):
        acc = total = x
        for _ in range(ctx.n - 1):
            acc = ctx._raw_pow(acc, ctx.p)
            total = ctx.add(total, acc)
        coeffs = ctx.to_coeffs(total)
        assert not any(coeffs[1:])
        tr[x] = coeffs[0]
    return exp, dlog, tr


@pytest.mark.parametrize(
    "p,n", [(13, 1), (3, 2), (5, 2), (3, 3), (3, 5), (2, 8), (7, 4)],
    ids=["13", "3^2", "5^2", "3^3", "3^5", "2^8", "7^4"],
)
def test_tables_match_reference_builder(p, n):
    ctx = field(p, n)
    exp, dlog, tr = reference_tables(ctx)
    for got, want in ((ctx.exp, exp), (ctx.dlog, dlog), (ctx.trace_tab, tr)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


_VEC_FIELDS = [(13, 1), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]


@given(
    st.sampled_from(_VEC_FIELDS),
    st.sampled_from(["same", "outer", "scalar", "row"]),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_vec_ops_match_scalar_ops(pn, shape, rows, cols, seed):
    ctx = field(*pn)
    rng = np.random.default_rng(seed)
    xs_shape, ys_shape = {
        "same": ((rows, cols), (rows, cols)),
        "outer": ((rows, 1), (1, cols)),
        "scalar": ((), (rows,)),
        "row": ((rows, cols), (cols,)),
    }[shape]
    xs = rng.integers(0, ctx.q, size=xs_shape)
    ys = rng.integers(0, ctx.q, size=ys_shape)
    added = ctx.add_vec(xs, ys)
    bx, by = np.broadcast_arrays(xs, ys)
    assert added.shape == bx.shape and added.dtype == np.int64
    for x, y, s in zip(bx.ravel(), by.ravel(), np.ravel(added)):
        assert int(s) == ctx.add(int(x), int(y))
    negated = ctx.neg_vec(ys)
    assert negated.shape == ys.shape and negated.dtype == np.int64
    for y, v in zip(ys.ravel(), negated.ravel()):
        assert int(v) == ctx.neg(int(y))


def coeffwise_add(ctx, x, y):
    """x + y digit by digit on the coefficient vectors, mod p."""
    cx, cy = ctx.to_coeffs(x), ctx.to_coeffs(y)
    return sum(((a + b) % ctx.p) * ctx.p**i for i, (a, b) in enumerate(zip(cx, cy)))


def coeffwise_neg(ctx, x):
    return sum(((-c) % ctx.p) * ctx.p**i for i, c in enumerate(ctx.to_coeffs(x)))


def assert_add_matches_coefficientwise(ctx, xs, ys):
    got = ctx.add_vec(xs, ys)
    bx, by = np.broadcast_arrays(xs, ys)
    assert got.shape == bx.shape and got.dtype == np.int64
    pairs = [(int(x), int(y)) for x, y in zip(bx.ravel(), by.ravel())]
    want = [coeffwise_add(ctx, x, y) for x, y in pairs]
    assert np.ravel(got).tolist() == want
    scalar = [ctx.add(x, y) for x, y in pairs]
    assert scalar == want and all(type(v) is int for v in scalar)


@pytest.mark.parametrize(
    "p,n", [(2, 3), (3, 2), (5, 2), (3, 3), (2, 5), (3, 4), (5, 3), (7, 2)],
    ids=["8", "9", "25", "27", "32", "81", "125", "49"],
)
def test_scalar_add_neg_match_coefficientwise(p, n):
    # add, add_vec and neg read the sum and negation tables; the reference
    # works on the coefficient vectors, so neither side is built from the
    # other.  Odd n splits the digits into unequal halves.
    ctx = field(p, n)
    for x in ctx.elements():
        assert ctx.neg(x) == coeffwise_neg(ctx, x)
        assert type(ctx.neg(x)) is int
    xs = np.arange(ctx.q, dtype=np.int64)
    assert_add_matches_coefficientwise(ctx, xs[:, None], xs[None, :])


# -- the spread-digit encoding on larger fields --------------------------------

@pytest.mark.parametrize(
    "p,n", [(7, 4), (3, 8), (3, 9), (2, 16), (37, 3)],
    ids=["7^4", "3^8", "3^9", "2^16", "37^3"],
)
def test_add_matches_coefficientwise_seeded_pairs(p, n):
    ctx = field(p, n)
    rng = np.random.default_rng(ctx.q)
    xs = rng.integers(0, ctx.q, 2000)
    ys = rng.integers(0, ctx.q, 2000)
    # same, outer, scalar and row broadcast shapes
    assert_add_matches_coefficientwise(ctx, xs, ys)
    assert_add_matches_coefficientwise(ctx, xs[:50, None], ys[None, :40])
    assert_add_matches_coefficientwise(ctx, int(xs[0]), ys)
    assert_add_matches_coefficientwise(ctx, xs, int(ys[0]))
    assert_add_matches_coefficientwise(ctx, xs.reshape(40, 50), ys[:50])


@pytest.mark.parametrize(
    "p,n", [(2, 5), (3, 3), (7, 4), (37, 3)], ids=["2^5", "3^3", "7^4", "37^3"],
)
def test_three_operand_sums_reach_top_of_reduction_tables(p, n):
    # Sums of three spread values must stay inside the reduction tables; the
    # element with every digit p - 1 reads the last entry of each.
    ctx = field(p, n)
    B, k = 3 * p - 2, n // 2
    assert (len(ctx._red_lo), len(ctx._red_hi)) == (B**k, B ** (n - k))
    rng = np.random.default_rng(ctx.q)
    xs = rng.integers(0, ctx.q, (3, 300))
    xs[:, 0] = ctx.q - 1
    hi = ctx._spread_hi[xs].sum(axis=0)
    lo = ctx._spread_lo[xs].sum(axis=0)
    assert (hi[0], lo[0]) == (B ** (n - k) - 1, B**k - 1)
    got = ctx._red_hi[hi] + ctx._red_lo[lo]
    want = [coeffwise_add(ctx, coeffwise_add(ctx, int(x), int(y)), int(z)) for x, y, z in xs.T]
    assert got.tolist() == want
    assert want[0] == sum((3 * (p - 1) % p) * p**i for i in range(n))


def test_addition_tables_bounded_at_odd_degree():
    # Half-digit sum tables would hold q(p + 1/p) entries here, the most under
    # the default cap; the reduction tables hold B + B^2 (B = 109), next to
    # the O(q) exp, dlog, trace, negation and spread arrays.
    tracemalloc.start()
    try:
        ctx = make_field(37, 3)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(ctx._red_lo) + len(ctx._red_hi) == 109 + 109**2
    assert retained < 4_000_000


# -- the size cap: fields that took a minute to build before the tables were
# built with linear algebra ----------------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 16), (3, 10)], ids=["2^16", "3^10"])
def test_fields_at_size_cap(p, n):
    ctx = make_field(p, n)
    q = ctx.q
    assert np.array_equal(np.sort(ctx.exp), np.arange(1, q))
    assert np.array_equal(ctx.dlog[ctx.exp], np.arange(q - 1))
    assert ctx.dlog[0] == -1
    assert np.array_equal(np.bincount(ctx.trace_tab, minlength=p), np.full(p, q // p))
    rng = random.Random(2016)
    xs = np.array([rng.randrange(q) for _ in range(500)], dtype=np.int64)
    ys = np.array([rng.randrange(q) for _ in range(500)], dtype=np.int64)
    tr = ctx.trace_tab
    assert np.array_equal(tr[ctx.pow_vec(xs, p)], tr[xs])
    assert np.array_equal(tr[ctx.add_vec(xs, ys)], (tr[xs] + tr[ys]) % p)
    assert np.array_equal(ctx.add_vec(xs, ctx.neg_vec(xs)), np.zeros_like(xs))


# -- derived tables: built once through FieldCtx.cached and read-only ----------

def test_cached_builds_once_and_freezes():
    ctx = make_field(13)
    calls = []

    def build(n):
        calls.append(n)
        return np.arange(n), np.ones(n)

    pair = ctx.cached("pair", build, 4)
    assert ctx.cached("pair", build, 4) is pair
    assert calls == [4]
    for arr in pair:
        with pytest.raises(ValueError):
            arr[0] = 1


@pytest.mark.parametrize("pn", [(13, 1), (5, 2)], ids=["13", "25"])
def test_every_cached_table_is_read_only(pn):
    from charsum import curves, hyperf, sums

    ctx = make_field(*pn)
    # a count (oracle and closed form), a series evaluation, a grid and a line
    spec = curves.CurveSpec(ctx, 2, 3, 1, 1)
    assert curves.count_theorem(spec) == curves.count_bruteforce(spec)
    hyperf.hf_eval(ctx, [1, 5], [6], 2)
    assert sums.verify_identity(ctx, "jacobi-gauss").match
    assert sums.verify_identity(ctx, "binom-translate", a=2).match
    # the oracle's buffers are writable scratch, not a table
    keys = set(ctx._cache) - {"oracle_buffers"}
    assert {"gauss", "theta", "unit_roots", "jacobi_logs", "dlog_one_plus"} <= keys
    for key in keys:
        value = ctx._cache[key]
        for arr in value if isinstance(value, tuple) else (value,):
            assert not arr.flags.writeable, key
