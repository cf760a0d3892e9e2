"""Field construction, arithmetic, dlog tables, and the trace map."""

import hashlib
import json
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from charsum import chars, hyperf, sums
from charsum.curves import CurveSpec, count_bruteforce, count_theorem
from charsum.field import (
    DEFAULT_SIZE_CAP, FieldError, factor_prime_power, is_prime, make_field, zech_table,
)

from conftest import coeff_mul, coeff_pow, field


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
    # independent oracle: enumerate monic polynomials in candidate order and
    # test irreducibility by root search, which decides it in degree <= 3;
    # F_9 and every other degree-2 and degree-3 field under the size cap
    fields = [(p, n) for n in (2, 3) for p in range(2, 257)
              if is_prime(p) and p**n <= DEFAULT_SIZE_CAP]
    assert len(fields) == 54 + 12
    for p, n in fields:
        modulus = f9.modulus if (p, n) == (3, 2) else make_field(p, n).modulus
        for code in range(p**n):
            low = tuple(code // p**i % p for i in range(n))
            has_root = any((t**n + sum(c * t**i for i, c in enumerate(low))) % p == 0
                           for t in range(p))
            if not has_root:
                assert low + (1,) == modulus
                break
            assert low + (1,) != modulus


def test_nonprime_p_rejected():
    with pytest.raises(FieldError):
        make_field(4)


def test_numpy_integer_p_and_n_become_python_ints():
    assert make_field(np.int64(13)).g == 2
    ctx = make_field(251, np.int64(2))
    assert all(type(v) is int for v in (ctx.p, ctx.n, ctx.q))
    # q^(d-2) (q-1) overflows int64 at q = 251^2, d = 6: only Python ints hold it
    spec = CurveSpec(ctx, 2, 6, 1, 1)
    assert count_theorem(spec) == count_bruteforce(spec)


@pytest.mark.parametrize("p,n", [(13.0, 1), (True, 1), (13, 2.0), (13, True), ("13", 1)],
                         ids=["float-p", "bool-p", "float-n", "bool-n", "str-p"])
def test_non_integer_p_or_n_rejected(p, n):
    with pytest.raises(FieldError, match="must be an integer"):
        make_field(p, n)


def test_size_cap_enforced():
    with pytest.raises(FieldError, match="q = 13 exceeds size cap 12"):
        make_field(13, size_cap=12)
    assert make_field(13, size_cap=13).q == 13
    # checked before p^n is formed: 2^3000000 has too many digits to print
    with pytest.raises(FieldError, match="q = 2\\^3000000 exceeds size cap 65536"):
        make_field(2, 3_000_000)


def test_size_cap_takes_the_integer_rule():
    # a numpy integer cap is a cap; a float or bool one is refused, as for p and n
    assert make_field(13, size_cap=np.int64(100)).q == 13
    with pytest.raises(FieldError, match="exceeds size cap 12"):
        make_field(13, size_cap=np.int32(12))
    for cap in (100.0, True):
        with pytest.raises(FieldError, match="size_cap must be an integer"):
            make_field(13, size_cap=cap)


# Integer parameters outside the field's constructor, each refused by
# field._as_int; before, a float reached an index (IndexError) or int
# arithmetic (TypeError), or passed a test it should fail (delta_char gave 0),
# and a bool ran as 0 or 1.
_INTEGER_PARAMETERS = {
    "mul_char-float": lambda ctx: chars.mul_char(ctx, 1.5, 2),
    "jacobi_direct-float": lambda ctx: sums.jacobi_direct(ctx, 1.5, 2),
    "char_order-float": lambda ctx: chars.char_order(ctx, 1.5),
    "delta_char-float": lambda ctx: chars.delta_char(ctx, 1.5),
    "davenport_hasse-d-float": lambda ctx: sums.davenport_hasse(ctx, 3.0),
    "davenport_hasse-l-float": lambda ctx: sums.davenport_hasse(ctx, 3, l=1.5),
    "davenport_hasse-t-bool": lambda ctx: sums.davenport_hasse(ctx, 3, t=True),
    "verify_identity-m-float": lambda ctx: sums.verify_identity(ctx, "gauss-shift", m=1.5),
    "verify_identity-m-bool": lambda ctx: sums.verify_identity(ctx, "gauss-shift", m=True),
    "pow-float": lambda ctx: ctx.pow(3, 1.5),
    "pow-bool": lambda ctx: ctx.pow(3, True),
    "to_coeffs-float": lambda ctx: ctx.to_coeffs(1.5),
    "embed-bool": lambda ctx: ctx.embed(True),
}


@pytest.mark.parametrize("call", list(_INTEGER_PARAMETERS.values()), ids=list(_INTEGER_PARAMETERS))
def test_integer_parameters_take_the_integer_rule(f37, call):
    with pytest.raises(FieldError, match="must be an integer"):
        call(f37)


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


_FIELD_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "field_golden.json")


def test_fields_match_golden():
    # modulus, generator and exp table of every extension field under the
    # size cap and of seven prime fields, pinned from a scalar polynomial
    # construction that shares no code with the matrix-power searches
    with open(_FIELD_GOLDEN) as fh:
        golden = json.load(fh)
    assert len(golden) == 93 + 7
    for want in golden:
        ctx = make_field(want["p"], want["n"])
        assert ctx.modulus == (None if want["modulus"] is None else tuple(want["modulus"]))
        assert ctx.g == want["g"]
        assert hashlib.sha256(ctx.exp.astype("<i8").tobytes()).hexdigest() == want["exp_sha256"]


def test_generator_canonical_across_rebuilds():
    a = make_field(37)
    b = make_field(37)
    assert a.g == b.g
    x = make_field(3, 3)
    y = make_field(3, 3)
    assert x.g == y.g and x.modulus == y.modulus
    assert np.array_equal(x.exp, y.exp)


def brute_dlog(ctx, x):
    """The k in [0, q-2] with g^k = x, by walking the powers of g."""
    k, acc = 0, 1
    while acc != x:
        acc = coeff_mul(ctx, acc, ctx.g)
        k += 1
    return k


def raw_inv(ctx, x):
    return coeff_pow(ctx, x, ctx.q - 2)


def raw_pow(ctx, x, e):
    """x^e by the polynomial product, negative e through x^(q-2)."""
    return coeff_pow(ctx, x if e >= 0 else raw_inv(ctx, x), abs(e))


@pytest.mark.parametrize("p,n", [(13, 1), (2, 4), (5, 2), (3, 3)], ids=["13", "16", "25", "27"])
def test_field_ops_match_raw_arithmetic(p, n):
    # mul, pow, inv and div read the exp/dlog tables; the references multiply
    # polynomials, so neither side is built from the other.  Every element,
    # one at a time (Python ints) and as one array, zero included.
    ctx = field(p, n)
    q = ctx.q
    xs = np.arange(q, dtype=np.int64)
    units = xs[1:]
    mul_table = [[coeff_mul(ctx, x, y) for y in range(q)] for x in range(q)]
    for x in range(q):
        for y in range(q):
            assert ctx.mul(x, y) == mul_table[x][y]
    got = ctx.mul(xs[:, None], xs[None, :])
    assert got.dtype == np.int64 and got.tolist() == mul_table
    for e in (0, 1, 2, 5, q - 1, q + 3, -1, -5):
        want = [1 if e == 0 else 0] + [raw_pow(ctx, x, e) for x in range(1, q)]
        scalar = [ctx.pow(x, e) for x in range(1, q)]
        assert scalar == want[1:] and all(type(v) is int for v in scalar)
        assert ctx.pow(units, e).tolist() == want[1:]
        if e >= 0:
            assert ctx.pow(0, e) == want[0] and type(ctx.pow(0, e)) is int
            assert ctx.pow(xs, e).tolist() == want
        else:
            with pytest.raises(ZeroDivisionError):
                ctx.pow(0, e)
            with pytest.raises(ZeroDivisionError):
                ctx.pow(xs, e)
    inverses = [raw_inv(ctx, x) for x in range(1, q)]
    assert [ctx.inv(x) for x in range(1, q)] == inverses
    assert ctx.inv(units).tolist() == inverses
    for bad in (0, xs):
        with pytest.raises(ZeroDivisionError):
            ctx.inv(bad)
        with pytest.raises(ZeroDivisionError):
            ctx.div(units[:3], bad)
    quotients = [[mul_table[x][y] for y in inverses] for x in range(q)]
    assert [[ctx.div(x, y) for y in range(1, q)] for x in range(q)] == quotients
    assert ctx.div(xs[:, None], units).tolist() == quotients
    negs = [coeffwise_neg(ctx, x) for x in range(q)]
    assert [ctx.neg(x) for x in range(q)] == negs
    assert ctx.neg(xs).dtype == np.int64 and ctx.neg(xs).tolist() == negs


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
        acc = coeff_mul(ctx, acc, ctx.g)
    assert acc == 1
    tr = np.zeros(ctx.q, dtype=np.int64)
    for x in range(ctx.q):
        acc = total = x
        for _ in range(ctx.n - 1):
            acc = coeff_pow(ctx, acc, ctx.p)
            total = ctx.add(total, acc)
        coeffs = ctx.to_coeffs(total)
        assert not any(coeffs[1:])
        tr[x] = coeffs[0]
    return exp, dlog, tr


@pytest.mark.parametrize(
    "p,n", [(13, 1), (3, 2), (2, 4), (5, 2), (3, 3), (3, 5), (7, 3), (2, 8), (7, 4)],
    ids=["13", "3^2", "2^4", "5^2", "3^3", "3^5", "7^3", "2^8", "7^4"],
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
def test_field_ops_broadcast(pn, shape, rows, cols, seed):
    # add_vec against add, mul against the polynomial product and neg against
    # coefficient-wise negation, on broadcast shapes; a Python int operand
    # ("scalar") broadcasts too.
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
    if shape == "scalar":
        xs = int(xs)
    bx, by = np.broadcast_arrays(xs, ys)
    pairs = [(int(x), int(y)) for x, y in zip(bx.ravel(), by.ravel())]
    for op, want in ((ctx.add_vec, ctx.add), (ctx.mul, lambda x, y: coeff_mul(ctx, x, y))):
        got = op(xs, ys)
        assert got.shape == bx.shape and got.dtype == np.int64
        assert np.ravel(got).tolist() == [want(x, y) for x, y in pairs]
    e = rows * cols  # 1..36, past q - 1 on the smaller fields
    powed = ctx.pow(ys, e)
    assert powed.shape == ys.shape and powed.dtype == np.int64
    assert powed.ravel().tolist() == [coeff_pow(ctx, int(y), e) for y in ys.ravel()]
    negated = ctx.neg(ys)
    assert negated.shape == ys.shape and negated.dtype == np.int64
    assert negated.ravel().tolist() == [coeffwise_neg(ctx, int(y)) for y in ys.ravel()]


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
    # add, add_vec and neg read the Zech table and dlog(-1); the reference
    # works on the coefficient vectors, so neither side is built from the
    # other.
    ctx = field(p, n)
    for x in ctx.elements():
        assert ctx.neg(x) == coeffwise_neg(ctx, x)
        assert type(ctx.neg(x)) is int
    xs = np.arange(ctx.q, dtype=np.int64)
    assert_add_matches_coefficientwise(ctx, xs[:, None], xs[None, :])


# -- addition on larger fields ------------------------------------------------

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
    "p,n", [(2, 1), (13, 1), (257, 1), (3, 2), (2, 4), (3, 3), (2, 5), (7, 4), (3, 8),
            (3, 9), (37, 3), (3, 10), (2, 16)],
    ids=["2", "13", "257", "9", "16", "27", "32", "7^4", "3^8", "3^9", "37^3", "3^10", "2^16"],
)
def test_zech_table_matches_definition(p, n):
    # g^zech[t] is g^t with 1 added to the constant coefficient of its digit
    # vector, entry by entry, and zech is -1 at the one t where that is 0
    ctx = field(p, n)
    zech = zech_table(ctx)
    digits = np.array(ctx.to_coeffs(ctx.exp))
    digits[0] = (digits[0] + 1) % p
    one_plus = ctx.from_coeffs(digits)
    unit = zech >= 0
    assert np.array_equal(ctx.exp[zech[unit]], one_plus[unit])
    assert np.count_nonzero(~unit) == 1 and one_plus[~unit].tolist() == [0]


@pytest.mark.parametrize("dtype", [int, np.int64, np.uint8, np.uint16, np.uint64])
@pytest.mark.parametrize("p", [13, 257])
def test_prime_field_ops_take_any_integer_scalar(p, dtype):
    # add, sub and neg read tables, so the dtype of an index never enters the
    # arithmetic: mod-p arithmetic on numpy unsigned scalars wraps or overflows
    ctx = field(p)
    top = p - 1 if dtype is int else min(p - 1, int(np.iinfo(dtype).max))
    vals = sorted(v for v in {0, 1, 2, 5, 100, 200, p // 2, top - 1, top} if v <= top)
    for x in vals:
        assert ctx.neg(dtype(x)) == (-x) % p and type(ctx.neg(dtype(x))) is int
        for y in vals:
            for got in (ctx.add(dtype(x), dtype(y)), ctx.add(x, dtype(y))):
                assert got == (x + y) % p and type(got) is int
            assert ctx.sub(dtype(x), dtype(y)) == (x - y) % p
    arr = np.array(vals, dtype=dtype)
    assert ctx.neg(arr).tolist() == [(-x) % p for x in vals]
    assert ctx.add_vec(arr[:, None], arr).tolist() == [[(x + y) % p for y in vals] for x in vals]
    assert ctx.add_vec(1, arr).tolist() == [(1 + x) % p for x in vals]


_SCALAR_OPS = {
    "add": lambda ctx, x: ctx.add(x, 0), "add-right": lambda ctx, x: ctx.add(0, x),
    "sub": lambda ctx, x: ctx.sub(x, 1), "sub-right": lambda ctx, x: ctx.sub(1, x),
    "neg": lambda ctx, x: ctx.neg(x), "mul": lambda ctx, x: ctx.mul(x, 1),
    "mul-right": lambda ctx, x: ctx.mul(2, x), "div": lambda ctx, x: ctx.div(x, 1),
    "div-right": lambda ctx, x: ctx.div(1, x), "inv": lambda ctx, x: ctx.inv(x),
    "pow": lambda ctx, x: ctx.pow(x, 3), "trace": lambda ctx, x: ctx.trace(x),
    "dlog_of": lambda ctx, x: ctx.dlog_of(x), "sqrt": lambda ctx, x: _sqrt(ctx, x),
    "legendre": lambda ctx, x: chars.legendre(ctx, x),
}
# element reads that give a complex value
_SCALAR_READS = {
    "mul_char": lambda ctx, x: chars.mul_char(ctx, 1, x),
    "add_char": lambda ctx, x: chars.add_char(ctx, x),
    "hf_eval": lambda ctx, x: hyperf.hf_eval(ctx, [1], [], x),
    "hf_direct": lambda ctx, x: hyperf.hf_direct(ctx, [1], [], x),
}


def _sqrt(ctx, x):
    # sqrt_canonical, or -1 for a unit that is not a square (element 8 of F_9)
    try:
        return ctx.sqrt_canonical(x)
    except ValueError as err:
        if "not a square" not in str(err):
            raise
        return -1


@pytest.mark.parametrize("op", list(_SCALAR_OPS) + list(_SCALAR_READS))
@pytest.mark.parametrize("dtype", [int, np.int64, np.uint8])
@pytest.mark.parametrize("pn", [(3, 2), (13, 1), (257, 1)], ids=["9", "13", "257"])
def test_scalar_ops_reject_elements_outside_the_field(pn, dtype, op):
    # at F_9, neg(-1) read 4 and add(-1, 0) read 8 through negative indexing,
    # and at F_13 add(20, 3) and neg(13) raised IndexError; so did the reads
    # outside the arithmetic: dlog_of(-1) read the dlog of 12 and x = 13 raised
    ctx, fn = field(*pn), {**_SCALAR_OPS, **_SCALAR_READS}[op]
    fits = range(256) if dtype is np.uint8 else range(-2**40, 2**40)
    for v in (-1, -ctx.q, ctx.q, ctx.q + 7, 255, 2**40 - 1):
        if v not in fits:
            continue
        if 0 <= v < ctx.q:  # uint8 255 at F_257
            assert fn(ctx, dtype(v)) == fn(ctx, v)
            continue
        with pytest.raises(ValueError, match=rf"element {v} .*q = {ctx.q}\b"):
            fn(ctx, dtype(v))
    for v in (1, ctx.q - 1 if ctx.q <= 256 else 255):
        got = fn(ctx, dtype(v))
        assert type(got) is (complex if op in _SCALAR_READS else int) and got == fn(ctx, v)


def test_index_arrays_are_not_range_checked():
    # arrays keep numpy indexing: a negative entry reads from the end
    ctx = field(13)
    assert ctx.neg(np.array([-1])).tolist() == [ctx.neg(12)]
    assert ctx.trace(np.array([-1])).tolist() == [12]


def test_codec_takes_numpy_unsigned_scalars():
    ctx = field(257)
    assert ctx.embed(np.uint8(200)) == 200 and ctx.embed(np.uint16(300)) == 43
    big = make_field(257, 2, size_cap=2**17)
    assert big.to_coeffs(np.uint8(200)) == (200, 0)
    assert big.to_coeffs(np.uint64(big.q - 1)) == (256, 256)
    x = big.from_coeffs([np.uint8(3), np.uint8(4)])
    assert x == 3 + 4 * 257 and type(x) is int


@pytest.mark.parametrize("p,n", [(65521, 1), (3, 8), (2, 16)], ids=["65521", "3^8", "2^16"])
def test_field_keeps_four_tables_of_q_entries(p, n):
    # exp, dlog, the trace table and the Zech table, 32 bytes per element;
    # addition and negation keep no table of their own
    tracemalloc.start()
    try:
        ctx = make_field(p, n)
        zech_table(ctx)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 33 * ctx.q
    assert {k for k, v in vars(ctx).items() if isinstance(v, np.ndarray)} == \
        {"exp", "dlog", "trace_tab"}


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
    assert np.array_equal(tr[ctx.pow(xs, p)], tr[xs])
    assert np.array_equal(tr[ctx.add_vec(xs, ys)], (tr[xs] + tr[ys]) % p)
    assert np.array_equal(ctx.add_vec(xs, ctx.neg(xs)), np.zeros_like(xs))


# -- derived tables: built once through FieldCtx.cached and read-only ----------

@pytest.mark.parametrize("p,n", [(2, 1), (13, 1), (2, 4), (5, 2), (3, 3)],
                         ids=["2", "13", "16", "25", "27"])
def test_zech_table_matches_field_addition(p, n):
    ctx = make_field(p, n)
    assert "zech" not in ctx._cache  # built on first use, not with the field
    zech = zech_table(ctx)
    assert zech_table(ctx) is zech and not zech.flags.writeable
    want = []
    for t in range(ctx.q - 1):
        s = ctx.add(1, raw_pow(ctx, ctx.g, t))
        assert s == coeffwise_add(ctx, 1, raw_pow(ctx, ctx.g, t))
        want.append(-1 if s == 0 else brute_dlog(ctx, s))
    assert zech.dtype == np.int64 and zech.tolist() == want
    assert want.count(-1) == 1  # 1 + g^t = 0 only at g^t = -1



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
    from charsum import apps, curves, hyperf, sums

    ctx = make_field(*pn)
    # a count (oracle and closed form) for one curve and an array of them, an
    # array Edwards count, a series evaluation, a grid and a line
    spec = curves.CurveSpec(ctx, 2, 3, 1, 1)
    assert curves.count_theorem(spec) == curves.count_bruteforce(spec)
    a, b = np.array([1, 2, 3]), np.array([4, 5, 6])
    block = curves.CurveSpec(ctx, 2, 3, a, b)
    assert (curves.count_theorem(block) == curves.count_bruteforce(block)).all()
    apps.edwards_count_bruteforce(ctx, a, b)
    hyperf.hf_eval(ctx, [1, 5], [6], 2)
    assert sums.verify_identity(ctx, "jacobi-gauss").match
    assert sums.verify_identity(ctx, "binom-translate", a=2).match
    keys = set(ctx._cache)
    assert {"gauss", "theta", "unit_roots", "zech", "edwards_classes"} <= keys
    for key in keys:
        value = ctx._cache[key]
        # a plan's parameter tuples are immutable already; only arrays are frozen
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                assert not arr.flags.writeable, key
