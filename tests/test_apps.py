"""Trace formulas, the Edwards correspondence, and 2F1 special values."""

import itertools
import random

import numpy as np
import pytest

from charsum import apps, chars, curves, hyperf, sums
from charsum.field import make_field

from conftest import field


def test_lennon_trace_single(f13):
    spec = curves.CurveSpec(f13, 2, 3, 1, 1)
    assert apps.lennon_trace(f13, 1, 1) == 13 - curves.count_bruteforce(spec)


def test_lennon_trace_full_sweep(f13):
    for a in f13.units():
        for b in f13.units():
            spec = curves.CurveSpec(f13, 2, 3, a, b)
            expect = 13 - curves.count_bruteforce(spec)
            assert apps.lennon_trace(f13, a, b) == expect
            assert curves.trace_frobenius(spec) == expect


def test_lennon_trace_extension_field(f25):
    rng = random.Random(4)
    for _ in range(20):
        a = rng.randrange(1, 25)
        b = rng.randrange(1, 25)
        spec = curves.CurveSpec(f25, 2, 3, a, b)
        assert apps.lennon_trace(f25, a, b) == 25 - curves.count_bruteforce(spec)


def test_lennon_preconditions(f17):
    with pytest.raises(ValueError):
        apps.lennon_trace(f17, 1, 1)  # 17 is not 1 mod 12
    ctx = field(13)
    with pytest.raises(ValueError):
        apps.lennon_trace(ctx, 0, 1)


def test_e34_trace_samples(f37):
    rng = random.Random(5)
    for _ in range(30):
        a = rng.randrange(1, 37)
        b = rng.randrange(1, 37)
        spec = curves.CurveSpec(f37, 3, 4, a, b)
        assert apps.e34_trace(f37, a, b) == 37 - curves.count_bruteforce(spec)


def test_e34_preconditions(f13):
    with pytest.raises(ValueError):
        apps.e34_trace(f13, 1, 1)  # 13 is not 1 mod 36


@pytest.mark.parametrize("fn,key,pn", [(apps.lennon_trace, "lennon_plan", (17, 1)),
                                       (apps.e34_trace, "e34_plan", (13, 1)),
                                       (apps.e34_trace, "e34_plan", (5, 2))])
def test_trace_congruence_error(fn, key, pn):
    # the same exception as count_theorem, raised before a plan is cached
    ctx = make_field(*pn)
    one = np.array([1], dtype=np.int64)
    for a, b in ((1, 1), (one, one)):
        with pytest.raises(curves.CongruenceError, match=f"q = {ctx.q} is not 1 mod"):
            fn(ctx, a, b)
    assert key not in ctx._cache


def test_other_congruence_errors(f17, f19):
    # the module's other congruence checks raise the same exception
    for fn, args in ((apps.shifted_cubic_count, (f17, 1, 1)),
                     (apps.cubic_transform_check, (f17, 1, 1)),
                     (apps.cubic_transform_admissible, (f17, 1, 1)),
                     (apps.special_value_check, (f19, "half")),
                     (apps.special_value_check, (f19, "frac-1323-1331"))):
        with pytest.raises(curves.CongruenceError, match=f"q = {args[0].q} is not 1 mod"):
            fn(*args)


def test_warm_trace_calls_rebuild_nothing(monkeypatch):
    # once a formula has run on a field, neither a Greene binomial nor a
    # constant's dlog is computed again (the traces read theirs from their
    # plans), while every call still reads its series through hf_eval
    ctx = make_field(37)
    a, b = np.array([2, 5, 7], dtype=np.int64), np.array([3, 11, 30], dtype=np.int64)
    formulas = (apps.lennon_trace, apps.e34_trace, apps.edwards_count_formula)
    cold = {fn: (fn(ctx, 2, 3), fn(ctx, a, b).tolist()) for fn in formulas}

    def rebuilt(*args):
        raise AssertionError("a field constant was rebuilt on a warm call")

    monkeypatch.setattr(sums, "greene_binom", rebuilt)
    monkeypatch.setattr(apps, "_dlogs", rebuilt)
    reads = []
    hf_eval = hyperf.hf_eval
    monkeypatch.setattr(hyperf, "hf_eval", lambda *args: reads.append(args) or hf_eval(*args))
    for fn, (one, block) in cold.items():
        seen = len(reads)
        assert fn(ctx, 2, 3) == one
        assert len(reads) > seen
        seen = len(reads)
        assert fn(ctx, a, b).tolist() == block
        assert len(reads) > seen


def test_edwards_formula_vs_bruteforce(f13, f17):
    assert apps.edwards_count_formula(f13, 2, 3) == apps.edwards_count_bruteforce(f13, 2, 3)
    assert apps.edwards_count_formula(f17, 1, 4) == apps.edwards_count_bruteforce(f17, 1, 4)


def test_edwards_off_diagonal_sweep(f13):
    for alpha in f13.units():
        for beta in f13.units():
            if alpha == beta:
                continue
            assert apps.edwards_count_formula(f13, alpha, beta) == (
                apps.edwards_count_bruteforce(f13, alpha, beta)
            )


def test_edwards_diagonal_known_failure(f13):
    # with alpha == beta the curve degenerates to (1 - y^2)(alpha x^2 - 1) = 0
    # and the closed form does not extend; the enumeration count is exact
    for alpha in f13.units():
        brute = apps.edwards_count_bruteforce(f13, alpha, alpha)
        expect = 4 * 13 - 4 if chars.legendre(f13, alpha) == 1 else 2 * 13
        assert brute == expect
        assert apps.edwards_count_formula(f13, alpha, alpha) != brute


def test_edwards_bruteforce_extension():
    # the square-class count against a literal double loop, over every
    # (alpha, beta): the diagonal, zero, and x with beta*x^2 = 1 included;
    # at even q (F_2, F_4, F_8) the zero sentinel's chi(1) is 0
    for p, n in ((13, 1), (3, 2), (2, 1), (2, 2), (2, 3), (5, 2)):
        ctx = field(p, n)
        sq = [ctx.pow(x, 2) for x in ctx.elements()]
        pairs = list(itertools.product(ctx.elements(), repeat=2))
        expect = []
        for alpha, beta in pairs:
            expect.append(0)
            for x2 in sq:
                ax2, bx2 = ctx.mul(alpha, x2), ctx.mul(beta, x2)
                for y2 in sq:
                    if ctx.add(ax2, y2) == ctx.add(1, ctx.mul(bx2, y2)):
                        expect[-1] += 1
        assert [apps.edwards_count_bruteforce(ctx, a, b) for a, b in pairs] == expect
        alpha, beta = np.array(pairs, dtype=np.int64).T
        assert apps.edwards_count_bruteforce(ctx, alpha, beta).tolist() == expect


def test_edwards_bruteforce_rejects_out_of_range(f13, f25):
    # -1 and q + 1 once read the table entries of q - 1 and 1, and q raised IndexError
    for ctx in (f13, f25):
        for bad in (-1, ctx.q, ctx.q + 1):
            for alpha, beta in ((bad, 2), (2, bad)):
                with pytest.raises(ValueError, match="must be elements of"):
                    apps.edwards_count_bruteforce(ctx, alpha, beta)
    # zero stays an element the oracle takes: 2 * x^2 + y^2 = 1 over F_13
    assert apps.edwards_count_bruteforce(f13, 2, 0) == sum(
        f13.add(f13.mul(2, f13.pow(x, 2)), f13.pow(y, 2)) == 1
        for x in f13.elements() for y in f13.elements())


def _trace_oracle(e, d):
    def oracle(ctx, a, b):
        return ctx.q - curves.count_bruteforce(curves.CurveSpec(ctx, e, d, a, b))
    return oracle


def _cubic_enumeration(ctx, a, b):
    # every (x, y) with y^2 = x^3 + a*x^2 + b*x, in scalar field arithmetic
    squares = [ctx.pow(y, 2) for y in ctx.elements()]
    return np.array([sum(squares.count(ctx.add(ctx.add(ctx.pow(x, 3), ctx.mul(s, ctx.pow(x, 2))),
                                               ctx.mul(t, x))) for x in ctx.elements())
                     for s, t in zip(a.tolist(), b.tolist())])


# the enumeration each closed form (and the cubic oracle) is checked against
ORACLES = {
    apps.lennon_trace: _trace_oracle(2, 3),
    apps.e34_trace: _trace_oracle(3, 4),
    apps.edwards_count_formula: apps.edwards_count_bruteforce,
    apps.shifted_cubic_count: apps.cubic_count_bruteforce,
    apps.cubic_count_bruteforce: _cubic_enumeration,
}


def _off_diagonal(ctx, a, b):
    return a != b


def _nondegenerate_shift(ctx, a, b):
    # the pairs whose depressed cubic has a', b' != 0
    return apps._shifted_coeffs(ctx, ctx.dlog[a], ctx.dlog[b])[2]


def _all_pairs(ctx, keep=None):
    """The unit pairs (a, b) where keep(ctx, a, b) holds, as a list and as arrays."""
    a, b = np.array(list(itertools.product(ctx.units(), repeat=2)), dtype=np.int64).T
    if keep is not None:
        mask = keep(ctx, a, b)
        a, b = a[mask], b[mask]
    return list(zip(a.tolist(), b.tolist())), a, b


@pytest.mark.parametrize(
    "fn,pn,keep",
    [
        (apps.lennon_trace, (13, 1), None),
        (apps.lennon_trace, (37, 1), None),
        (apps.lennon_trace, (7, 2), None),
        (apps.e34_trace, (37, 1), None),
        (apps.e34_trace, (73, 1), None),
        # F_{19^2}: the constants 3, 27 and 256 go through embed
        (apps.e34_trace, (19, 2), None),
        (apps.edwards_count_formula, (13, 1), _off_diagonal),
        (apps.edwards_count_formula, (5, 2), _off_diagonal),
        (apps.edwards_count_formula, (7, 2), _off_diagonal),
        # the oracle also on the diagonal, and at even q
        (apps.edwards_count_bruteforce, (13, 1), None),
        (apps.edwards_count_bruteforce, (7, 2), None),
        (apps.edwards_count_bruteforce, (2, 3), None),
        (apps.shifted_cubic_count, (13, 1), _nondegenerate_shift),
        (apps.shifted_cubic_count, (7, 2), _nondegenerate_shift),
        # the cubic oracle on every pair, and at even q
        (apps.cubic_count_bruteforce, (13, 1), None),
        (apps.cubic_count_bruteforce, (5, 2), None),
        (apps.cubic_count_bruteforce, (2, 3), None),
    ],
    ids=["lennon-13", "lennon-37", "lennon-49", "e34-37", "e34-73", "e34-361", "edwards-13",
         "edwards-25", "edwards-49", "edwards-oracle-13", "edwards-oracle-49",
         "edwards-oracle-8", "shifted-cubic-13", "shifted-cubic-49", "cubic-oracle-13",
         "cubic-oracle-25", "cubic-oracle-8"],
)
def test_array_routes_equal_scalar_routes(fn, pn, keep):
    ctx = field(*pn)
    pairs, a, b = _all_pairs(ctx, keep)
    got = fn(ctx, a, b)
    assert got.dtype == np.int64
    assert got.tolist() == [fn(ctx, x, y) for x, y in pairs]
    if fn in ORACLES:
        assert got.tolist() == ORACLES[fn](ctx, a, b).tolist()
    empty = np.empty(0, dtype=np.int64)
    assert fn(ctx, empty, empty).shape == (0,)


# at q = 37 every formula's congruence holds, so only the argument check can raise
@pytest.mark.parametrize(
    "fn", [apps.lennon_trace, apps.e34_trace, apps.edwards_count_formula,
           apps.edwards_count_bruteforce, apps.shifted_cubic_count, apps.cubic_transform_check,
           apps.cubic_count_bruteforce, apps.cubic_transform_admissible])
def test_array_routes_reject_bad_arrays(f37, fn):
    # an int beside an array and 2-D arrays are refused like unequal lengths
    ok, zero = np.array([1, 2, 3]), np.array([1, 0, 3])
    for a, b in [(ok, zero), (ok, np.array([1, 37, 3])),
                 (ok, np.array([1, -1, 3])), (ok, ok[:2]), (ok, 5), (ok.astype(float), ok),
                 (1, np.array([2])), (np.array([[1]]), 2), (ok[None], ok[None])]:
        if b is zero and fn in (apps.edwards_count_bruteforce, apps.cubic_count_bruteforce,
                                apps.cubic_transform_admissible):
            # zero is an element the oracles and the admissibility check take,
            # in arrays as in ints
            assert fn(f37, a, b).tolist() == [fn(f37, 1, 1), fn(f37, 2, 0), fn(f37, 3, 3)]
            continue
        with pytest.raises(ValueError, match="elements of F_37"):
            fn(f37, a, b)


@pytest.mark.parametrize(
    "fn",
    [apps.lennon_trace, apps.e34_trace, apps.edwards_count_formula, apps.shifted_cubic_count,
     lambda ctx, a, b: curves.CurveSpec(ctx, 2, 3, a, b)],
    ids=["lennon_trace", "e34_trace", "edwards_count_formula", "shifted_cubic_count",
         "CurveSpec"],
)
def test_int_routes_reject_non_units(f37, fn):
    for bad in (0, 37, -1):
        for a, b in ((bad, 2), (2, bad)):
            with pytest.raises(ValueError):
                fn(f37, a, b)


def test_array_trace_refused_whole(monkeypatch):
    # with a guard no residue meets, every block is refused with its worst residues
    monkeypatch.setattr(curves, "ROUND_GUARD", 1e-30)
    ctx = field(37)
    _, a, b = _all_pairs(ctx)
    with pytest.raises(curves.RoundingGuardError, match="worst residues"):
        apps.lennon_trace(ctx, a, b)


def test_shifted_cubic_count_example(f13, f25):
    # a = 12, b = 4 gives k = -4 = 9, a' = 3k^2 + 2ak + b = 8, b' = k(k^2 + ak + b) = 8
    l_ap, l_bp, nonzero = apps._shifted_coeffs(f13, f13.dlog_of(12), f13.dlog_of(4))
    assert (f13.exp[l_ap], f13.exp[l_bp], nonzero) == (8, 8, True)
    assert apps.shifted_cubic_count(f13, 12, 4) == apps.cubic_count_bruteforce(f13, 12, 4)
    # the Zech-table coefficients against the shift x -> x + k, k = -a/3, in field arithmetic
    for ctx in (f13, f25):
        pairs, a, b = _all_pairs(ctx)
        l_ap, l_bp, nonzero = apps._shifted_coeffs(ctx, ctx.dlog[a], ctx.dlog[b])
        for (x, y), la_p, lb_p, ok in zip(pairs, l_ap.tolist(), l_bp.tolist(), nonzero.tolist()):
            k = ctx.neg(ctx.div(x, ctx.embed(3)))
            a_p = ctx.add(ctx.add(ctx.mul(3, ctx.pow(k, 2)), ctx.mul(2, ctx.mul(x, k))), y)
            b_p = ctx.mul(k, ctx.add(ctx.add(ctx.pow(k, 2), ctx.mul(x, k)), y))
            assert ok == (a_p != 0 and b_p != 0)
            if ok:
                assert (ctx.exp[la_p], ctx.exp[lb_p]) == (a_p, b_p)


def test_shifted_cubic_random(f13):
    rng = random.Random(6)
    checked = 0
    while checked < 12:
        a = rng.randrange(1, 13)
        b = rng.randrange(1, 13)
        try:
            n = apps.shifted_cubic_count(f13, a, b)
        except ValueError:
            continue  # degenerate shifted coefficients
        assert n == apps.cubic_count_bruteforce(f13, a, b)
        checked += 1


def test_shifted_cubic_degenerate_rejected(f13):
    # choose (a, b) with 3k^2 + 2ak + b = 0, i.e. b = a^2/3
    a = 3
    b = f13.div(f13.pow(a, 2), 3)
    with pytest.raises(ValueError):
        apps.shifted_cubic_count(f13, a, b)
    # one such entry refuses a whole array call, and so does the transform check's
    with pytest.raises(ValueError, match="degenerate"):
        apps.shifted_cubic_count(f13, np.array([1, a, 2]), np.array([1, b, 1]))
    assert chars.legendre(f13, b) == 1  # so only a' = 0 makes it inadmissible
    with pytest.raises(ValueError, match="not admissible"):
        apps.cubic_transform_check(f13, np.array([12, a]), np.array([4, b]))


def test_cubic_transform_both_branches(f13):
    for branch in (0, 1):
        _, _, disc, match = apps.cubic_transform_check(f13, 12, 4, branch=branch)
        # match takes the series identity within tolerance and the exact integer bridge
        assert match and disc < 1e-9
    # the array route gives the same, entry by entry
    got = apps.cubic_transform_check(f13, np.array([12, 12]), np.array([4, 4]), np.array([0, 1]))
    for i, branch in enumerate((0, 1)):
        assert [v[i] for v in got] == list(apps.cubic_transform_check(f13, 12, 4, branch))


def test_cubic_transform_rejects_root_of_b(f13):
    # a = 2*sqrt(b) makes beta = 0
    b = 4
    a = f13.mul(2, f13.sqrt_canonical(b))
    with pytest.raises(ValueError):
        apps.cubic_transform_check(f13, a, b, branch=0)
    assert not apps.cubic_transform_admissible(f13, a, b, 0)
    assert not apps.cubic_transform_admissible(f13, f13.neg(a), b, 1)
    # one such entry, either sign, refuses a whole array call
    for x in (a, f13.neg(a)):
        with pytest.raises(ValueError, match="not admissible"):
            apps.cubic_transform_check(f13, np.array([12, x]), np.array([4, b]), np.array([0, 0]))


def test_cubic_transform_requires_square_b(f13):
    with pytest.raises(ValueError):
        apps.cubic_transform_check(f13, 1, 2, branch=0)  # 2 is not a square


def test_cubic_transform_admissible_checks_range(f13):
    # an index outside [0, q) raises, for ints and arrays; 0 is an element,
    # just not admissible
    for a, b in ((-1, 4), (1, -9), (13, 4), (1, 13)):
        with pytest.raises(ValueError, match="elements of F_13"):
            apps.cubic_transform_admissible(f13, a, b)
        with pytest.raises(ValueError, match="elements of F_13"):
            apps.cubic_transform_admissible(f13, np.array([12, a]), np.array([4, b]))
    assert not apps.cubic_transform_admissible(f13, 0, 4)
    assert not apps.cubic_transform_admissible(f13, 12, 0)
    assert apps.cubic_transform_admissible(f13, np.array([0, 12, 12]),
                                           np.array([4, 0, 4])).tolist() == [False, False, True]


def test_cubic_transform_refuses_non_integer_branch(f13):
    # a float branch would reach the Zech gather as a float index; any other
    # integer than 0 or 1 is just not admissible
    a, b = np.array([12, 12]), np.array([4, 4])
    for fn in (apps.cubic_transform_admissible, apps.cubic_transform_check):
        for args in ((12, 4, 0.5), (12, 4, 1.0), (a, b, np.array([0, 0.5])),
                     (a, b, np.array([0, 1], dtype=np.uint64)),
                     # a branch array must be as long as arrays a, b: not
                     # broadcast from length 1, nor beside ints
                     (a, b, np.array([0, 1, 0])), (a, b, np.array([0])),
                     (12, 4, np.array([0, 1])), (a, b, np.array([[0, 1]]))):
            with pytest.raises(ValueError, match="branch must be"):
                fn(f13, *args)
    for branch in (2, -1, np.int64(2)):
        assert not apps.cubic_transform_admissible(f13, 12, 4, branch)
    assert apps.cubic_transform_admissible(f13, a, b, np.array([2, -1])).tolist() == [False, False]


def test_cubic_transform_refuses_a_bool_branch(f13):
    # a bool is not an integer branch, as for CurveSpec's e and d; numpy
    # integers are
    for fn in (apps.cubic_transform_admissible, apps.cubic_transform_check):
        for branch in (True, np.bool_(False)):
            with pytest.raises(ValueError, match="branch must be an integer"):
                fn(f13, 1, 4, branch)
    assert apps.cubic_transform_admissible(f13, 12, 4, np.uint8(1)) == \
        apps.cubic_transform_admissible(f13, 12, 4, 1)


def test_non_integer_elements_are_refused(f13):
    # a float a or b would reach a dlog gather or an index array and raise
    # IndexError or TypeError; a non-integer is not an element of F_q
    calls = ((apps.cubic_transform_admissible, (0.5, 4)),
             (apps.cubic_transform_admissible, (12, 4.0)),
             (apps.cubic_transform_admissible, (np.array([12, 1]), np.array([4.0, 1.0]))),
             (apps.cubic_count_bruteforce, (1.5, 2)),
             (apps.cubic_count_bruteforce, (np.array([1.5]), np.array([2]))),
             (apps.edwards_count_bruteforce, (1.5, 2)),
             (apps.edwards_count_bruteforce, (2, 3.0)))
    for fn, args in calls:
        with pytest.raises(ValueError, match="elements of F_13"):
            fn(f13, *args)
    # numpy integer scalars, signed or unsigned, are elements, as they are to
    # the closed forms
    for t in (np.int64, np.uint8, np.uint64):
        assert apps.cubic_count_bruteforce(f13, t(1), 2) == apps.cubic_count_bruteforce(f13, 1, 2)
        assert apps.edwards_count_bruteforce(f13, t(2), 3) == \
            apps.edwards_count_bruteforce(f13, 2, 3) == apps.edwards_count_formula(f13, t(2), 3)
        assert apps.cubic_transform_admissible(f13, t(12), 4) == \
            apps.cubic_transform_admissible(f13, 12, 4)


def test_special_value_half():
    for q in (13, 17, 29, 37):
        report = apps.special_value_check(field(q), "half")
        assert report.match and report.disc < 1e-10


def test_special_value_frac():
    for q in (13, 37, 61, 73):
        report = apps.special_value_check(field(q), "frac-1323-1331")
        assert report.match and report.disc < 1e-10


def test_special_value_preconditions(f19):
    with pytest.raises(ValueError):
        apps.special_value_check(f19, "half")  # 19 = 3 mod 4
    with pytest.raises(ValueError):
        apps.special_value_check(field(13), "no-such-value")
