"""Point counting: enumeration oracles, closed forms, coefficient dual forms."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import charsum
from charsum import apps, chars, curves, hyperf, sums

from conftest import field


def test_bruteforce_matches_naive_small_fields():
    cases = [
        (13, 1, 2, 3), (13, 1, 2, 2), (13, 1, 3, 4), (17, 1, 2, 3),
        (19, 1, 3, 3), (5, 2, 2, 3), (3, 3, 2, 4), (7, 2, 2, 3),
        (41, 1, 2, 5), (37, 1, 3, 4),
        # q^2 above the block size: count_naive compares several blocks
        (4093, 1, 2, 3), (7, 4, 3, 4),
    ]
    rng = random.Random(0)
    for p, n, e, d in cases:
        ctx = field(p, n)
        a = rng.randrange(1, ctx.q)
        b = rng.randrange(1, ctx.q)
        spec = curves.CurveSpec(ctx, e, d, a, b)
        assert curves.count_bruteforce(spec) == curves.count_naive(spec)


@pytest.mark.parametrize(
    "pn,eds",
    [
        ((2, 3), [(2, 3), (3, 2), (7, 4)]),  # e = 2, 3 do not divide q - 1 = 7
        ((3, 2), [(2, 3), (3, 4), (4, 2)]),  # e = 3 does not divide q - 1 = 8
        ((13, 1), [(2, 3), (3, 4), (5, 2), (4, 5)]),  # e = 5 does not divide 12
        # d = 2 meets both Zech sentinels, x^(d-1) = -a and x^d + a*x + b = 0;
        # at F_16, -1 = 1 and zech[0] = -1
        ((5, 2), [(2, 2), (3, 4)]),
        ((2, 4), [(3, 2), (5, 3)]),
    ],
    ids=["8", "9", "13", "25", "16"],
)
def test_bruteforce_matches_naive_every_pair(pn, eds):
    ctx = field(*pn)
    for e, d in eds:
        for a in ctx.units():
            for b in ctx.units():
                spec = curves.CurveSpec(ctx, e, d, a, b)
                assert curves.count_bruteforce(spec) == curves.count_naive(spec), (e, d, a, b)


@pytest.mark.parametrize("pn", [(13, 1), (37, 1), (5, 2), (3, 3), (2, 4)],
                         ids=["13", "37", "25", "27", "16"])
def test_oracles_are_invariant_on_torus_orbits(pn):
    # x -> u^e*x, y -> u^d*y carries y^e = x^d + a*x + b onto the curve at
    # (a*u^(e-de), b*u^(-de)), so the two counts are equal for every unit u.
    # The families include ones whose congruence fails in these fields.
    ctx = field(*pn)
    L = ctx.q - 1
    rng = random.Random(ctx.q)
    for e, d in ((2, 3), (3, 4), (2, 5), (5, 2), (3, 3)):
        a, b, u = (np.array([rng.randrange(1, ctx.q) for _ in range(40)]) for _ in range(3))
        a2 = ctx.mul(a, ctx.pow(u, (e - d * e) % L))
        b2 = ctx.mul(b, ctx.pow(u, -d * e % L))
        counts = curves.count_bruteforce(curves.CurveSpec(ctx, e, d, a, b)).tolist()
        assert curves.count_bruteforce(curves.CurveSpec(ctx, e, d, a2, b2)).tolist() == counts
        for i in range(3):
            spec = curves.CurveSpec(ctx, e, d, int(a2[i]), int(b2[i]))
            assert curves.count_naive(spec) == counts[i], (e, d, a[i], b[i], u[i])


@pytest.mark.parametrize("pn", [(13, 1), (5, 2)], ids=["13", "25"])
def test_count_naive_refuses_arrays_and_leaves_them_as_they_are(pn):
    # to_coeffs once divided its argument in place: an array spec zeroed the
    # caller's a and b before count_naive failed on a shape error
    ctx = field(*pn)
    a, b = np.array([1, 2, ctx.q - 1]), np.array([ctx.q - 2, 3, 1])
    spec = curves.CurveSpec(ctx, 2, 3, a, b)
    with pytest.raises(ValueError, match="one curve"):
        curves.count_naive(spec)
    digits = ctx.to_coeffs(a)
    assert [list(c) for c in zip(*(d.tolist() for d in digits))] == \
        [list(ctx.to_coeffs(int(x))) for x in a]
    assert a.tolist() == [1, 2, ctx.q - 1] and b.tolist() == [ctx.q - 2, 3, 1]
    assert spec.a is a and spec.b is b


@pytest.mark.parametrize(
    "p,n,e,d", [(2, 16, 3, 5), (2, 16, 5, 3), (3, 9, 2, 5)],
    ids=["2^16-3-5", "2^16-5-3", "3^9-2-5"],
)
def test_naive_matches_bruteforce_large_extensions(p, n, e, d):
    ctx = field(p, n)
    rng = random.Random(ctx.q + e)
    spec = curves.CurveSpec(ctx, e, d, rng.randrange(1, ctx.q), rng.randrange(1, ctx.q))
    assert curves.count_naive(spec) == curves.count_bruteforce(spec)


def test_bruteforce_wide_power_classes():
    # e = q - 1 sends every unit to 1, so counts[1] = 1020: a count table or
    # buffer in a narrow dtype would wrap.
    ctx = field(1021)
    assert curves.power_count_table(ctx, 1020)[1] == 1020
    rng = random.Random(1021)
    for d in (2, 3, 5):
        spec = curves.CurveSpec(ctx, 1020, d, rng.randrange(1, 1021), rng.randrange(1, 1021))
        assert curves.count_bruteforce(spec) == curves.count_naive(spec)


def _unit_values(spec):
    """Indices of x^d + a*x + b at x = g^k for k in [0, q-2], built with the
    field's vector adds rather than the oracle's spread planes."""
    ctx = spec.ctx
    s = int(ctx.dlog[spec.a])
    ax = np.concatenate((ctx.exp[s:], ctx.exp[:s]))  # a*x = exp[k + dlog(a)]
    return ctx.add_vec(ctx.add_vec(ctx.pow(ctx.exp, spec.d), ax), spec.b)


@pytest.mark.parametrize("p,n", [(16381, 1), (3, 8)], ids=["16381", "3^8"])
def test_bruteforce_warm_call_allocates_at_most_three_length_q_arrays(p, n):
    ctx = field(p, n)
    curves.count_bruteforce(curves.CurveSpec(ctx, 2, 3, 5, 7))  # builds the cached tables
    spec = curves.CurveSpec(ctx, 2, 3, 11, 13)
    keys = set(ctx._cache)
    tracemalloc.start()
    try:
        n_points = curves.count_bruteforce(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # at most three int64 arrays of length q - 1 (for n > 1 the first digit
    # half's gather, the second's index sum and its gather) plus the headers
    # of the arrays and views, 816 bytes at 3^8: measured 2.00 arrays at
    # 16381 and 3.02 at 3^8
    assert peak < 3 * 8 * (ctx.q - 1) + 4096
    assert set(ctx._cache) == keys
    counts = curves.power_count_table(ctx, 2)
    assert n_points == counts[spec.b] + counts[_unit_values(spec)].sum()


def test_oracles_share_one_context_across_threads():
    # the oracles write only arrays they allocate, so threads on one field
    # get the sequential results; a shared scratch buffer made some counts
    # wrong here
    ctx = field(16381)
    rng = np.random.default_rng(5)
    a, b = rng.integers(1, ctx.q, size=(2, 200))

    def run():
        return ([curves.count_bruteforce(curves.CurveSpec(ctx, 2, 3, x, y))
                 for x, y in zip(a[:40].tolist(), b[:40].tolist())],
                curves.count_bruteforce(curves.CurveSpec(ctx, 2, 3, a, b)).tolist(),
                apps.edwards_count_bruteforce(ctx, a, b).tolist())

    want = run()
    results = [None] * 3

    def worker(i):
        results[i] = [run() for _ in range(3)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(got == want for runs in results for got in runs)


# Fields for the differential test, prime and extension, each with its (e, d)
# pairs with e >= 2, d <= 6 and q = 1 mod e*d*(d-1).
_DIFF_FIELDS = [(13, 1), (37, 1), (41, 1), (61, 1), (73, 1), (5, 2), (7, 2), (3, 4), (11, 2)]


def _admissible(q):
    return [
        (e, d)
        for e in range(2, 7)
        for d in range(2, 7)
        if (q - 1) % (e * d * (d - 1)) == 0
    ]


@given(st.sampled_from(_DIFF_FIELDS), st.data())
def test_closed_form_and_oracles_agree(pn, data):
    ctx = field(*pn)
    e, d = data.draw(st.sampled_from(_admissible(ctx.q)), label="e, d")
    a = data.draw(st.integers(1, ctx.q - 1), label="a")
    b = data.draw(st.integers(1, ctx.q - 1), label="b")
    spec = curves.CurveSpec(ctx, e, d, a, b)
    n = curves.count_naive(spec)
    assert curves.count_bruteforce(spec) == n
    assert curves.count_theorem(spec) == n
    if (e, d) == (2, 3):
        assert apps.lennon_trace(ctx, a, b) == ctx.q - n
    if (e, d) == (3, 4):
        assert apps.e34_trace(ctx, a, b) == ctx.q - n


def test_function_graph_count(f13):
    # e = 1 makes y = x^d + a*x + b a function of x
    spec = curves.CurveSpec(f13, 1, 2, 1, 1)
    assert curves.count_bruteforce(spec) == 13
    assert curves.count_theorem(spec) == 13


def test_spec_validation(f13):
    with pytest.raises(ValueError):
        curves.CurveSpec(f13, 2, 3, 0, 1)
    with pytest.raises(ValueError):
        curves.CurveSpec(f13, 2, 3, 1, 13)
    with pytest.raises(ValueError):
        curves.CurveSpec(f13, 0, 3, 1, 1)
    with pytest.raises(ValueError):
        curves.CurveSpec(f13, 2, 1, 1, 1)


@pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(2.0), True, np.True_, "2", None],
                         ids=["1.5", "2.0", "np2.0", "True", "npTrue", "str", "None"])
def test_non_integer_input_raises_value_error(f37, bad):
    # a float, bool, str or None in place of a, b, e or d is refused as a
    # ValueError when the spec is built or the formula called, never passed
    # on to a table gather (TypeError, or IndexError from count_bruteforce)
    for args in [(2, 3, bad, 2), (2, 3, 1, bad), (bad, 3, 1, 2), (2, bad, 1, 2)]:
        with pytest.raises(ValueError):
            curves.CurveSpec(f37, *args)
    for formula in (apps.lennon_trace, apps.e34_trace, apps.edwards_count_formula):
        for a, b in [(bad, 2), (1, bad)]:
            with pytest.raises(ValueError):
                formula(f37, a, b)


def test_numpy_integer_scalars_are_accepted(f37):
    spec = curves.CurveSpec(f37, np.int64(3), np.int32(4), np.int64(5), np.uint8(7))
    assert spec.dlogs == (f37.dlog_of(5), f37.dlog_of(7))
    assert all(type(v) is int for v in spec.dlogs)
    want = curves.CurveSpec(f37, 3, 4, 5, 7)
    assert curves.count_bruteforce(spec) == curves.count_bruteforce(want)
    assert curves.count_theorem(spec) == curves.count_theorem(want)
    for formula in (apps.lennon_trace, apps.e34_trace, apps.edwards_count_formula):
        assert formula(f37, np.int16(5), np.uint64(7)) == formula(f37, 5, 7)


def test_spec_dlogs_are_checked_once(f37, monkeypatch):
    # the spec keeps the dlogs its check computes, and the oracle and the
    # closed form read them rather than check a and b again
    calls = []
    unit_dlogs = curves._unit_dlogs
    monkeypatch.setattr(curves, "_unit_dlogs", lambda *args: calls.append(args) or unit_dlogs(*args))
    for a, b in [(5, 7), (np.array([5, 6, 30]), np.array([7, 1, 2]))]:
        calls.clear()
        spec = curves.CurveSpec(f37, 3, 4, a, b)
        counts = curves.count_bruteforce(spec)
        assert np.array_equal(curves.count_theorem(spec), counts)
        assert len(calls) == 1
    one, two = curves.CurveSpec(f37, 2, 3, 5, 7), curves.CurveSpec(f37, 2, 3, 5, 7)
    assert one == two and hash(one) == hash(two)
    assert one != curves.CurveSpec(f37, 2, 3, 5, 8)
    assert "dlogs" not in repr(one) and repr(one).endswith(", a=5, b=7)")


def test_congruence_errors(f13):
    with pytest.raises(curves.CongruenceError):
        curves.count_theorem(curves.CurveSpec(f13, 3, 4, 1, 1))
    with pytest.raises(curves.CongruenceError):
        curves.count_theorem(curves.CurveSpec(f13, 3, 3, 1, 1))
    # a refused plan is not cached, so the error repeats
    with pytest.raises(curves.CongruenceError):
        curves.count_theorem(curves.CurveSpec(f13, 3, 3, 2, 5))
    assert ("count_plan", 3, 3) not in f13._cache


def test_theorem_odd_cubic_full_sweep(f13):
    for a in f13.units():
        for b in f13.units():
            spec = curves.CurveSpec(f13, 2, 3, a, b)
            assert curves.count_theorem(spec) == curves.count_bruteforce(spec)


def test_theorem_even_quadratic_full_sweep(f13):
    for a in f13.units():
        for b in f13.units():
            spec = curves.CurveSpec(f13, 2, 2, a, b)
            n = curves.count_theorem(spec)
            assert n == curves.count_bruteforce(spec)
            # y^2 = x^2 + ax + b factors through (y-u)(y+u) = b - a^2/4
            disc = f13.sub(f13.pow(a, 2), f13.mul(4, b))
            assert n == (2 * 13 - 1 if disc == 0 else 13 - 1)


@pytest.mark.parametrize(
    "q,e,d,samples",
    [(37, 3, 4, 30), (19, 3, 3, 30), (37, 3, 3, 20), (41, 2, 5, 20), (73, 3, 4, 10)],
)
def test_theorem_random_samples(q, e, d, samples):
    ctx = field(q)
    rng = random.Random(q * 100 + e * 10 + d)
    for _ in range(samples):
        a = rng.randrange(1, q)
        b = rng.randrange(1, q)
        spec = curves.CurveSpec(ctx, e, d, a, b)
        assert curves.count_theorem(spec) == curves.count_bruteforce(spec)


def test_theorem_extension_field():
    ctx = field(5, 2)  # q = 25 = 1 mod 12 and 1 mod 4
    for a, b in [(3, 7), (11, 21), (6, 6)]:
        spec = curves.CurveSpec(ctx, 2, 3, a, b)
        assert curves.count_theorem(spec) == curves.count_bruteforce(spec)
        spec = curves.CurveSpec(ctx, 2, 2, a, b)
        assert curves.count_theorem(spec) == curves.count_bruteforce(spec)


# Every prime power q <= 81 with an admissible (e, d), e, d <= 6, then the
# degenerate-k families at 181, where a Gauss pair collapses and the plan
# carries correction terms.
_PLAN_SWEEPS = [
    ((p, n), None)
    for p, n in [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2), (29, 1), (37, 1),
                 (41, 1), (7, 2), (53, 1), (61, 1), (73, 1), (3, 4)]
] + [((181, 1), [(3, 3), (3, 6)])]


@pytest.mark.parametrize(
    "pn,families", _PLAN_SWEEPS, ids=[str(p**n) for (p, n), _ in _PLAN_SWEEPS]
)
def test_plan_counts_every_curve(pn, families):
    ctx = field(*pn)
    families = families or _admissible(ctx.q)
    assert families
    for e, d in families:
        for a in ctx.units():
            for b in ctx.units():
                spec = curves.CurveSpec(ctx, e, d, a, b)
                assert curves.count_theorem(spec) == curves.count_bruteforce(spec), (e, d, a, b)


_ARRAY_SWEEPS = [sweep for sweep in _PLAN_SWEEPS if sweep[0][0] ** sweep[0][1] in (13, 37, 25, 49, 81, 181)]
_ARRAY_IDS = [str(p**n) for (p, n), _ in _ARRAY_SWEEPS] + ["25-d2", "16-d2"]
# the extension fields and d = 2 families of
# test_bruteforce_matches_naive_every_pair, most failing the congruence
_ARRAY_SWEEPS += [((5, 2), [(2, 2), (3, 4)]), ((2, 4), [(3, 2), (5, 3)])]


@pytest.mark.parametrize("pn,families", _ARRAY_SWEEPS, ids=_ARRAY_IDS)
def test_array_route_equals_scalar_route(pn, families):
    # every (a, b) once, in q-1 blocks whose rows vary in both a and b
    ctx = field(*pn)
    units = np.arange(1, ctx.q, dtype=np.int64)
    for e, d in families or _admissible(ctx.q):
        # where the congruence fails the oracle stands in for the closed form
        count = curves.count_theorem if (ctx.q - 1) % (e * d * (d - 1)) == 0 else \
            curves.count_bruteforce
        scalar = {}
        for a in ctx.units():
            for b in ctx.units():
                spec = curves.CurveSpec(ctx, e, d, a, b)
                scalar[a, b] = (curves.count_bruteforce(spec), count(spec))
        for shift in range(ctx.q - 1):
            b = np.roll(units, shift)
            block = curves.CurveSpec(ctx, e, d, units, b)
            oracle, formula = curves.count_bruteforce(block), count(block)
            assert oracle.dtype == formula.dtype == np.int64
            want = np.array([scalar[a, b_j] for a, b_j in zip(units.tolist(), b.tolist())])
            assert np.array_equal(oracle, want[:, 0]), (e, d, shift)
            assert np.array_equal(formula, want[:, 1]), (e, d, shift)


@pytest.mark.parametrize("p,n,e,d", [(16381, 1, 3, 4), (3, 8, 5, 2)], ids=["16381", "3^8"])
def test_array_route_random_curves_large_fields(p, n, e, d):
    ctx = field(p, n)
    rng = np.random.default_rng(ctx.q)
    a, b = rng.integers(1, ctx.q, size=(2, 300))
    block = curves.CurveSpec(ctx, e, d, a, b)
    oracle, formula = curves.count_bruteforce(block), curves.count_theorem(block)
    for j in range(a.size):
        spec = curves.CurveSpec(ctx, e, d, int(a[j]), int(b[j]))
        assert oracle[j] == curves.count_bruteforce(spec) == formula[j] == curves.count_theorem(spec)


def test_array_spec_validation(f13):
    ok = np.array([1, 5, 12])
    for a, b in [
        (np.array([1, 0, 3]), ok),  # a zero
        (ok, np.array([1, 13, 3])),  # out of range
        (ok, np.array([-1, 2, 3])),
        (ok, ok[:2]),  # unequal lengths
        (ok, 5),
        (ok.reshape(1, 3), ok.reshape(1, 3)),
        (ok.astype(float), ok),
    ]:
        with pytest.raises(ValueError):
            curves.CurveSpec(f13, 2, 3, a, b)


def _scalar_guard_failures(ctx, e, d, guard, monkeypatch):
    monkeypatch.setattr(curves, "ROUND_GUARD", guard)
    failing = set()
    for a in ctx.units():
        for b in ctx.units():
            try:
                curves.count_theorem(curves.CurveSpec(ctx, e, d, a, b))
            except curves.RoundingGuardError:
                failing.add((a, b))
    return failing


def test_array_route_guard_failure(monkeypatch):
    # A guard tight enough that some curves of the q = 37 (3, 4) family fail;
    # their residues are a few units in the last place.  A block is refused
    # if one row fails at 1.5 times the guard on its own, and accepted if no
    # row fails at 0.7 times it: the margin absorbs a last-place difference
    # between the array and the scalar sums.
    ctx = field(37)
    guard = 1e-14
    sure = _scalar_guard_failures(ctx, 3, 4, 1.5 * guard, monkeypatch)
    maybe = _scalar_guard_failures(ctx, 3, 4, 0.7 * guard, monkeypatch)
    clean = sorted(set(itertools.product(range(1, 37), repeat=2)) - maybe)
    assert sure and clean
    monkeypatch.setattr(curves, "ROUND_GUARD", guard)

    def block(rows):
        a, b = np.array(rows, dtype=np.int64).T
        return curves.CurveSpec(ctx, 3, 4, a, b)

    accepted = block(clean)
    assert np.array_equal(curves.count_theorem(accepted), curves.count_bruteforce(accepted))
    for j, row in enumerate(sorted(sure)):
        with pytest.raises(curves.RoundingGuardError):
            curves.count_theorem(block(clean[j:j + 10] + [row] + clean[j + 10:j + 20]))


def test_plan_built_once_per_family():
    ctx = charsum.make_field(37)
    families = _admissible(37)
    rng = random.Random(37)
    for _ in range(300):
        e, d = rng.choice(families)
        a, b = rng.randrange(1, 37), rng.randrange(1, 37)
        curves.count_theorem(curves.CurveSpec(ctx, e, d, a, b))
    plans = [k for k in ctx._cache if isinstance(k, tuple) and k[0] == "count_plan"]
    assert sorted(plans) == sorted(("count_plan", e, d) for e, d in families)


@pytest.mark.parametrize("pn,e,d", [((37, 1), 3, 4), ((181, 1), 3, 3), ((3, 4), 5, 2)],
                         ids=["37-3-4", "181-3-3", "81-5-2"])
def test_plan_reads_the_series_tables_in_place(pn, e, d):
    # the plan names its e-1 series by reduced parameter tuples; the tables
    # themselves live only under their ("hf", upper, lower) keys
    ctx = charsum.make_field(*pn)
    curves.count_theorem(curves.CurveSpec(ctx, e, d, 1, 2))
    terms, arg, _ = ctx._cache[("count_plan", e, d)]
    L = ctx.q - 1
    series = [t[4] for t in terms[:e - 1]]
    assert len(arg) == 3 and all(series) and not any(t[4] for t in terms[e - 1:])
    for c, *us, params in terms:
        assert type(c) is complex
        assert all(type(u) is int and 0 <= u < L for u in us)
    for upper, lower in series:
        assert (upper, lower) == hyperf.hf_params(ctx, upper, lower)
        assert all(isinstance(m, int) and 0 <= m < L for m in upper + lower)
        assert ("hf", upper, lower) in ctx._cache
    tables = [v for k, v in ctx._cache.items() if isinstance(k, tuple) and k[0] == "hf"]
    held = [arr for k, v in ctx._cache.items() if not (isinstance(k, tuple) and k[0] == "hf")
            for arr in (v if isinstance(v, tuple) else (v,)) if isinstance(arr, np.ndarray)]
    assert not any(np.shares_memory(arr, tab) for arr in held for tab in tables)


_PLAN_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "plan_values_golden.json")


def _golden_plan(ctx, name):
    """The plan a golden record names: "count e d", or "lennon", "e34" or "edwards"."""
    kind, *ed = name.split()
    if kind == "count":
        e, d = map(int, ed)
        return ctx.cached(("count_plan", e, d), curves._count_plan,
                          curves.CurveSpec(ctx, e, d, 1, 1))
    return ctx.cached(f"{kind}_plan", getattr(apps, f"_{kind}_plan"), ctx)


def test_scalar_plan_values_match_golden():
    # repr of the unrounded scalar sum of every count plan each field admits
    # and of the Lennon, (3, 4) and Edwards plans, at 50 seeded (a, b) each,
    # over F_37, F_181, F_25 and F_81: a change to the evaluator or the plan
    # layout must keep every last bit
    with open(_PLAN_GOLDEN) as fh:
        golden = json.load(fh)
    assert len(golden) == 20
    for rec in golden:
        ctx = field(rec["p"], rec["n"])
        plan = _golden_plan(ctx, rec["plan"])
        got = [[a, b, repr(curves._plan_value(ctx, plan, ctx.dlog_of(a), ctx.dlog_of(b)))]
               for a, b, _ in rec["values"]]
        assert got == rec["values"], (rec["p"], rec["n"], rec["plan"])


_PLAN_ARRAY_GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                                  "plan_array_values_golden.json")


def test_array_plan_values_match_golden():
    # the same 20 plans and 50 (a, b) each as plan_values_golden.json, read
    # by one array call per plan: repr of every unrounded sum, to the last bit
    with open(_PLAN_ARRAY_GOLDEN) as fh:
        golden = json.load(fh)
    assert len(golden) == 20
    for rec in golden:
        ctx = field(rec["p"], rec["n"])
        plan = _golden_plan(ctx, rec["plan"])
        a, b = (np.array([ctx.dlog_of(v[k]) for v in rec["values"]]) for k in (0, 1))
        got = [[v[0], v[1], repr(z)]
               for v, z in zip(rec["values"], curves._plan_value(ctx, plan, a, b).tolist())]
        assert got == rec["values"], (rec["p"], rec["n"], rec["plan"])


def test_thm_coeffs_dual_forms():
    configs = [(13, 2, 3), (13, 2, 2), (37, 3, 4), (19, 3, 3), (41, 2, 5), (37, 2, 3)]
    for q, e, d in configs:
        ctx = field(q)
        tc = curves.thm_coeffs(curves.CurveSpec(ctx, e, d, 1, 1))
        assert tc.max_disc < 1e-6, (q, e, d, tc.max_disc)
        assert len(tc.m_product) == e - 1
        if d % 2:
            assert len(tc.n_product) == e - 1
        else:
            assert tc.n_product is None


def test_thm_coeffs_e2_closed_forms(f13):
    # even d: M_1 = q^(d/2) T^((q-1)/2)(-1); odd d: N_1 = q^(d-1) T^(-(d-1)(q-1)/(8d))(-1)
    tc = curves.thm_coeffs(curves.CurveSpec(f13, 2, 2, 1, 1))
    assert abs(tc.m_simplified[0] - 13 * chars.mul_char(f13, 6, 12)) < 1e-9
    tc = curves.thm_coeffs(curves.CurveSpec(f13, 2, 3, 1, 1))
    sign = chars.mul_char(f13, -(2 * 12) // 24, f13.minus_one())
    assert abs(tc.n_simplified[0] - 13**2 * sign) < 1e-8
    assert abs(tc.m_simplified[0] - 13 * sign) < 1e-9


# -- the count as directly summed character sums (O(q^2) time, tests only) ----

def _difference_histogram(ctx, us, vs):
    """hist[s] = #{(i, j) : us[i] - vs[j] = s} as float64 integers, in O(q)
    memory: the additive correlation of the two value histograms."""
    counts = np.bincount(us, minlength=ctx.q), np.bincount(ctx.neg(vs), minlength=ctx.q)
    return np.rint(sums._convolve_add(ctx, *counts).real)


def indicator_decomposition(spec):
    """Directly summed pieces of q*N = q^2 + A + B + C + D.

    A and B carry closed forms (A = -1, B = 1 + q * sum_i T^(-i(q-1)/e)(b));
    C + D is exactly q*N - q^2 - q*sum_i T^(-i(q-1)/e)(b).  Every piece here
    is computed from its defining character sum for cross-checking.
    """
    ctx = spec.ctx
    q = ctx.q
    theta = chars.theta_table(ctx)
    zs = np.arange(1, q, dtype=np.int64)

    a_direct = complex(np.sum(theta[ctx.mul(zs, spec.b)]))

    ye = ctx.pow(zs, spec.e)  # y^e over nonzero y
    b_direct = 0j
    for z in ctx.units():
        bz = theta[ctx.mul(spec.b, z)]
        b_direct += bz * np.sum(theta[ctx.mul(ye, ctx.neg(z))])

    vals = _unit_values(spec)  # x^d + a*x + b over nonzero x
    c_direct = 0j
    for z in ctx.units():
        c_direct += np.sum(theta[ctx.mul(vals, z)])

    # D accumulated through the multiplicity histogram of v(x) - y^e
    hist = _difference_histogram(ctx, vals, ye)
    d_direct = 0j
    for z in ctx.units():
        d_direct += np.sum(hist * theta[ctx.mul(np.arange(q, dtype=np.int64), z)])

    b_closed = None
    if (q - 1) % spec.e == 0:
        m1 = (q - 1) // spec.e
        b_closed = 1 + q * sum(
            chars.mul_char(ctx, -i * m1, spec.b) for i in range(1, spec.e)
        )
    return {
        "a_direct": a_direct,
        "a_closed": -1 + 0j,
        "b_direct": b_direct,
        "b_closed": b_closed,
        "cd_direct": c_direct + d_direct,
    }


def test_indicator_decomposition(f13, f19):
    for ctx, e, d in [(f13, 2, 3), (f13, 3, 2), (f19, 3, 3)]:
        spec = curves.CurveSpec(ctx, e, d, 1, 5)
        parts = indicator_decomposition(spec)
        q = ctx.q
        tol = 1e-9 * q * q
        assert abs(parts["a_direct"] - parts["a_closed"]) < tol
        assert abs(parts["b_direct"] - parts["b_closed"]) < tol
        # q*N = q^2 + A + B + (C + D)
        n_points = curves.count_bruteforce(spec)
        total = q * q + parts["a_direct"] + parts["b_direct"] + parts["cd_direct"]
        assert abs(total - q * n_points) < tol


@pytest.mark.parametrize("pn", [(13, 1), (19, 1), (3, 2)], ids=["13", "19", "9"])
def test_difference_histogram_matches_outer_difference(pn):
    # the O(q) correlation against the (q-1) x (q-1) matrix it replaced
    ctx = field(*pn)
    for e, d, a, b in [(2, 3, 1, 5), (3, 2, 2, 1), (3, 3, 1, 1)]:
        spec = curves.CurveSpec(ctx, e, d, a, b)
        vals = _unit_values(spec)
        ye = ctx.pow(np.arange(1, ctx.q), e)
        diff = ctx.add_vec(vals[:, None], ctx.neg(ye)[None, :])
        want = np.bincount(diff.ravel(), minlength=ctx.q)
        got = _difference_histogram(ctx, vals, ye)
        assert got.dtype == np.float64 and np.array_equal(got, want)


def test_count_residual_identity(f13):
    # q*N - q^2 - q*sum_i T^(-i(q-1)/e)(b) equals the C+D character sums
    for e, d, a, b in [(2, 3, 1, 1), (3, 2, 2, 5)]:
        spec = curves.CurveSpec(f13, e, d, a, b)
        parts = indicator_decomposition(spec)
        q = f13.q
        m1 = (q - 1) // e
        sum_b = sum(chars.mul_char(f13, -i * m1, b) for i in range(1, e))
        lhs = q * curves.count_bruteforce(spec) - q * q - q * sum_b
        assert abs(lhs - parts["cd_direct"]) < 1e-9 * q * q


def test_trace_frobenius(f13, f37):
    spec = curves.CurveSpec(f13, 2, 3, 1, 1)
    # 13 = 1 mod 12, so the closed form applies; enumeration agrees
    assert curves.trace_frobenius(spec) == 13 - curves.count_theorem(spec)
    assert curves.trace_frobenius(spec) == 13 - curves.count_bruteforce(spec)
    spec = curves.CurveSpec(f37, 3, 4, 1, 1)
    assert curves.trace_frobenius(spec) == 37 - curves.count_theorem(spec)


def test_trace_hasse_bound_sweep(f13):
    bound = 2 * math.sqrt(13)
    for a in f13.units():
        for b in f13.units():
            a_q = curves.trace_frobenius(curves.CurveSpec(f13, 2, 3, a, b))
            assert abs(a_q) <= bound


def test_trace_frobenius_checks_the_weil_bound(monkeypatch):
    # gcd(e, d) = 1: one point at infinity and 2g = (e-1)(d-1), so every
    # trace meets a_q^2 <= ((e-1)(d-1))^2 q; a count patched far outside it
    # is refused, for (3, 4) as for (2, 3), in ints and in arrays
    f37, f49 = field(37), field(7, 2)
    # 0 * spec.b gives the count the spec's shape
    monkeypatch.setattr(curves, "count_theorem", lambda spec: spec.ctx.q + 1000 + 0 * spec.b)
    for spec in (curves.CurveSpec(f37, 3, 4, 1, 2),
                 curves.CurveSpec(f37, 3, 4, np.array([1, 3]), np.array([2, 5]))):
        with pytest.raises(curves.RoundingGuardError, match="Weil bound"):
            curves.trace_frobenius(spec)
    # the bound is attained, so it is compared in exact integers: at q = 49,
    # (2, 3) allows |a_q| = 2 * 7 and no more
    spec = curves.CurveSpec(f49, 2, 3, 1, 2)
    for a_q in (14, -14):
        monkeypatch.setattr(curves, "count_theorem", lambda spec, a_q=a_q: 49 - a_q)
        assert curves.trace_frobenius(spec) == a_q
    monkeypatch.setattr(curves, "count_theorem", lambda spec: 49 - 15)
    with pytest.raises(curves.RoundingGuardError, match="Weil bound"):
        curves.trace_frobenius(spec)
    # gcd(e, d) > 1 leaves the genus open, so (3, 3) is not checked
    monkeypatch.setattr(curves, "count_theorem", lambda spec: spec.ctx.q + 1000)
    assert curves.trace_frobenius(curves.CurveSpec(f37, 3, 3, 1, 2)) == -1000


def test_trace_falls_back_without_congruence(f17):
    # 17 is not 1 mod 12, so the theorem path is inadmissible
    spec = curves.CurveSpec(f17, 2, 3, 1, 1)
    assert curves.trace_frobenius(spec) == 17 - curves.count_bruteforce(spec)


@pytest.mark.parametrize("e,d", [(2, 3), (2, 2), (2, 5)])
def test_trace_frobenius_on_arrays_matches_per_int_calls(f13, e, d):
    # (2, 3) and (2, 2) take the closed form at q = 13, (2, 5) enumeration;
    # the Hasse check of (2, 3) applies entry by entry
    a, b = (np.array(v) for v in zip(*itertools.product(f13.units(), repeat=2)))
    got = curves.trace_frobenius(curves.CurveSpec(f13, e, d, a, b))
    expect = [curves.trace_frobenius(curves.CurveSpec(f13, e, d, int(x), int(y)))
              for x, y in zip(a, b)]
    assert got.dtype == np.int64 and got.tolist() == expect
    assert all(type(t) is int for t in expect)


def test_power_count_table(f13):
    counts = curves.power_count_table(f13, 2)
    assert counts[0] == 1
    assert int(counts.sum()) == 13
    for v in f13.units():
        expect = 2 if chars.legendre(f13, v) == 1 else 0
        assert counts[v] == expect


def test_count_naive_bounded_memory_at_size_cap():
    # both oracles at q = 65521 in a fresh process; a (q, q) array would
    # take several GB
    code = """
import resource
from charsum import apps, curves, make_field
ctx = make_field(65521)
spec = curves.CurveSpec(ctx, 2, 3, 1, 1)
expect = curves.count_bruteforce(spec)
edwards = apps.edwards_count_formula(ctx, 2, 3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert curves.count_naive(spec) == expect
assert apps.edwards_count_bruteforce(ctx, 2, 3) == edwards
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) // 1024)
"""
    src_dir = os.path.dirname(os.path.dirname(charsum.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src_dir},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100  # MB of peak RSS growth


def test_round_guard_imaginary_bound(f13):
    f16381 = field(16381)
    # tol * q^2 is 0.27 here; the bound is capped at ROUND_GUARD
    with pytest.raises(curves.RoundingGuardError):
        curves._round_guarded(f16381, 5 + 0.02j)
    assert curves._round_guarded(f16381, 5 + 1e-9j) == 5
    with pytest.raises(curves.RoundingGuardError):
        curves._round_guarded(f13, 5 + 1e-6j)  # tol * q^2 = 1.7e-7 at q = 13
    # arrays: both guards element-wise, one failing entry refuses the call
    got = curves._round_guarded(f16381, np.array([5 + 1e-9j, -7.004 - 1e-9j]))
    assert got.dtype == np.int64 and got.tolist() == [5, -7]
    for bad in (5 + 0.02j, 5.02 + 0j):
        with pytest.raises(curves.RoundingGuardError, match="worst residues"):
            curves._round_guarded(f16381, np.array([3 + 0j, bad, 4 + 0j]))
