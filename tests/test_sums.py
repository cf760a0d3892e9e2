"""Gauss sums, Jacobi sums, Greene binomials, and the identity suites.

Oracles here recompute everything from the definitions: Gauss sums by
literal summation over field elements, Jacobi sums by the two-variable sum,
multi-sums by full tuple enumeration.
"""

import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import charsum
from charsum import chars, hyperf, make_field, sums

from conftest import field


def gauss_oracle(ctx, m):
    return sum(
        chars.mul_char(ctx, m, x) * chars.add_char(ctx, x) for x in ctx.units()
    )


def jacobi_oracle(ctx, a, b):
    return sum(
        chars.mul_char(ctx, a, x) * chars.mul_char(ctx, b, ctx.sub(1, x))
        for x in ctx.elements()
    )


def jacobi3_oracle(ctx, k1, k2, k3):
    total = 0j
    for x1 in ctx.elements():
        for x2 in ctx.elements():
            x3 = ctx.sub(ctx.sub(1, x1), x2)
            total += (
                chars.mul_char(ctx, k1, x1)
                * chars.mul_char(ctx, k2, x2)
                * chars.mul_char(ctx, k3, x3)
            )
    return total


def test_gauss_table_matches_oracle(f13, f9):
    for ctx in (f13, f9):
        G = sums.gauss_table(ctx)
        for m in range(ctx.q - 1):
            assert abs(G[m] - gauss_oracle(ctx, m)) < 1e-9 * ctx.q


def test_gauss_known_values(f13):
    assert abs(sums.gauss_sum(f13, 0) - (-1)) < 1e-12
    assert abs(sums.gauss_sum(f13, 6) - math.sqrt(13)) < 1e-12
    prod = sums.gauss_sum(f13, 3) * sums.gauss_sum(f13, -3)
    assert abs(prod - (-13)) < 1e-11  # 13 * T^3(-1) with T^3(-1) = -1


def test_gauss_magnitudes(f37):
    G = sums.gauss_table(f37)
    assert abs(G[0] + 1) < 1e-12
    np.testing.assert_allclose(np.abs(G[1:]) ** 2, 37.0, atol=1e-9 * 37)


def test_gauss_quadratic_branches():
    # q = 3 mod 4 takes the imaginary branch
    ctx19 = field(19)
    assert abs(sums.gauss_sum(ctx19, 9) - 1j * math.sqrt(19)) < 1e-11
    # extension fields carry the norm-lift sign
    assert abs(sums.gauss_sum(field(5, 2), 12) - (-5)) < 1e-11
    assert abs(sums.gauss_sum(field(3, 3), 13) - (-1j * math.sqrt(27))) < 1e-11
    assert abs(sums.gauss_sum(field(3, 2), 4) - 3) < 1e-11


def test_gauss_table_idempotent(f13):
    t1 = sums.gauss_table(f13)
    t2 = sums.gauss_table(f13)
    assert t1 is t2


@pytest.mark.parametrize("pn", [(43, 1), (4093, 1), (3, 8)], ids=["43", "4093", "3^8"])
def test_gauss_table_properties(pn):
    ctx = field(*pn)
    G = sums.gauss_table(ctx)
    assert abs(G[0] + 1) < 1e-10
    np.testing.assert_allclose(np.abs(G[1:]) ** 2, ctx.q, atol=1e-9 * ctx.q)


@pytest.mark.parametrize("pn", [(4093, 1), (3, 8)], ids=["4093", "3^8"])
def test_gauss_table_matches_defining_sum(pn):
    # seeded sample of m against sum_x T^m(x) theta(x), summed over the units
    ctx = field(*pn)
    G = sums.gauss_table(ctx)
    xs = np.array(ctx.units(), dtype=np.int64)
    theta = chars.theta_table(ctx)[xs]
    rng = np.random.default_rng(11)
    for m in rng.choice(ctx.q - 1, size=16, replace=False):
        direct = np.sum(chars.mul_char(ctx, int(m), xs) * theta)
        assert abs(G[m] - direct) < 1e-9 * ctx.q


@pytest.mark.parametrize("pn", [(13, 1), (3, 2), (3, 3)], ids=["13", "3^2", "3^3"])
def test_convolve_add_matches_double_loop(pn):
    ctx = field(*pn)
    rng = np.random.default_rng(5)
    f, g = rng.standard_normal((2, 3, ctx.q)) + 1j * rng.standard_normal((2, 3, ctx.q))
    ref = np.zeros((3, ctx.q), dtype=np.complex128)
    for u in ctx.elements():
        for v in ctx.elements():
            ref[:, ctx.add(u, v)] += f[:, u] * g[:, v]
    np.testing.assert_allclose(sums._convolve_add(ctx, f[0], g[0]), ref[0], atol=1e-9)
    # leading axes are a batch
    np.testing.assert_allclose(sums._convolve_add(ctx, f, g), ref, atol=1e-9)


def test_jacobi_special_values(f13):
    assert abs(sums.jacobi_sum(f13, 0, 0) - 11) < 1e-12  # q - 2
    assert abs(sums.jacobi_sum(f13, 6, 6) - (-1)) < 1e-12
    assert abs(sums.jacobi_sum(f13, 4, 0) - (-1)) < 1e-12
    assert abs(sums.jacobi_sum(f13, 0, 4) - (-1)) < 1e-12


def test_jacobi_matches_oracle_all_pairs(f13):
    L = f13.q - 1
    for a in range(L):
        for b in range(L):
            assert abs(sums.jacobi_sum(f13, a, b) - jacobi_oracle(f13, a, b)) < 1e-10


def test_jacobi_matches_oracle_extension(f9):
    L = f9.q - 1
    for a in range(L):
        for b in range(L):
            assert abs(sums.jacobi_sum(f9, a, b) - jacobi_oracle(f9, a, b)) < 1e-10


def test_jacobi_multi_pairs_agree_with_two_arg(f13):
    for a in range(1, 12):
        for b in range(1, 12):
            if (a + b) % 12 == 0:
                continue
            lhs = sums.jacobi_multi(f13, [a, b])
            rhs = sums.jacobi_sum(f13, a, b)
            assert abs(lhs - rhs) < 1e-10


def test_jacobi_multi_trivial_pair(f13):
    assert abs(sums.jacobi_multi(f13, [0, 0]) - 11) < 1e-12


def test_jacobi_multi_fallback_matches_enumeration(f13):
    # sum of exponents is trivial, so the quotient path is inadmissible and
    # the convolution fallback must reproduce the full triple enumeration
    val = sums.jacobi_multi(f13, [4, 4, 4])
    oracle = jacobi3_oracle(f13, 4, 4, 4)
    assert abs(val - oracle) < 1e-9
    # the inadmissible quotient would be off by a factor q
    G = sums.gauss_table(f13)
    assert abs(G[4] ** 3 / G[0] - oracle) > 1


def test_jacobi_multi_quotient_matches_enumeration(f13):
    val = sums.jacobi_multi(f13, [1, 2, 4])
    assert abs(val - jacobi3_oracle(f13, 1, 2, 4)) < 1e-9


def test_greene_binom_values(f13):
    assert abs(sums.greene_binom(f13, 0, 0) - 11 / 13) < 1e-12
    assert abs(sums.greene_binom(f13, 4, 0) - (-1 / 13)) < 1e-12


def test_binom_identity_grid(f17):
    # binom(A, B) = binom(A, A*conj(B)) across the full character grid
    L = f17.q - 1
    for a in range(L):
        for b in range(L):
            lhs = sums.greene_binom(f17, a, b)
            rhs = sums.greene_binom(f17, a, a - b)
            assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("pn", [(13, 1), (5, 2)], ids=["13", "25"])
def test_binom_translate_rhs_matches_character_sum(pn):
    ctx = field(*pn)
    L = ctx.q - 1
    for a in range(L):
        binoms = [sums.greene_binom(ctx, a, k) for k in range(L)]
        got = sums.binom_translate_rhs(ctx, a)
        for x in ctx.elements():
            want = (1 if x == 0 else 0) + ctx.q / L * sum(
                binoms[k] * chars.mul_char(ctx, k, x) for k in range(L)
            )
            assert abs(got[x] - want) < 1e-12
    report = sums.verify_identity(ctx, "binom-translate")
    assert report.cases == L * ctx.q and report.match
    a, x = report.worst_case
    lhs = chars.mul_char(ctx, a, ctx.add(1, x))
    assert report.formula == lhs
    assert abs(lhs - sums.binom_translate_rhs(ctx, a)[x]) == pytest.approx(report.disc)


@pytest.mark.parametrize("name", sums.IDENTITY_NAMES)
@pytest.mark.parametrize("q", [(13, 1), (17, 1), (5, 2)])
def test_identities_pass(name, q):
    ctx = field(*q)
    report = sums.verify_identity(ctx, name)
    assert report.match, (name, ctx.q, report.disc, report.worst_case)
    assert report.cases > 0


def test_jacobi_gauss_at_q2():
    # F_2 has no nontrivial character, so the check draws no exponent triples
    report = sums.verify_identity(field(2), "jacobi-gauss")
    assert report.match


def test_identity_unknown_name(f13):
    with pytest.raises(KeyError):
        sums.verify_identity(f13, "no-such-identity")


@pytest.mark.parametrize("name,param", [("gauss-shift", "mm"), ("gauss-reflection", "n"),
                                        ("jacobi-gauss", "m"), ("theta-delta", "a")])
def test_identity_refuses_parameters_it_does_not_take(f13, name, param):
    with pytest.raises(ValueError, match=f"identity '{name}' takes no parameter '{param}'"):
        sums.verify_identity(f13, name, **{param: 3})


def test_identity_skip_on_precondition(f13):
    report = sums.verify_identity(f13, "gauss-shift", m=3, n=3)
    assert report.cases == 0
    assert report.skipped == 1
    assert report.match  # vacuous


def test_theta_expansion_reconstructs(f25):
    report = sums.verify_identity(f25, "theta-expansion")
    assert report.match and report.cases == f25.q - 1


@pytest.mark.parametrize("d", [2, 3, 4, 6, 12])
def test_davenport_hasse_f13(f13, d):
    for t in (1, -1):
        report = sums.davenport_hasse(f13, d, t=t)
        assert report.match, (d, t, report.disc)
        assert report.cases == f13.q - 1


def test_davenport_hasse_single_l(f13):
    assert sums.davenport_hasse(f13, 3, l=0, t=1).match
    assert sums.davenport_hasse(f13, 2, l=1, t=1).match


def test_davenport_hasse_congruence_error(f13):
    with pytest.raises(charsum.CongruenceError, match="q = 13 is not 1 mod 5"):
        sums.davenport_hasse(f13, 5)


# ---------------------------------------------------------------------------
# Array grids against the per-case loops they replaced, kept here as the
# reference: scalar greene_binom / jacobi_sum / jacobi_direct / mul_char calls,
# one case at a time, with no chunking and no binom_grid.
# ---------------------------------------------------------------------------

class RefWorst:
    """The loop tracker: first strictly largest discrepancy, plus every
    case's (disc, lhs, rhs) for checking the array grid's worst case."""

    def __init__(self):
        self.disc, self.case, self.cases, self.skipped = 0.0, (), 0, 0
        self.seen = {}

    def update(self, disc, case, lhs, rhs):
        self.cases += 1
        self.seen[case] = (disc, complex(lhs), complex(rhs))
        if disc > self.disc:
            self.disc, self.case = disc, case

    def skip(self):
        self.skipped += 1


def ref_gauss_reflection(ctx, w, m=None):
    L = ctx.q - 1
    G = sums.gauss_table(ctx)
    for mm in range(1, L) if m is None else [m % L]:
        if mm % L == 0:
            w.skip()
            continue
        lhs = G[mm] * G[(-mm) % L]
        rhs = ctx.q * _sign(ctx, mm)
        w.update(abs(lhs - rhs), (mm,), lhs, rhs)


def ref_gauss_shift(ctx, w, m=None, n=None):
    L = ctx.q - 1
    G = sums.gauss_table(ctx)
    for mm in range(L) if m is None else [m % L]:
        for nn in range(L) if n is None else [n % L]:
            if (mm - nn) % L == 0:
                w.skip()
                continue
            # J(T^m, T^-n) from its defining sum, not from G
            lhs = G[mm] * G[(-nn) % L]
            rhs = sums.jacobi_direct(ctx, mm, -nn) * G[(mm - nn) % L]
            w.update(abs(lhs - rhs), (mm, nn), lhs, rhs)


def ref_jacobi_gauss(ctx, w, seed=0, triples=24):
    L = ctx.q - 1
    G = sums.gauss_table(ctx)
    for a in range(1, L):
        for b in range(1, L):
            if (a + b) % L == 0:
                w.skip()
                continue
            lhs = sums.jacobi_direct(ctx, a, b)
            rhs = G[a] * G[b] / G[(a + b) % L]
            w.update(abs(lhs - rhs), (a, b), lhs, rhs)
    rng = random.Random(seed)
    seen = 0
    while seen < triples:
        ks = [rng.randrange(1, L) for _ in range(3)]
        if sum(ks) % L == 0:
            continue
        lhs = sums.jacobi_multi(ctx, ks)
        f1, f2, f3 = (chars.mul_char(ctx, e, np.arange(ctx.q)) for e in ks)
        rhs = complex(sums._convolve_add(ctx, sums._convolve_add(ctx, f1, f2), f3)[1])
        w.update(abs(lhs - rhs), tuple(ks), lhs, rhs)
        seen += 1


def ref_theta_expansion(ctx, w):
    L = ctx.q - 1
    G = sums.gauss_table(ctx)
    unit = chars.unit_roots(ctx)
    g_neg = G[(-np.arange(L)) % L]
    for alpha in ctx.units():
        k = ctx.dlog_of(alpha)
        rhs = np.sum(g_neg * unit[(np.arange(L) * k) % L]) / L
        lhs = chars.add_char(ctx, alpha)
        w.update(abs(lhs - rhs), (alpha,), lhs, rhs)


def ref_orthogonality(ctx, w):
    L = ctx.q - 1
    unit = chars.unit_roots(ctx)
    ks = np.arange(L, dtype=np.int64)
    for m in range(L):
        lhs = np.sum(unit[(m * ks) % L])
        rhs = L if m == 0 else 0.0
        w.update(abs(lhs - rhs), ("char-sum", m), lhs, rhs)
    for x in ctx.units():
        lhs = np.sum(unit[(ks * ctx.dlog_of(x)) % L])
        rhs = L if x == 1 else 0.0
        w.update(abs(lhs - rhs), ("point-sum", x), lhs, rhs)


def ref_binom_translate(ctx, w, a=None):
    # the right side as the literal character sum, not through the FFT
    L = ctx.q - 1
    for aa in range(L) if a is None else [a % L]:
        binoms = [sums.greene_binom(ctx, aa, k) for k in range(L)]
        for x in ctx.elements():
            lhs = chars.mul_char(ctx, aa, ctx.add(1, x))
            rhs = (1 if x == 0 else 0) + ctx.q / L * sum(
                binoms[k] * chars.mul_char(ctx, k, x) for k in range(L)
            )
            w.update(abs(lhs - rhs), (aa, x), lhs, rhs)


def ref_binom_grid(rhs_of):
    def check(ctx, w):
        L = ctx.q - 1
        for a in range(L):
            for b in range(L):
                lhs = sums.greene_binom(ctx, a, b)
                rhs = rhs_of(ctx, a, b)
                w.update(abs(lhs - rhs), (a, b), lhs, rhs)

    return check


def ref_gauss_special(ctx, w):
    G = sums.gauss_table(ctx)
    w.update(abs(G[0] - (-1)), ("trivial",), complex(G[0]), -1 + 0j)
    if ctx.q % 2:
        expect = sums.quadratic_gauss_value(ctx)
        got = complex(G[(ctx.q - 1) // 2])
        w.update(abs(got - expect), ("quadratic",), got, expect)


def ref_theta_delta(ctx, w):
    theta = chars.theta_table(ctx)
    zs = np.arange(ctx.q, dtype=np.int64)
    for wdiff in ctx.elements():
        lhs = np.sum(theta[ctx.mul(zs, wdiff)])
        rhs = ctx.q if wdiff == 0 else 0.0
        w.update(abs(lhs - rhs), (wdiff,), lhs, rhs)


def _sign(ctx, k):
    # T^k(-1) is +-1; the table root exp(i*pi) carries a 1.2e-16 imaginary part
    return round(chars.mul_char(ctx, k, ctx.minus_one()).real)


REFERENCE = {
    "gauss-reflection": ref_gauss_reflection,
    "gauss-shift": ref_gauss_shift,
    "jacobi-gauss": ref_jacobi_gauss,
    "theta-expansion": ref_theta_expansion,
    "orthogonality": ref_orthogonality,
    "binom-translate": ref_binom_translate,
    "binom-absorb": ref_binom_grid(lambda ctx, a, b: sums.greene_binom(ctx, a, a - b)),
    "binom-complement": ref_binom_grid(
        lambda ctx, a, b: sums.greene_binom(ctx, b - a, b) * _sign(ctx, b)),
    # binom(T^-b, T^-a) from its defining Jacobi sum J(T^-b, T^a), not from G
    "binom-transpose": ref_binom_grid(
        lambda ctx, a, b: _sign(ctx, -a) / ctx.q * sums.jacobi_direct(ctx, -b, a)
        * _sign(ctx, a + b)),
    "gauss-special": ref_gauss_special,
    "theta-delta": ref_theta_delta,
}


def ref_davenport_hasse(ctx, w, d, l=None, t=1):
    L = ctx.q - 1
    G = sums.gauss_table(ctx)
    step = L // d
    d_pow = ctx.pow(ctx.embed(d), d)
    if d % 2:
        sign_exp = (d - 1) * (d + 1) * L // (8 * d)
        scale = ctx.q ** ((d - 1) // 2) * _sign(ctx, sign_exp)
    else:
        sign_exp = (d - 2) * L // 8
        scale = ctx.q ** ((d - 2) // 2) * G[L // 2] * _sign(ctx, sign_exp)
    for ll in range(L) if l is None else [l % L]:
        lhs = complex(np.prod(G[(ll + t * step * np.arange(d)) % L]))
        rhs = scale * chars.mul_char(ctx, -ll, d_pow) * G[(ll * d) % L]
        w.update(abs(lhs - rhs), (ll, t), lhs, rhs)


def run_reference(ctx, name, **params):
    ref = RefWorst()
    if name == "davenport-hasse":
        ref_davenport_hasse(ctx, ref, **params)
    else:
        REFERENCE[name](ctx, ref, **params)
    return ref


def run_grid(ctx, name, **params):
    if name == "davenport-hasse":
        return sums.davenport_hasse(ctx, **params)
    return sums.verify_identity(ctx, name, **params)


# The default cell budget holds every grid at q <= 37 in one chunk; the small
# budgets force several chunks per grid, of several rows and of one row.
BLOCK_SIZES = (sums._GRID_BLOCK_CELLS, 100, 5)


def assert_matches_reference(report, ref):
    assert (report.cases, report.skipped) == (ref.cases, ref.skipped)
    assert report.match == (ref.disc < report.tol)
    assert abs(report.disc - ref.disc) <= 1e-12
    if report.worst_case != ref.case:
        # a tie: the two cases' discrepancies agree; Davenport-Hasse products
        # reach q^(d/2), where numpy's array multiply and the scalar one round
        # apart, so theirs agree to a few ulps of the product
        tie = 1e-13
        if report.name == "davenport-hasse":
            tie = max(tie, 4 * np.spacing(abs(report.formula)))
        assert abs(ref.seen[report.worst_case][0] - ref.disc) <= tie
    if report.worst_case:
        # the reported values belong to the reported case
        _, lhs, rhs = ref.seen[report.worst_case]
        assert abs(report.formula - lhs) <= 1e-12
        assert abs(report.oracle - rhs.real) <= 1e-12


GRID_FIELDS = [(13, 1), (5, 2), (37, 1)]
DH_CASES = [dict(d=d, t=t) for d in (3, 4) for t in (1, -1)]


@pytest.mark.parametrize("pn", GRID_FIELDS, ids=["13", "25", "37"])
@pytest.mark.parametrize("name", sums.IDENTITY_NAMES)
def test_grid_matches_reference_loop(name, pn, monkeypatch):
    ctx = field(*pn)
    ref = run_reference(ctx, name)
    for block in BLOCK_SIZES:
        monkeypatch.setattr(sums, "_GRID_BLOCK_CELLS", block)
        assert_matches_reference(sums.verify_identity(ctx, name), ref)


@pytest.mark.parametrize("pn", [(13, 1), (37, 1)], ids=["13", "37"])
def test_davenport_hasse_matches_reference_loop(pn, monkeypatch):
    ctx = field(*pn)
    for params in DH_CASES:
        ref = run_reference(ctx, "davenport-hasse", **params)
        for block in BLOCK_SIZES:
            monkeypatch.setattr(sums, "_GRID_BLOCK_CELLS", block)
            assert_matches_reference(sums.davenport_hasse(ctx, **params), ref)


PINNED = [
    ("gauss-reflection", dict(m=5)),
    ("gauss-reflection", dict(m=0)),  # T^0 trivial: skipped
    ("gauss-shift", dict(m=3)),
    ("gauss-shift", dict(n=5)),
    ("gauss-shift", dict(m=0)),
    ("gauss-shift", dict(m=-1, n=4)),
    ("gauss-shift", dict(m=3, n=3)),  # skipped
    ("binom-translate", dict(a=2)),
    ("binom-translate", dict(a=0)),
] + [("davenport-hasse", dict(l=3, **dh)) for dh in DH_CASES]


@pytest.mark.parametrize("pn", GRID_FIELDS, ids=["13", "25", "37"])
def test_pinned_grid_matches_reference_loop(pn, monkeypatch):
    ctx = field(*pn)
    for name, params in PINNED:
        if name == "davenport-hasse" and (ctx.q - 1) % params["d"]:
            continue
        ref = run_reference(ctx, name, **params)
        for block in BLOCK_SIZES:
            monkeypatch.setattr(sums, "_GRID_BLOCK_CELLS", block)
            assert_matches_reference(run_grid(ctx, name, **params), ref)


def noisy_field(p, n, tables):
    """A fresh context whose cached tables carry seeded noise of 1e-3, so
    that the discrepancies of a grid lie far apart, apart from cases that tie
    by symmetry (gauss-shift at (0, n) and (-n, 0)); both routes read the
    same noisy values."""
    ctx = make_field(p, n)
    sums.gauss_table(ctx)
    rng = np.random.default_rng(17)
    for key in tables:
        tab = {"gauss": sums.gauss_table, "theta": chars.theta_table,
               "unit_roots": chars.unit_roots}[key](ctx)
        ctx._cache[key] = tab + 1e-3 * (rng.standard_normal(tab.shape)
                                       + 1j * rng.standard_normal(tab.shape))
    return ctx


# orthogonality reads only the roots of unity, theta-delta only theta; the
# rest read G (theta-expansion also theta).  Roots of unity stay exact
# elsewhere, because the reference takes degenerate Jacobi sums from them.
NOISY_TABLES = {"orthogonality": ("unit_roots",), "theta-delta": ("theta",)}
# the jacobi-gauss triples also read G; without them the worst case is the grid's
NOISY_PARAMS = {"davenport-hasse": DH_CASES, "jacobi-gauss": [{}, dict(triples=0)]}


@pytest.mark.parametrize("pn", [(13, 1), (37, 1)], ids=["13", "37"])
@pytest.mark.parametrize("name", sums.IDENTITY_NAMES + ("davenport-hasse",))
def test_grid_worst_case_under_noise(name, pn, monkeypatch):
    ctx = noisy_field(*pn, NOISY_TABLES.get(name, ("gauss", "theta")))
    for params in NOISY_PARAMS.get(name, [{}]):
        ref = run_reference(ctx, name, **params)
        assert ref.disc > 1e-6  # the noise shows
        if name == "gauss-shift":  # and not only on the degenerate entries
            assert max(v[0] for (m, n), v in ref.seen.items() if m and n) > 1e-6
        for block in BLOCK_SIZES:
            monkeypatch.setattr(sums, "_GRID_BLOCK_CELLS", block)
            assert_matches_reference(run_grid(ctx, name, **params), ref)


@pytest.mark.parametrize("pn", [(13, 1), (5, 2), (3, 3), (2, 4)], ids=["13", "25", "27", "16"])
def test_binom_grid_matches_greene_binom(pn):
    # every (a, b), so every degenerate entry: a = 0, b = 0, a = b
    ctx = field(*pn)
    L = ctx.q - 1
    ks = np.arange(L)
    grid = sums.binom_grid(ctx, ks[:, None], ks)
    assert grid.shape == (L, L)
    ref = np.array([[sums.greene_binom(ctx, a, b) for b in range(L)] for a in range(L)])
    assert np.abs(grid - ref).max() < 1e-14
    # exponents are taken mod q-1
    assert np.array_equal(sums.binom_grid(ctx, ks[:, None] - L, ks + 2 * L), grid)
    # the same entries through 0-d, row, column and shifted-row shapes
    for a in range(L):
        row = sums.binom_grid(ctx, a, ks)
        col = sums.binom_grid(ctx, ks[:, None], a)
        assert row.shape == (L,) and col.shape == (L, 1)
        assert np.abs(row - ref[a]).max() < 1e-14
        assert np.abs(col[:, 0] - ref[:, a]).max() < 1e-14
        shifted = sums.binom_grid(ctx, a + ks, ks)
        assert np.abs(shifted - ref[(a + ks) % L, ks]).max() < 1e-14
        for b in range(L):
            one = sums.binom_grid(ctx, a, b)
            assert one.shape == () and abs(one - ref[a, b]) < 1e-14


@pytest.mark.parametrize("pn", [(13, 1), (3, 2), (2, 4)], ids=["13", "9", "16"])
def test_jacobi_direct_rows_match_scalar(pn):
    ctx = field(*pn)
    L = ctx.q - 1
    rows = sums.jacobi_direct_rows(ctx, np.arange(L))
    for a in range(L):
        for b in range(L):
            assert abs(rows[a, b] - sums.jacobi_direct(ctx, a, b)) < 1e-12
            assert abs(rows[a, b] - jacobi_oracle(ctx, a, b)) < 1e-12


def test_grids_bounded_memory_at_size_cap():
    # the row chunks hold each grid's temporaries to a fixed budget: lines at
    # q = 65521 and a full 16.7M-case grid at q = 4093, in a fresh process
    code = """
import resource
from charsum import make_field, sums
big, mid = make_field(65521), make_field(4093)
sums.gauss_table(big)
sums.gauss_table(mid)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
reports = [
    sums.verify_identity(big, "gauss-shift", m=12345),
    sums.verify_identity(big, "binom-translate", a=777),
    sums.verify_identity(big, "gauss-reflection"),
    sums.verify_identity(mid, "binom-absorb"),
]
reports += [sums.davenport_hasse(big, d, t=t) for d in (3, 4) for t in (1, -1)]
assert all(r.match for r in reports), [(r.name, r.disc) for r in reports]
assert reports[3].cases == 4092 ** 2
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


@pytest.mark.parametrize(
    "fn,bad,good",
    [
        (sums.gauss_sum, (1.5,), (np.uint8(1),)),
        (sums.jacobi_sum, (1.0, 2), (np.uint8(1), np.int64(2))),
        (sums.jacobi_multi, ([1.0, 2, 3],), ([np.uint8(1), 2, np.int32(3)],)),
        (sums.greene_binom, (True, 2), (np.uint8(1), np.uint8(2))),
        (sums.greene_binom, (1, False), (1, np.uint16(0))),
        (hyperf.hf_direct, ([True, 5], [6], 3), ([np.uint8(1), 5], [np.int64(6)], 3)),
        (hyperf.hf_direct, ([1.0, 5], [6], 3), ([1, 5], [6], np.uint8(3))),
    ],
    ids=["gauss_sum", "jacobi_sum", "jacobi_multi", "greene_binom-top", "greene_binom-bottom",
         "hf_direct-bool", "hf_direct-float"],
)
def test_sum_entry_points_take_the_integer_rule(f13, fn, bad, good):
    # a float or bool exponent raises ValueError; numpy integers, unsigned
    # ones too, give the value of the same Python ints
    with pytest.raises(ValueError, match="exponent must be an integer"):
        fn(f13, *bad)
    ints = [[int(v) for v in a] if isinstance(a, list) else int(a) for a in good]
    assert fn(f13, *good) == fn(f13, *ints)
