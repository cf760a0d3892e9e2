"""Gauss sums, Jacobi sums, Greene binomials, and the identity suites.

Oracles here recompute everything from the definitions: Gauss sums by
literal summation over field elements, Jacobi sums by the two-variable sum,
multi-sums by full tuple enumeration.
"""

import math

import numpy as np
import pytest

from charsum import chars, sums

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
        direct = np.sum(chars.mul_char_vec(ctx, int(m), xs) * theta)
        assert abs(G[m] - direct) < 1e-9 * ctx.q


@pytest.mark.parametrize("pn", [(13, 1), (3, 2), (3, 3)], ids=["13", "3^2", "3^3"])
def test_convolve_add_matches_double_loop(pn):
    ctx = field(*pn)
    rng = np.random.default_rng(5)
    f, g = rng.standard_normal((2, ctx.q)) + 1j * rng.standard_normal((2, ctx.q))
    ref = np.zeros(ctx.q, dtype=np.complex128)
    for u in ctx.elements():
        for v in ctx.elements():
            ref[ctx.add(u, v)] += f[u] * g[v]
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


def test_binom_vec_fixed_top(f13):
    for a in (0, 3, 6):
        row = sums.binom_vec_fixed_top(f13, a)
        for k in range(12):
            assert abs(row[k] - sums.greene_binom(f13, a, k)) < 1e-12


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


def test_identity_unknown_name(f13):
    with pytest.raises(KeyError):
        sums.verify_identity(f13, "no-such-identity")


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
    with pytest.raises(ValueError):
        sums.davenport_hasse(f13, 5)
