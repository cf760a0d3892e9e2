"""Multiplicative/additive character values, Legendre symbol, delta helpers."""

import cmath

import numpy as np
import pytest
from hypothesis import given, strategies as st

from charsum import chars

from conftest import field

TOL = 1e-12


def test_trivial_character_is_one_on_units(f13):
    for x in f13.units():
        assert chars.mul_char(f13, 0, x) == 1


def test_char_at_zero_is_zero(f13):
    for m in range(12):
        assert chars.mul_char(f13, m, 0) == 0


def test_quadratic_char_example(f13):
    assert abs(chars.mul_char(f13, 6, 4) - 1) < TOL  # 4 = 2^2 is a square


@given(st.integers(0, 11), st.integers(1, 12), st.integers(1, 12))
def test_multiplicativity_f13(m, x, y):
    ctx = field(13)
    lhs = chars.mul_char(ctx, m, ctx.mul(x, y))
    rhs = chars.mul_char(ctx, m, x) * chars.mul_char(ctx, m, y)
    assert abs(lhs - rhs) < TOL


@given(st.integers(0, 25), st.integers(1, 26), st.integers(1, 26))
def test_multiplicativity_f27(m, x, y):
    ctx = field(3, 3)
    lhs = chars.mul_char(ctx, m, ctx.mul(x, y))
    rhs = chars.mul_char(ctx, m, x) * chars.mul_char(ctx, m, y)
    assert abs(lhs - rhs) < TOL


def test_conjugation(f17):
    for m in range(16):
        for x in f17.units():
            lhs = chars.mul_char(f17, -m, x)
            rhs = chars.mul_char(f17, m, x).conjugate()
            assert abs(lhs - rhs) < TOL


def test_additive_char_values(f13, f9):
    assert chars.add_char(f13, 0) == 1
    assert abs(chars.add_char(f13, 1) - cmath.exp(2j * cmath.pi / 13)) < TOL
    t = f9.from_coeffs((0, 1))
    assert abs(chars.add_char(f9, t) - 1) < TOL  # trace(t) = 0


def test_additive_char_is_additive(f27):
    for x in range(0, 27, 2):
        for y in range(27):
            lhs = chars.add_char(f27, f27.add(x, y))
            rhs = chars.add_char(f27, x) * chars.add_char(f27, y)
            assert abs(lhs - rhs) < TOL


def test_legendre_examples(f13):
    assert chars.legendre(f13, 0) == 0
    assert chars.legendre(f13, 4) == 1
    assert chars.legendre(f13, 2) == -1  # dlog(2) = 1 is odd


def test_legendre_matches_quadratic_char(f13, f25):
    for ctx in (f13, f25):
        phi = (ctx.q - 1) // 2
        for x in ctx.units():
            assert abs(chars.legendre(ctx, x) - chars.mul_char(ctx, phi, x)) < TOL


def test_legendre_even_q_rejected():
    ctx = field(2, 3)
    with pytest.raises(ValueError):
        chars.legendre(ctx, 1)


def test_deltas(f13):
    assert chars.delta_elem(0) == 1
    assert chars.delta_elem(5) == 0
    assert chars.delta_char(f13, 0) == 1
    assert chars.delta_char(f13, 12) == 1  # reduced mod q-1
    assert chars.delta_char(f13, 6) == 0


def test_orthogonality_over_units(f19):
    L = f19.q - 1
    for m in range(L):
        total = sum(chars.mul_char(f19, m, x) for x in f19.units())
        expect = L if m == 0 else 0
        assert abs(total - expect) < 1e-9 * f19.q
    for x in f19.units():
        total = sum(chars.mul_char(f19, m, x) for m in range(L))
        expect = L if x == 1 else 0
        assert abs(total - expect) < 1e-9 * f19.q


def test_additive_delta(f13):
    for w in f13.elements():
        total = sum(chars.add_char(f13, f13.mul(z, w)) for z in f13.elements())
        expect = f13.q if w == 0 else 0
        assert abs(total - expect) < 1e-9 * f13.q


def test_char_order(f13):
    assert chars.char_order(f13, 0) == 1
    assert chars.char_order(f13, 6) == 2
    assert chars.char_order(f13, 4) == 3
    assert chars.char_order(f13, 1) == 12


def test_unit_root_values_single_trig_call(f13):
    roots = chars.unit_roots(f13)
    ks = np.arange(12)
    np.testing.assert_allclose(roots, np.exp(2j * np.pi * ks / 12), atol=1e-15)


@pytest.mark.parametrize("pn", [(13, 1), (5, 2), (3, 3), (2, 4)], ids=["13", "25", "27", "16"])
def test_char_at_minus_one_is_real_sign(pn):
    ctx = field(*pn)
    L = ctx.q - 1
    ms = np.arange(-2 * L, 2 * L)
    got = chars.char_at_minus_one(ctx, ms)
    assert got.dtype == np.float64 and set(np.unique(got)) <= {-1.0, 1.0}
    want = np.array([chars.mul_char(ctx, int(m), ctx.minus_one()) for m in ms])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    if ctx.q % 2 == 0:  # -1 = 1
        assert np.all(got == 1.0)
    assert np.shape(chars.char_at_minus_one(ctx, 3)) == ()
    assert chars.char_at_minus_one(ctx, np.arange(6).reshape(2, 3)).shape == (2, 3)
