"""Multiplicative characters T^m, the canonical additive character, and delta helpers.

A character index m selects T^m, where T is the generator character tied to
the field's canonical generator g: T^m(g^k) = exp(2*pi*i*m*k/(q-1)).  Every
character is extended by T^m(0) = 0, including the trivial one, so sums over
the whole field silently drop the zero element.  Values are primitive roots
of unity looked up from a table built with one trigonometric call per entry,
never by repeated multiplication.
"""

from __future__ import annotations

import math

import numpy as np

from .field import FieldCtx, _as_int, _gather


def _roots(n: int) -> np.ndarray:
    """exp(2*pi*i*k/n) for k in [0, n-1]."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def _theta(ctx: FieldCtx) -> np.ndarray:
    return _roots(ctx.p)[ctx.trace_tab]


def unit_roots(ctx: FieldCtx) -> np.ndarray:
    """Table of exp(2*pi*i*k/(q-1)) for k in [0, q-2], cached on ctx."""
    return ctx.cached("unit_roots", _roots, ctx.q - 1)


def theta_table(ctx: FieldCtx) -> np.ndarray:
    """Additive character values theta(x) indexed by element, cached."""
    return ctx.cached("theta", _theta, ctx)


def theta_by_exp(ctx: FieldCtx) -> np.ndarray:
    """theta(g^k) for k in [0, q-2], the summand order used by Gauss sums.

    A gather from theta_table, not cached: only the Gauss table reads it."""
    return theta_table(ctx)[ctx.exp]


def mul_char(ctx: FieldCtx, m: int, x):
    """T^m(x), zero at x = 0 for every m: a complex for an element (ValueError
    unless an integer in [0, q)), a complex128 array for an int index array."""
    vals = unit_roots(ctx)[(_as_int("exponent", m) * _gather(ctx.dlog, x)) % (ctx.q - 1)]
    if isinstance(x, np.ndarray):
        return np.where(x == 0, 0j, vals)
    return 0j if x == 0 else complex(vals)


def add_char(ctx: FieldCtx, x: int) -> complex:
    """theta(x) = zeta_p^trace(x)."""
    return complex(_gather(theta_table(ctx), x))


def legendre(ctx: FieldCtx, x: int) -> int:
    """Quadratic character as an integer in {-1, 0, 1}; q must be odd."""
    if ctx.q % 2 == 0:
        raise ValueError("Legendre symbol needs odd q")
    k = _gather(ctx.dlog, x)  # checks x, 0 included
    return 0 if x == 0 else -1 if k % 2 else 1


def delta_elem(x: int) -> int:
    """Indicator of the zero element."""
    return 1 if x == 0 else 0


def delta_char(ctx: FieldCtx, m: int) -> int:
    """Indicator of the trivial character T^m = eps."""
    return 1 if _as_int("exponent", m) % (ctx.q - 1) == 0 else 0


def char_order(ctx: FieldCtx, m: int) -> int:
    return (ctx.q - 1) // math.gcd(ctx.q - 1, _as_int("exponent", m))  # gcd(q-1, 0) = q-1


def char_at_minus_one(ctx: FieldCtx, m):
    """T^m(-1) over an exponent array (or one exponent) as a real sign:
    (-1)^m for odd q, where -1 = g^((q-1)/2), and 1 for even q, where -1 = 1."""
    return np.where(np.asarray(m) & (ctx.q % 2), -1.0, 1.0)
