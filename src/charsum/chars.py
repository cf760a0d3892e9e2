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

from .field import FieldCtx


def unit_roots(ctx: FieldCtx) -> np.ndarray:
    """Table of exp(2*pi*i*k/(q-1)) for k in [0, q-2], cached on ctx."""
    tab = ctx._cache.get("unit_roots")
    if tab is None:
        L = ctx.q - 1
        tab = np.exp(2j * np.pi * np.arange(L) / L)
        ctx._cache["unit_roots"] = tab
    return tab


def theta_table(ctx: FieldCtx) -> np.ndarray:
    """Additive character values theta(x) indexed by element, cached."""
    tab = ctx._cache.get("theta")
    if tab is None:
        zeta = np.exp(2j * np.pi * np.arange(ctx.p) / ctx.p)
        tab = zeta[ctx.trace_tab]
        ctx._cache["theta"] = tab
    return tab


def theta_by_exp(ctx: FieldCtx) -> np.ndarray:
    """theta(g^k) for k in [0, q-2], the summand order used by Gauss sums."""
    tab = ctx._cache.get("theta_by_exp")
    if tab is None:
        tab = theta_table(ctx)[ctx.exp]
        ctx._cache["theta_by_exp"] = tab
    return tab


def mul_char(ctx: FieldCtx, m: int, x: int) -> complex:
    """T^m(x); zero at x = 0 for every m."""
    if x == 0:
        return 0j
    L = ctx.q - 1
    return complex(unit_roots(ctx)[(m * int(ctx.dlog[x])) % L])


def mul_char_vec(ctx: FieldCtx, m: int, xs: np.ndarray) -> np.ndarray:
    """Vectorized T^m over an array of element indices."""
    xs = np.asarray(xs, dtype=np.int64)
    L = ctx.q - 1
    out = np.zeros(xs.shape, dtype=np.complex128)
    nz = xs != 0
    out[nz] = unit_roots(ctx)[(m * ctx.dlog[xs[nz]]) % L]
    return out


def add_char(ctx: FieldCtx, x: int) -> complex:
    """theta(x) = zeta_p^trace(x)."""
    return complex(theta_table(ctx)[x])


def legendre(ctx: FieldCtx, x: int) -> int:
    """Quadratic character as an integer in {-1, 0, 1}; q must be odd."""
    if ctx.q % 2 == 0:
        raise ValueError("Legendre symbol needs odd q")
    if x == 0:
        return 0
    return -1 if int(ctx.dlog[x]) % 2 else 1


def delta_elem(x: int) -> int:
    """Indicator of the zero element."""
    return 1 if x == 0 else 0


def delta_char(ctx: FieldCtx, m: int) -> int:
    """Indicator of the trivial character T^m = eps."""
    return 1 if m % (ctx.q - 1) == 0 else 0


def phi_exp(ctx: FieldCtx) -> int:
    """Index of the quadratic character (q odd)."""
    if ctx.q % 2 == 0:
        raise ValueError("quadratic character needs odd q")
    return (ctx.q - 1) // 2


def char_order(ctx: FieldCtx, m: int) -> int:
    L = ctx.q - 1
    return L // math.gcd(L, m % L) if m % L else 1


def char_at_minus_one(ctx: FieldCtx, m):
    """T^m(-1) over an exponent array (or one exponent); a sign for q odd."""
    return unit_roots(ctx)[(np.asarray(m) * ctx.dlog_of(ctx.minus_one())) % (ctx.q - 1)]
