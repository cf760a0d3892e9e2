"""Gaussian hypergeometric series over F_q.

The series sums q/(q-1) * binom(A_0*chi, chi) * prod_i binom(A_i*chi, B_i*chi)
* chi(x) over all q-1 characters chi.  Each factor, swept over chi = T^k, is
one row of binomial coefficients binom(T^(a+k), T^(b+k)), built vectorized
from the Gauss table and multiplied into the row product P.  At x = g^j the
sum is q/(q-1) * sum_k P[k] exp(2*pi*i*k*j/(q-1)), so the series at every x
at once is q times the inverse DFT of P: one FFT per parameter tuple, cached
on the context, after which an evaluation is a table lookup, keyed by the
checked exponent tuples of hf_params.  The rows are not kept.  The reference
route binom_row_direct builds a row from Jacobi sums, by one scatter and one
FFT.
"""

from __future__ import annotations

import numpy as np

from . import chars, sums
from .field import _INT_TYPES, FieldCtx, _as_int, _gather


def _shifted_row(ctx: FieldCtx, a: int, b: int) -> np.ndarray:
    """binom(T^(a+k), T^(b+k)) for k in [0, q-2], from the Gauss table."""
    k = np.arange(ctx.q - 1)
    return sums.binom_grid(ctx, a + k, b + k)


def binom_row_direct(ctx: FieldCtx, a: int, b: int) -> np.ndarray:
    """The same row from the defining Jacobi sums, no Gauss sum read: with
    ka = dlog(1 - g^m), m in [1, q-2], entry k is T^(b+k)(-1)/q * sum_m
    w^((a+k)*ka - (b+k)*m), and scattering w^(a*ka - b*m) into H at (ka - m)
    mod q-1 makes the sum (q-1) * ifft(H)[k], one FFT for the whole row."""
    L = ctx.q - 1
    ka, m = sums._one_minus_logs(ctx), np.arange(1, L)
    H = np.zeros(L, dtype=np.complex128)
    np.add.at(H, (ka - m) % L, chars.unit_roots(ctx)[(a * ka - b * m) % L])
    return chars.char_at_minus_one(ctx, b + np.arange(L)) / ctx.q * (L * np.fft.ifft(H))


def _row_product(ctx: FieldCtx, upper, lower, row) -> np.ndarray:
    """P[k] = binom(T^(A_0+k), T^k) * prod_i binom(T^(A_i+k), T^(B_i+k)).

    Multiplied up one row at a time: one broadcast over all the rows peaked
    at about three times the memory (302 against 92 MB at q = 1048573).
    """
    acc = row(ctx, upper[0], 0)
    for a_i, b_i in zip(upper[1:], lower):
        acc *= row(ctx, a_i, b_i)
    return acc


def _series_table(ctx: FieldCtx, upper, lower) -> np.ndarray:
    return ctx.q * np.fft.ifft(_row_product(ctx, upper, lower, _shifted_row))


class _Exponents(tuple):
    """An exponent tuple that hf_params checked and reduced mod q-1."""

    __slots__ = ()


def hf_params(ctx: FieldCtx, upper, lower) -> tuple[tuple, tuple]:
    """(upper, lower) as tuples of exponents reduced mod q-1; ValueError
    unless every exponent is an int or numpy integer (not a bool) and upper
    has one more entry than lower."""
    L = ctx.q - 1
    upper = _Exponents([_as_int("exponent", m) % L for m in upper])
    lower = _Exponents([_as_int("exponent", m) % L for m in lower])
    if len(upper) != len(lower) + 1:
        raise ValueError(f"need len(upper) == len(lower) + 1, got {len(upper)}/{len(lower)}")
    return upper, lower


def hf_table(ctx: FieldCtx, upper, lower) -> np.ndarray:
    """The series at x = g^j for every j in [0, q-2], cached per parameter tuple.

    Exponents are taken mod q-1, so equal characters share one table.  The
    tuples hf_params returned for this field (a closed-form plan holds them)
    key the cache as they are; any other exponents go through hf_params
    first, so a bool or a float is refused on every call, not only on the
    first.  The table is read-only.
    """
    if not (type(upper) is _Exponents and type(lower) is _Exponents):
        upper, lower = hf_params(ctx, upper, lower)
    return ctx.cached(("hf", upper, lower), _series_table, ctx, upper, lower)


def hf_eval(ctx: FieldCtx, upper, lower, x: int) -> complex:
    """Evaluate the series with parameter exponent lists `upper` and `lower`.

    `upper` must have exactly one more entry than `lower`.  With x = 0 the
    value is 0, since chi(0) = 0 for every character.  Reads hf_table at
    dlog(x), and also takes an int array of elements x, giving a complex
    array.  An element that is not an integer (_INT_TYPES) in [0, q) raises
    ValueError; array entries are not checked.
    """
    table = hf_table(ctx, upper, lower)
    if isinstance(x, np.ndarray):
        return np.where(x == 0, 0j, table[ctx.dlog[x]])
    if type(x) in _INT_TYPES:  # inline, not field._gather: this read is on every plan's path
        if 0 < x < ctx.q:
            return table.item(ctx.dlog.item(x))
        if x == 0:
            return 0j
    raise ValueError(f"element {x} is not an integer in [0, q) for q = {ctx.q}")


def hf_direct(ctx: FieldCtx, upper, lower, x: int) -> complex:
    """The series at one element x, with every binomial from the defining
    Jacobi summation and the terms summed one by one: no cache and no FFT
    (slow; the reference route of hf_eval's tests)."""
    upper, lower = hf_params(ctx, upper, lower)
    lx = _gather(ctx.dlog, x)  # checks x, 0 included
    if x == 0:
        return 0j
    L = ctx.q - 1
    acc = _row_product(ctx, upper, lower, binom_row_direct)
    ks = np.arange(L, dtype=np.int64)
    chi_x = chars.unit_roots(ctx)[(ks * lx) % L]
    return ctx.q / L * complex(np.dot(acc, chi_x))
