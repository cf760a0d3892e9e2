"""Gaussian hypergeometric series over F_q.

The series sums q/(q-1) * binom(A_0*chi, chi) * prod_i binom(A_i*chi, B_i*chi)
* chi(x) over all q-1 characters chi.  Each factor, swept over chi = T^k, is
one row of binomial coefficients binom(T^(a+k), T^(b+k)), built vectorized
from the Gauss table and multiplied into the row product P.  At x = g^j the
sum is q/(q-1) * sum_k P[k] exp(2*pi*i*k*j/(q-1)), so the series at every x
at once is q times the inverse DFT of P: one FFT per parameter tuple, cached
on the context, after which an evaluation is a table lookup.  The rows are
not kept.
"""

from __future__ import annotations

import numpy as np

from . import chars, sums
from .field import FieldCtx


def _shifted_row(ctx: FieldCtx, a: int, b: int) -> np.ndarray:
    """binom(T^(a+k), T^(b+k)) for k in [0, q-2], from the Gauss table."""
    k = np.arange(ctx.q - 1)
    return sums.binom_grid(ctx, a + k, b + k)


def binom_row_direct(ctx: FieldCtx, a: int, b: int) -> np.ndarray:
    """The same row entry by entry through the defining Jacobi sum."""
    L = ctx.q - 1
    sign_base = ctx.minus_one()
    out = np.empty(L, dtype=np.complex128)
    for k in range(L):
        out[k] = chars.mul_char(ctx, b + k, sign_base) / ctx.q * sums.jacobi_direct(
            ctx, a + k, -(b + k)
        )
    return out


def _check_params(upper, lower):
    if len(upper) != len(lower) + 1:
        raise ValueError(
            f"need len(upper) == len(lower) + 1, got {len(upper)}/{len(lower)}"
        )


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


def hf_table(ctx: FieldCtx, upper, lower) -> np.ndarray:
    """The series at x = g^j for every j in [0, q-2], cached per parameter tuple.

    Exponents are taken mod q-1, so equal characters share one table.  The
    table is read-only.
    """
    L = ctx.q - 1
    # list comprehensions: about twice as fast as generators here, and every
    # cached series read goes through this normalisation
    upper = tuple([int(m) % L for m in upper])
    lower = tuple([int(m) % L for m in lower])
    _check_params(upper, lower)
    return ctx.cached(("hf", upper, lower), _series_table, ctx, upper, lower)


def hf_eval(ctx: FieldCtx, upper, lower, x: int) -> complex:
    """Evaluate the series with parameter exponent lists `upper` and `lower`.

    `upper` must have exactly one more entry than `lower`.  With x = 0 the
    value is 0, since chi(0) = 0 for every character.  Reads hf_table at
    dlog(x), and also takes an int array of elements x, giving a complex
    array.
    """
    vals = hf_table(ctx, upper, lower)[ctx.dlog[x]]
    if isinstance(x, np.ndarray):
        return np.where(x == 0, 0j, vals)
    return 0j if x == 0 else complex(vals)


def hf_direct(ctx: FieldCtx, upper, lower, x: int) -> complex:
    """The series at one element x, with every binomial from the defining
    Jacobi summation and the terms summed one by one: no cache and no FFT
    (slow; the reference route of hf_eval's tests)."""
    _check_params(upper, lower)
    if x == 0:
        return 0j
    L = ctx.q - 1
    acc = _row_product(ctx, upper, lower, binom_row_direct)
    ks = np.arange(L, dtype=np.int64)
    chi_x = chars.unit_roots(ctx)[(ks * ctx.dlog_of(x)) % L]
    return ctx.q / L * complex(np.dot(acc, chi_x))
