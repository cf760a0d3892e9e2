"""Naive enumeration oracles over prime fields: numba loops with numpy fallbacks.

These are the brute-force point counts that the closed forms are checked
against.  Set CHARSUM_PURE_NUMPY=1 to force the numpy path (the numba import
is then skipped entirely).  Both paths are exercised by the test suite and
timed against each other in benchmarks/bench_kernels.py.
"""

from __future__ import annotations

import os

import numpy as np

_FORCE_NUMPY = os.environ.get("CHARSUM_PURE_NUMPY", "") not in ("", "0")

if not _FORCE_NUMPY:
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        HAVE_NUMBA = False
else:
    HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# Naive affine point count over a prime field: #{(x, y): y^e = x^d + a*x + b}
# ---------------------------------------------------------------------------

def count_naive_numpy(p: int, e: int, d: int, a: int, b: int) -> int:
    xs = np.arange(p, dtype=np.int64)
    rhs = (pow_mod_vec(xs, d, p) + a * xs + b) % p
    lhs = pow_mod_vec(xs, e, p)  # all y^e values
    return int(np.sum(lhs[None, :] == rhs[:, None]))


def pow_mod_vec(xs: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.ones_like(xs)
    base = xs % p
    while e > 0:
        if e & 1:
            out = (out * base) % p
        base = (base * base) % p
        e >>= 1
    return out


if HAVE_NUMBA:

    @njit(cache=True)
    def _count_naive_jit(p, e, d, a, b):  # pragma: no cover - jitted
        total = 0
        for x in range(p):
            v = 1
            for _ in range(d):
                v = (v * x) % p
            v = (v + a * x + b) % p
            for y in range(p):
                w = 1
                for _ in range(e):
                    w = (w * y) % p
                if w == v:
                    total += 1
        return total

    def count_naive(p: int, e: int, d: int, a: int, b: int) -> int:
        return int(_count_naive_jit(p, e, d, a, b))
else:
    count_naive = count_naive_numpy


# ---------------------------------------------------------------------------
# Naive twisted-Edwards count over a prime field:
# #{(x, y): alpha*x^2 + y^2 = 1 + beta*x^2*y^2}
# ---------------------------------------------------------------------------

def edwards_naive_numpy(p: int, alpha: int, beta: int) -> int:
    xs = np.arange(p, dtype=np.int64)
    x2 = (xs * xs) % p
    y2 = x2  # same table
    lhs = (alpha * x2[:, None] + y2[None, :]) % p
    rhs = (1 + beta * x2[:, None] * y2[None, :]) % p
    return int(np.sum(lhs == rhs))


if HAVE_NUMBA:

    @njit(cache=True)
    def _edwards_naive_jit(p, alpha, beta):  # pragma: no cover - jitted
        total = 0
        for x in range(p):
            x2 = (x * x) % p
            for y in range(p):
                y2 = (y * y) % p
                if (alpha * x2 + y2) % p == (1 + beta * x2 * y2) % p:
                    total += 1
        return total

    def edwards_naive(p: int, alpha: int, beta: int) -> int:
        return int(_edwards_naive_jit(p, alpha, beta))
else:
    edwards_naive = edwards_naive_numpy
