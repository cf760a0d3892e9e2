"""Gauss sums, Jacobi sums, Greene binomial coefficients, and identity suites.

The whole Gauss table G[m] = sum_{x != 0} T^m(x) * theta(x) is built once per
field context by one inverse FFT and cached; afterwards every Gauss sum is a
lookup, and Jacobi sums / binomials take the Gauss-quotient fast path
whenever all involved characters are nontrivial, falling back to the
defining summation otherwise.  The defining multi-sums are additive
convolutions, computed by FFT over the group (Z/p)^n.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

from . import chars
from .field import FieldCtx
from .report import VerifyReport


def gauss_table(ctx: FieldCtx) -> np.ndarray:
    """All Gauss sums G[m], m in [0, q-2], cached on the context.

    Summed over x = g^k, G[m] = sum_k theta(g^k) exp(2*pi*i*m*k/(q-1)) is one
    length-(q-1) inverse DFT, so the table costs O(q log q) for any q
    (numpy's FFT handles large prime factors of q-1 with Bluestein's
    algorithm).
    """
    tab = ctx._cache.get("gauss")
    if tab is None:
        tab = np.fft.ifft(chars.theta_by_exp(ctx)) * (ctx.q - 1)
        tab.setflags(write=False)
        ctx._cache["gauss"] = tab
    return tab


def gauss_sum(ctx: FieldCtx, m: int) -> complex:
    """G(T^m) from the cached table; index taken mod q-1."""
    return complex(gauss_table(ctx)[m % (ctx.q - 1)])


def _unit_pair_logs(ctx: FieldCtx):
    """dlogs of (x, 1-x) for x not in {0, 1}, cached; drives direct Jacobi sums."""
    pair = ctx._cache.get("jacobi_logs")
    if pair is None:
        xs = np.array([x for x in ctx.units() if x != 1], dtype=np.int64)
        one_minus = ctx.add_vec(np.ones_like(xs), ctx.neg_vec(xs))
        pair = (ctx.dlog[xs], ctx.dlog[one_minus])
        ctx._cache["jacobi_logs"] = pair
    return pair


def jacobi_direct(ctx: FieldCtx, a: int, b: int) -> complex:
    """Defining sum J(T^a, T^b) = sum_x T^a(x) T^b(1-x), zero terms dropped."""
    L = ctx.q - 1
    ka, kb = _unit_pair_logs(ctx)
    return complex(np.sum(chars.unit_roots(ctx)[(a * ka + b * kb) % L]))


def jacobi_sum(ctx: FieldCtx, a: int, b: int) -> complex:
    """J(T^a, T^b), via the Gauss quotient when all of T^a, T^b, T^(a+b) are
    nontrivial, by direct summation otherwise."""
    L = ctx.q - 1
    a %= L
    b %= L
    if a and b and (a + b) % L:
        G = gauss_table(ctx)
        return complex(G[a] * G[b] / G[(a + b) % L])
    return jacobi_direct(ctx, a, b)


def _convolve_add(ctx: FieldCtx, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Additive convolution over F_q: out[s] = sum_{u+v=s} f[u] g[v].

    Element indices are base-p digit vectors and addition is digit-wise mod
    p, so reshaping to (p,)*n lays F_q out as the group (Z/p)^n and the
    convolution is a cyclic one along every axis (a plain cyclic
    convolution for n = 1).
    """
    shape = (ctx.p,) * ctx.n
    out = np.fft.ifftn(np.fft.fftn(f.reshape(shape)) * np.fft.fftn(g.reshape(shape)))
    return out.reshape(ctx.q)


def jacobi_multi(ctx: FieldCtx, exps) -> complex:
    """Multi-argument Jacobi sum over x_1 + ... + x_n = 1.

    Gauss-quotient path when every T^(k_i) and T^(sum k_i) is nontrivial;
    otherwise the defining multi-sum via (n-1)-fold additive convolution.
    """
    L = ctx.q - 1
    exps = [e % L for e in exps]
    if not exps:
        raise ValueError("need at least one character exponent")
    if len(exps) == 1:
        # single-variable degenerate case: sum over x_1 = 1
        return 1 + 0j
    if all(exps) and sum(exps) % L:
        G = gauss_table(ctx)
        num = np.prod([G[e] for e in exps])
        return complex(num / G[sum(exps) % L])
    xs = np.arange(ctx.q)
    acc = chars.mul_char_vec(ctx, exps[0], xs)
    for e in exps[1:]:
        acc = _convolve_add(ctx, acc, chars.mul_char_vec(ctx, e, xs))
    return complex(acc[1])


def greene_binom(ctx: FieldCtx, a: int, b: int) -> complex:
    """Binomial coefficient (T^a over T^b) = T^b(-1)/q * J(T^a, T^-b)."""
    sign = chars.mul_char(ctx, b, ctx.minus_one())
    return sign / ctx.q * jacobi_sum(ctx, a, -b)


def binom_vec_fixed_top(ctx: FieldCtx, a: int) -> np.ndarray:
    """Vector of binom(T^a, T^k) over all k in [0, q-2]."""
    L = ctx.q - 1
    a %= L
    G = gauss_table(ctx)
    unit = chars.unit_roots(ctx)
    ks = np.arange(L, dtype=np.int64)
    h = ctx.dlog_of(ctx.minus_one())  # T^k(-1) = unit[k*h]
    sign = unit[(ks * h) % L]
    if a == 0:
        out = -sign / ctx.q
        out[0] = (ctx.q - 2) / ctx.q
        return out
    out = sign / ctx.q * G[a] * G[(-ks) % L] / G[(a - ks) % L]
    out[0] = -1 / ctx.q  # binom(A, eps)
    out[a] = -1 / ctx.q  # binom(A, A)
    return out


# ---------------------------------------------------------------------------
# Identity verification suites
# ---------------------------------------------------------------------------

def _tol_single(ctx: FieldCtx) -> float:
    return ctx.tol * ctx.q


def _tol_double(ctx: FieldCtx) -> float:
    return ctx.tol * ctx.q * ctx.q


class _Worst:
    """Running worst-case discrepancy tracker."""

    def __init__(self):
        self.disc = 0.0
        self.case = ()
        self.lhs = 0j
        self.rhs = 0j
        self.cases = 0
        self.skipped = 0

    def update(self, disc: float, case: tuple, lhs: complex, rhs: complex):
        self.cases += 1
        if disc > self.disc:
            self.disc = disc
            self.case = case
            self.lhs = complex(lhs)
            self.rhs = complex(rhs)

    def update_all(self, discs, lhs, rhs, case_of):
        """update() over every index of the arrays, in order; case_of(i)
        names case i."""
        i = int(np.argmax(discs))
        self.cases += len(discs) - 1
        self.update(float(discs[i]), case_of(i), lhs[i], rhs[i])

    def skip(self):
        self.skipped += 1


def _check_gauss_reflection(ctx: FieldCtx, w: _Worst, m=None, **_):
    L = ctx.q - 1
    G = gauss_table(ctx)
    ms = range(1, L) if m is None else [m % L]
    for mm in ms:
        if mm % L == 0:
            w.skip()
            continue
        lhs = G[mm] * G[(-mm) % L]
        rhs = ctx.q * chars.mul_char(ctx, mm, ctx.minus_one())
        w.update(abs(lhs - rhs), (mm,), lhs, rhs)


def _check_gauss_shift(ctx: FieldCtx, w: _Worst, m=None, n=None, **_):
    L = ctx.q - 1
    G = gauss_table(ctx)
    ms = range(L) if m is None else [m % L]
    ns = range(L) if n is None else [n % L]
    for mm in ms:
        for nn in ns:
            if (mm - nn) % L == 0:
                w.skip()
                continue
            lhs = G[mm] * G[(-nn) % L]
            shift = G[(mm - nn) % L]
            rhs1 = ctx.q * greene_binom(ctx, mm, nn) * shift * chars.mul_char(
                ctx, nn, ctx.minus_one()
            )
            rhs2 = jacobi_sum(ctx, mm, -nn) * shift
            disc = max(abs(lhs - rhs1), abs(lhs - rhs2))
            w.update(disc, (mm, nn), lhs, rhs1)


def _check_jacobi_gauss(ctx: FieldCtx, w: _Worst, seed=0, triples=24, **_):
    L = ctx.q - 1
    G = gauss_table(ctx)
    for a in range(1, L):
        for b in range(1, L):
            if (a + b) % L == 0:
                w.skip()
                continue
            lhs = jacobi_direct(ctx, a, b)
            rhs = G[a] * G[b] / G[(a + b) % L]
            w.update(abs(lhs - rhs), (a, b), lhs, rhs)
    rng = random.Random(seed)
    seen = 0
    while seen < triples:
        ks = [rng.randrange(1, L) for _ in range(3)]
        if sum(ks) % L == 0:
            continue
        lhs = jacobi_multi(ctx, ks)  # quotient path
        # defining multi-sum, forced through the convolution route
        f1, f2, f3 = (chars.mul_char_vec(ctx, e, np.arange(ctx.q)) for e in ks)
        rhs = complex(_convolve_add(ctx, _convolve_add(ctx, f1, f2), f3)[1])
        w.update(abs(lhs - rhs), tuple(ks), lhs, rhs)
        seen += 1


def _check_theta_expansion(ctx: FieldCtx, w: _Worst, **_):
    L = ctx.q - 1
    G = gauss_table(ctx)
    unit = chars.unit_roots(ctx)
    g_neg = G[(-np.arange(L)) % L]
    for alpha in ctx.units():
        k = ctx.dlog_of(alpha)
        rhs = np.sum(g_neg * unit[(np.arange(L) * k) % L]) / L
        lhs = chars.add_char(ctx, alpha)
        w.update(abs(lhs - rhs), (alpha,), lhs, rhs)


def _check_orthogonality(ctx: FieldCtx, w: _Worst, **_):
    L = ctx.q - 1
    unit = chars.unit_roots(ctx)
    ks = np.arange(L, dtype=np.int64)
    for m in range(L):
        lhs = np.sum(unit[(m * ks) % L])
        rhs = L if m == 0 else 0.0
        w.update(abs(lhs - rhs), ("char-sum", m), lhs, rhs)
    for x in ctx.units():
        k = ctx.dlog_of(x)
        lhs = np.sum(unit[(ks * k) % L])
        rhs = L if x == 1 else 0.0
        w.update(abs(lhs - rhs), ("point-sum", x), lhs, rhs)


def binom_translate_rhs(ctx: FieldCtx, a: int) -> np.ndarray:
    """delta(x) + q/(q-1) * sum_k binom(T^a, T^k) T^k(x) for every x.

    The 1F0 binomial theorem equates it with T^a(1 + x).  At x = g^j the
    sum is an inverse DFT of the binomial row, so all x cost one FFT.
    """
    out = np.ones(ctx.q, dtype=np.complex128)  # x = 0: the delta term
    out[1:] = (ctx.q * np.fft.ifft(binom_vec_fixed_top(ctx, a)))[ctx.dlog[1:]]
    return out


def _check_binom_translate(ctx: FieldCtx, w: _Worst, a=None, **_):
    L = ctx.q - 1
    one_plus_x = ctx.add_vec(np.arange(ctx.q, dtype=np.int64), 1)
    tops = range(L) if a is None else [a % L]
    for aa in tops:
        lhs = chars.mul_char_vec(ctx, aa, one_plus_x)
        rhs = binom_translate_rhs(ctx, aa)
        w.update_all(np.abs(lhs - rhs), lhs, rhs, lambda x: (aa, x))


def _check_binom_absorb(ctx: FieldCtx, w: _Worst, **_):
    L = ctx.q - 1
    for a in range(L):
        for b in range(L):
            lhs = greene_binom(ctx, a, b)
            rhs = greene_binom(ctx, a, a - b)
            w.update(abs(lhs - rhs), (a, b), lhs, rhs)


def _check_binom_complement(ctx: FieldCtx, w: _Worst, **_):
    L = ctx.q - 1
    for a in range(L):
        for b in range(L):
            lhs = greene_binom(ctx, a, b)
            rhs = greene_binom(ctx, b - a, b) * chars.mul_char(ctx, b, ctx.minus_one())
            w.update(abs(lhs - rhs), (a, b), lhs, rhs)


def _check_binom_transpose(ctx: FieldCtx, w: _Worst, **_):
    L = ctx.q - 1
    for a in range(L):
        for b in range(L):
            lhs = greene_binom(ctx, a, b)
            rhs = greene_binom(ctx, -b, -a) * chars.mul_char(
                ctx, a + b, ctx.minus_one()
            )
            w.update(abs(lhs - rhs), (a, b), lhs, rhs)


def quadratic_gauss_value(ctx: FieldCtx) -> complex:
    """Closed-form value of G at the quadratic character.

    For prime q this is sqrt(q) when q = 1 mod 4 and i*sqrt(q) when
    q = 3 mod 4.  For q = p^n the quadratic character is the norm lift of
    the prime-field one, so the value carries the lifted sign
    -(-G_p)^n with G_p the prime-field value.
    """
    if ctx.q % 2 == 0:
        raise ValueError("quadratic character needs odd q")
    gp = math.sqrt(ctx.p) if ctx.p % 4 == 1 else 1j * math.sqrt(ctx.p)
    return -((-gp) ** ctx.n)


def _check_gauss_special(ctx: FieldCtx, w: _Worst, **_):
    G = gauss_table(ctx)
    w.update(abs(G[0] - (-1)), ("trivial",), complex(G[0]), -1 + 0j)
    if ctx.q % 2:
        expect = quadratic_gauss_value(ctx)
        got = complex(G[(ctx.q - 1) // 2])
        w.update(abs(got - expect), ("quadratic",), got, expect)


def _check_theta_delta(ctx: FieldCtx, w: _Worst, **_):
    theta = chars.theta_table(ctx)
    zs = np.arange(ctx.q, dtype=np.int64)
    for wdiff in ctx.elements():
        lhs = np.sum(theta[ctx.mul_vec(zs, wdiff)])
        rhs = ctx.q if wdiff == 0 else 0.0
        w.update(abs(lhs - rhs), (wdiff,), lhs, rhs)


_IDENTITIES = {
    "gauss-reflection": (_check_gauss_reflection, _tol_single),
    "gauss-shift": (_check_gauss_shift, _tol_single),
    "jacobi-gauss": (_check_jacobi_gauss, _tol_single),
    "theta-expansion": (_check_theta_expansion, _tol_single),
    "orthogonality": (_check_orthogonality, _tol_single),
    "binom-translate": (_check_binom_translate, _tol_single),
    "binom-absorb": (_check_binom_absorb, _tol_single),
    "binom-complement": (_check_binom_complement, _tol_single),
    "binom-transpose": (_check_binom_transpose, _tol_single),
    "gauss-special": (_check_gauss_special, _tol_single),
    "theta-delta": (_check_theta_delta, _tol_single),
}

IDENTITY_NAMES = tuple(_IDENTITIES)


def verify_identity(ctx: FieldCtx, name: str, **params) -> VerifyReport:
    """Evaluate both sides of a named identity over its parameter grid.

    Free parameters may be pinned through keyword arguments (e.g. m=3);
    grid points whose preconditions fail are counted as skipped.
    """
    if name not in _IDENTITIES:
        raise KeyError(f"unknown identity {name!r}; known: {', '.join(_IDENTITIES)}")
    checker, tol_of = _IDENTITIES[name]
    tol = tol_of(ctx)
    w = _Worst()
    t0 = time.perf_counter()
    checker(ctx, w, **params)
    ms = (time.perf_counter() - t0) * 1e3
    return VerifyReport(
        name=name,
        q=ctx.q,
        formula=w.lhs,
        oracle=w.rhs.real,
        match=w.disc < tol,
        disc=w.disc,
        tol=tol,
        cases=w.cases,
        skipped=w.skipped,
        worst_case=w.case,
        ms=ms,
    )


def davenport_hasse(ctx: FieldCtx, d: int, l: int | None = None, t: int = 1) -> VerifyReport:
    """Check the d-section Gauss-sum product formula.

    For odd d:  prod_j G_{l+t*j*(q-1)/d}
                = q^((d-1)/2) T^((d-1)(d+1)(q-1)/(8d))(-1) T^(-l)(d^d) G_{ld}
    For even d: same product
                = q^((d-2)/2) G_{(q-1)/2} T^((d-2)(q-1)/8)(-1) T^(-l)(d^d) G_{ld}
    Over all l in [0, q-2] when l is None.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if (ctx.q - 1) % d:
        raise ValueError(f"q = {ctx.q} is not 1 mod d = {d}")
    if t not in (1, -1):
        raise ValueError("t must be 1 or -1")
    L = ctx.q - 1
    G = gauss_table(ctx)
    step = L // d
    d_elem = ctx.embed(d)
    d_pow = ctx.pow(d_elem, d)
    if d % 2:
        sign_exp = (d - 1) * (d + 1) * L // (8 * d)
        scale = ctx.q ** ((d - 1) // 2) * chars.mul_char(ctx, sign_exp, ctx.minus_one())
    else:
        sign_exp = (d - 2) * L // 8
        scale = (
            ctx.q ** ((d - 2) // 2)
            * G[L // 2]
            * chars.mul_char(ctx, sign_exp, ctx.minus_one())
        )
    w = _Worst()
    t0 = time.perf_counter()
    ls = range(L) if l is None else [l % L]
    for ll in ls:
        lhs = complex(np.prod(G[(ll + t * step * np.arange(d)) % L]))
        rhs = scale * chars.mul_char(ctx, -ll, d_pow) * G[(ll * d) % L]
        w.update(abs(lhs - rhs), (ll, t), lhs, rhs)
    ms = (time.perf_counter() - t0) * 1e3
    tol = ctx.tol * ctx.q ** (d / 2)  # product magnitude grows like q^(d/2)
    return VerifyReport(
        name="davenport-hasse",
        q=ctx.q,
        d=d,
        formula=w.lhs,
        oracle=w.rhs.real,
        match=w.disc < tol,
        disc=w.disc,
        tol=tol,
        cases=w.cases,
        skipped=w.skipped,
        worst_case=w.case,
        ms=ms,
    )
