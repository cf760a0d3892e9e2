"""Affine point counts of y^e = x^d + a*x + b: enumeration and closed forms.

The closed-form counts hold for d >= 2 and q = 1 mod e*d*(d-1) and assemble
Gauss-sum coefficients with one hypergeometric factor per i in [1, e-1]:
a dF(d-1) series at argument alpha for even d, a (d-1)F(d-2) series at
-alpha for odd d, with alpha = (d/a) * (b*d/(a*(d-1)))^(d-1).  Everything
but the characters of b and alpha is fixed by (q, e, d), so it is cached as
one plan per family, a _make_plan record of terms coef * character *
series that the traces in apps share, summed by the one evaluator
_plan_value, one loop over its Python terms for one curve or an array of
them, paying only for the arithmetic that depends on the curve: one root per
term, one series read per series term.  CurveSpec keeps the dlogs of a and b
that its check computes, and both count routes read them.  Every count is an
exact integer; count_theorem rounds the real part and refuses loudly when
the imaginary part or the rounding residue indicates a transcription or
precision failure.

Two enumeration oracles check them: count_bruteforce looks up the e-th
power class of each x-value (O(q)), and count_naive compares all (x, y)
pairs in fixed-size blocks with polynomial arithmetic that reads none of the
field's tables (O(q^2) time, O(q * n) memory).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import chars, hyperf, sums
from .field import (_INT_TYPES, TOL, CongruenceError, FieldCtx, _check_elements,
                    require_congruence, zech_table)

ROUND_GUARD = 0.01
# Oracle cells (curves times q-1) that count_bruteforce holds at once for
# arrays of curves; a longer array is worked through in chunks of this size.
BLOCK_CELLS = 1 << 15
# Cells of the (x, y) comparison matrix that count_naive holds at once.
_NAIVE_BLOCK_CELLS = 1 << 20


class RoundingGuardError(ArithmeticError):
    """Assembled value is not close enough to an integer to round safely."""


def _unit_dlogs(ctx: FieldCtx, a, b, names: str = "a, b"):
    """(dlog a, dlog b) of nonzero elements a, b as field._check_elements
    takes them: int64 arrays for arrays, Python ints for ints."""
    if _check_elements(ctx, a, b, names, 1):
        return ctx.dlog[a], ctx.dlog[b]
    return ctx.dlog.item(a), ctx.dlog.item(b)


@dataclass(frozen=True)
class CurveSpec:
    """Curve y^e = x^d + a*x + b over a fixed field context, or a block of them.

    The check of a and b keeps their discrete logs as dlogs, which the oracle
    and the closed form read rather than look them up again."""

    ctx: FieldCtx
    e: int
    d: int
    a: int
    b: int
    dlogs: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (type(self.e) in _INT_TYPES and type(self.d) in _INT_TYPES):
            raise ValueError(f"e and d must be ints, got {self.e!r} and {self.d!r}")
        if self.e < 1:
            raise ValueError("need e >= 1")
        if self.d < 2:
            raise ValueError("need d >= 2")
        object.__setattr__(self, "dlogs", _unit_dlogs(self.ctx, self.a, self.b))

    @property
    def modulus_required(self) -> int:
        return self.e * self.d * (self.d - 1)


def _exact_div(num: int, den: int) -> int:
    if num % den:
        raise ArithmeticError(f"non-integral character exponent {num}/{den}")
    return num // den


def _round_guarded(ctx: FieldCtx, z: complex) -> int | np.ndarray:
    """z rounded to an integer once its imaginary part and rounding residue
    pass their guards.  A complex array gives an int64 array; the guards then
    apply element-wise and any failing entry refuses the whole call, the
    message giving the worst residues."""
    imag_tol = min(ROUND_GUARD, TOL * ctx.q * ctx.q)
    if isinstance(z, np.ndarray):
        r = np.round(z.real)
        im, re = np.abs(z.imag), np.abs(z.real - r)
        if not ((im < imag_tol) & (re < ROUND_GUARD)).all():
            raise RoundingGuardError(f"worst residues: imaginary {im.max():.3e} (guard "
                                     f"{imag_tol:.3e}), rounding {re.max():.3e}")
        return r.astype(np.int64)
    if abs(z.imag) >= imag_tol:
        raise RoundingGuardError(f"imaginary residue {z.imag:.3e} exceeds {imag_tol:.3e}")
    r = round(z.real)
    if abs(z.real - r) >= ROUND_GUARD:
        raise RoundingGuardError(f"rounding residue {abs(z.real - r):.3e} >= {ROUND_GUARD}")
    return int(r)


# ---------------------------------------------------------------------------
# Enumeration oracles
# ---------------------------------------------------------------------------

def power_count_table(ctx: FieldCtx, e: int) -> np.ndarray:
    """counts[v] = #{y in F_q : y^e = v}; one pass over y."""
    return ctx.cached(("power_counts", e), _power_counts, ctx, e)


def _power_counts(ctx: FieldCtx, e: int) -> np.ndarray:
    return np.bincount(ctx.pow(np.arange(ctx.q, dtype=np.int64), e), minlength=ctx.q)


def _oracle_tables(ctx: FieldCtx, e: int, d: int) -> tuple:
    """count_bruteforce's record for (e, d), one cache lookup a call: counts,
    then for n = 1 counts tiled to 3p - 2, x^d at x = g^k and exp twice over;
    for n > 1 C (counts[g^m] for m in [0, 3(q-1)), then q-1 ones), Z (zech
    three times over, -1 read as 3(q-1), then 2(q-1) zeros), k and (d-1)k."""
    counts = power_count_table(ctx, e)
    L = ctx.q - 1
    k = np.arange(L, dtype=np.int64)
    if ctx.n == 1:
        return (counts, ctx.cached(("power_counts_tiled", e), np.resize, counts, 3 * ctx.p - 2),
                ctx.cached(("pow_by_exp", d), np.take, ctx.exp, d * k % L),
                ctx.cached("exp2", np.tile, ctx.exp, 2))
    zech = zech_table(ctx)
    return (counts, np.concatenate((np.tile(counts[ctx.exp], 3), np.ones(L, dtype=np.int64))),
            np.concatenate((np.tile(np.where(zech < 0, 3 * L, zech), 3),
                            np.zeros(2 * L, dtype=np.int64))), k, (d - 1) * k % L)


def count_bruteforce(spec: CurveSpec) -> int | np.ndarray:
    """Affine point count by tabulating the e-th power class of each x-value.

    x = 0 contributes counts[b]; the units x = g^k are summed in generator
    order on the tables of _oracle_tables.  On a prime field x^d + a*x + b is
    the integer sum of x^d, exp rotated by dlog(a) and b, below 3p - 2, where
    the tiled counts reduce it mod p.  On an extension field f = x^d + a*x + b
    is read by its dlog: Z gives dlog(x^d + a*x) = la + k + zech[(d-1)k - la],
    then dlog f = lb + zech[dlog(x^d + a*x) - lb], where C is read.  Z's
    sentinels: x^d + a*x = 0 gives 3(q-1) + k, read next as 0 (f = b), and
    f = 0 gives 3(q-1), where C reads 1.  Calls write only arrays they
    allocate, so calls on one context may overlap.  Array a, b give an int64
    array, BLOCK_CELLS cells at a time in one (3, rows, q-1) work array.
    """
    ctx, b = spec.ctx, spec.b
    L = ctx.q - 1
    counts, *tables = ctx.cached(("oracle_tables", spec.e, spec.d), _oracle_tables,
                                 ctx, spec.e, spec.d)
    la, lb = spec.dlogs
    if not isinstance(b, np.ndarray):
        if ctx.n == 1:
            tiled, xd, ex = tables
            got = np.take(tiled[b:], xd + ex[la:la + L], mode="clip")
        else:
            C, Z, k, dk = tables
            z = Z[L - la:].take(dk)
            z += k
            got = C[lb:].take(Z[(la - lb) % L:].take(z))
        return int(counts[b]) + int(got.sum())
    step = max(1, BLOCK_CELLS // L)
    work = np.empty((3, min(step, b.size), L), dtype=np.int64)
    total = counts[b]
    for i in range(0, b.size, step):
        j = slice(i, i + step)
        val, got, tmp = work[:, :len(b[j])]
        if ctx.n == 1:
            tiled, xd, ex = tables
            for row, s in zip(val, la[j].tolist()):
                np.add(xd, ex[s:s + L], out=row)
            val += b[j, None]
            # mode="clip" writes straight to out ("raise" buffers it); indices lie in range
            np.take(tiled, val, out=got, mode="clip")
        else:
            C, Z, k, dk = tables
            np.add(dk, (L - la[j])[:, None], out=val)
            np.take(Z, val, out=tmp, mode="clip")
            tmp += k
            tmp += ((la[j] - lb[j]) % L)[:, None]
            np.take(Z, tmp, out=val, mode="clip")
            val += lb[j, None]
            np.take(C, val, out=got, mode="clip")
        total[j] += got.sum(axis=1)
    return total


def _coeff_mulmod(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of coefficient rows (..., n), reduced mod the modulus and p."""
    n, p = ctx.n, ctx.p
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (2 * n - 1,)
    out = np.zeros(shape, dtype=np.int64)
    for i in range(n):
        out[..., i:i + n] += a[..., i:i + 1] * b
    for i in range(2 * n - 2, n - 1, -1):  # c t^i -> c t^i - c t^(i-n) * modulus
        out[..., i - n:i] -= (out[..., i:i + 1] % p) * np.array(ctx.modulus[:n])
    return out[..., :n] % p


def _coeff_pow(ctx: FieldCtx, c: np.ndarray, e: int) -> np.ndarray:
    """Coefficient rows of c^e, e >= 1, by square and multiply."""
    if e == 1:
        return c
    half = _coeff_pow(ctx, _coeff_mulmod(ctx, c, c), e // 2)
    return _coeff_mulmod(ctx, half, c) if e & 1 else half


def count_naive(spec: CurveSpec) -> int:
    """Plain enumeration over all (x, y) pairs, without the field's tables.

    x^d + a*x + b and y^e are evaluated for every element at once, as
    polynomial arithmetic on the (q, n) array of coefficient vectors; the
    pairs are then compared in blocks of x rows of about _NAIVE_BLOCK_CELLS
    cells, so memory stays O(q * n) at every q; array a, b raise ValueError.
    """
    if isinstance(spec.b, np.ndarray):
        raise ValueError("count_naive counts one curve: a and b must be ints")
    ctx = spec.ctx
    basis = np.array(ctx._pow_basis, dtype=np.int64)
    xs = (np.arange(ctx.q, dtype=np.int64)[:, None] // basis) % ctx.p
    a, b = (np.array(ctx.to_coeffs(v), dtype=np.int64) for v in (spec.a, spec.b))
    rhs = (_coeff_pow(ctx, xs, spec.d) + _coeff_mulmod(ctx, a, xs) + b) % ctx.p
    dtype = np.min_scalar_type(ctx.q - 1)  # narrow values halve the compare time
    rhs = (rhs @ basis).astype(dtype)
    lhs = (_coeff_pow(ctx, xs, spec.e) @ basis).astype(dtype)
    rows = max(1, _NAIVE_BLOCK_CELLS // ctx.q)
    return sum(
        int(np.count_nonzero(rhs[i:i + rows, None] == lhs[None, :]))
        for i in range(0, ctx.q, rows)
    )


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _steps(L: int, e: int, d: int):
    return (
        L // e,  # T^(q-1)/e steps
        L // (e * (d - 1)),  # psi steps, order e(d-1)
        L // (e * d * (d - 1)),  # eta steps, order ed(d-1)
        L // d,  # chi steps, order d
    )


def _degenerate_ks(e: int, d: int, i: int, skip: int | None = None):
    """k values whose Gauss pair collapses to a trivial-character product.

    The closed-form reduction pairs G_(m + k(q-1)/d) with
    G_(-m - (ke-i)(q-1)/(e(d-1))); when i*d == k*e the pair's index
    difference vanishes and the generic binomial step understates it by a
    factor q except at one residue, so the series term is rescaled and an
    exact correction added (see _count_plan).
    """
    return [k for k in range(1, d) if k != skip and i * d == k * e]


def _gauss_products(G: np.ndarray, e: int, d: int, i: int):
    """The Gauss-product coefficients (M_i, N_i) of term i; N_i is None for even d."""
    L = G.size
    m1, mpsi, meta, md = _steps(L, e, d)
    half = d // 2
    m_i = 1 + 0j
    for k in range(1, d):
        if d % 2 or k != half:
            m_i *= G[((i * d - k * e) * meta) % L]
    if d % 2 == 0:
        return m_i * G[(-i * m1) % L] * G[(-(half * e - i) * mpsi) % L], None
    n_i = 1 + 0j
    for k in range(1, d):
        n_i *= G[(k * md) % L] * G[(-(k * e - i) * mpsi) % L]
    return m_i, n_i


def _make_plan(ctx: FieldCtx, terms, arg, series) -> tuple:
    """The plan record (terms, arg, roots) of a sum of terms (coef, u0, u_a,
    u_b) at a = g^la, b = g^lb: term t is coef * w^(u0 + u_a*la + u_b*lb),
    roots[k] = w^k with w = exp(2*pi*i/(q-1)), and each of the first
    len(series) terms is also times its series (upper, lower) at
    g^(c0 + s_a*la + s_b*lb), arg = (c0, s_a, s_b).  Each term is kept once
    as Python values (coef, u0, u_a, u_b, series params or None), the u
    reduced mod q-1 and the series as hyperf.hf_params tuples, their tables
    built here rather than on the first evaluation."""
    L = ctx.q - 1
    series = [hyperf.hf_params(ctx, upper, lower) for upper, lower in series]
    for params in series:
        hyperf.hf_table(ctx, *params)
    terms = tuple((complex(c), *(int(u) % L for u in us), params)
                  for (c, *us), params in itertools.zip_longest(terms, series))
    return terms, tuple(int(c) % L for c in arg), chars.unit_roots(ctx)


def _plan_value(ctx: FieldCtx, plan: tuple, la, lb):
    """The unrounded sum of a _make_plan record at dlog a = la, dlog b = lb,
    ints or equal-length int64 arrays, in one loop over the record's terms
    (plans hold a handful, and array ops across them cost more than the
    arithmetic), reading roots and exp by item for ints and by index for arrays.
    Each term is coef * root * series in that order, every series read by
    hyperf.hf_eval at x = g^s; the sum starts from the first term, as 0j + z
    may flip a -0.0."""
    terms, (c0, s_a, s_b), roots = plan
    L = ctx.q - 1
    s = (c0 + s_a * la + s_b * lb) % L
    arrays = isinstance(la, np.ndarray)
    x, root = (ctx.exp[s], roots.__getitem__) if arrays else (ctx.exp.item(s), roots.item)
    total = None
    for c, u0, u_a, u_b, params in terms:
        z = c * root((u0 + u_a * la + u_b * lb) % L)
        if params:
            z = z * hyperf.hf_eval(ctx, *params, x)
        total = z if total is None else total + z
    return total


def _count_plan(spec: CurveSpec) -> tuple:
    """The closed-form count of spec's (e, d) family as a _make_plan record,
    built once per (field, e, d).  The terms are coef * T^u_b(b) *
    T^u_alpha(alpha), the first e-1 also times a series at alpha (at -alpha
    for odd d).  dlog(alpha) = c0 + (d-1)*dlog(b) - d*dlog(a) with c0 =
    dlog(d) + (d-1)*(dlog(d) - dlog(d-1)) (d and d-1 are units since d*(d-1)
    divides q-1), so T^u_alpha folds into the root exponent."""
    require_congruence(spec.ctx, spec.modulus_required)
    ctx, e, d = spec.ctx, spec.e, spec.d
    q, L = ctx.q, ctx.q - 1
    m1, mpsi, meta, md = _steps(L, e, d)
    G = sums.gauss_table(ctx)
    roots = chars.unit_roots(ctx)
    l_neg, ld, ld1 = (ctx.dlog_of(x) for x in (ctx.minus_one(), ctx.embed(d), ctx.embed(d - 1)))

    def t(m, l):  # T^m(g^l)
        return complex(roots[(m * l) % L])

    series = []  # (coef, u_b, u_alpha, (upper, lower))
    plain = {(0, 0): complex(q)}  # (u_b, u_alpha) mod q-1 -> coef

    def add(coef, u_b, u_alpha):
        key = (u_b % L, u_alpha % L)
        plain[key] = plain.get(key, 0j) + coef

    for i in range(1, e):
        add(1, -i * m1, 0)  # T^(-i(q-1)/e)(b)
    half = d // 2
    if d % 2 == 0:
        shift = 0
        prefactor = t(-_exact_div((d - 2) * (2 * d - 1) * L, 8 * (d - 1)), l_neg)
        pref_raw = prefactor / (q ** (d - 2) * (q - 1) * G[L // 2])
        for i in range(1, e):
            m_i, _ = _gauss_products(G, e, d, i)
            upper = [L // 2, 0] + [j * md for j in range(1, d) if j != half]
            lower = [(half * e - i) * mpsi] + [
                (j * e - i) * mpsi for j in range(1, d) if j != half
            ]
            deg = _degenerate_ks(e, d, i, skip=half)
            # T^(i(q-1)/e)((d-1)/b) splits into a constant and T^u_b(b)
            coef = q ** len(deg) * prefactor * m_i * t(i * m1, ld1)
            series.append((coef, -i * m1, 0, (upper, lower)))
            glt = G[(-i * m1) % L] * t(i * m1, l_neg) * t(-(e - i) * m1, ld1) * pref_raw / q
            for k0 in deg:
                m0 = (-k0 * md) % L
                rest = G[(m0 + L // 2) % L] * G[(-m0) % L]
                rest *= G[m0] * G[(-m0 - (half * e - i) * mpsi) % L]
                for k in range(1, d):
                    if k not in (half, k0):
                        rest *= G[(m0 + k * md) % L] * G[(-m0 - (k * e - i) * mpsi) % L]
                add((q - 1) ** 2 * glt * rest, (e - i) * m1, m0)
    else:
        shift = l_neg
        g_half = G[L // 2]
        sign2 = t(_exact_div((3 * d - 1) * L, 8 * d), l_neg)
        sign3 = t(_exact_div((4 * d * d + 3 * d - 1) * L, 8 * d), l_neg)
        for i in range(1, e):
            m_i, n_i = _gauss_products(G, e, d, i)
            # with T^u_b(b) at u_b = -i(q-1)/e: G * T^(-i(q-1)/e)(b/(d-1))
            g_lead = G[(-i * m1) % L] * t(i * m1, ld1)
            glt = g_lead * t(i * m1, l_neg)
            add(-sign2 / (q ** (d - 1) * g_half) * glt * n_i, -i * m1, 0)
            upper = [(j * e * (d - 1) - d * (e - i)) * meta for j in range(1, d)]
            lower = [j * e * mpsi for j in range(1, d - 1)]
            deg = _degenerate_ks(e, d, i)
            u_alpha = -(e - i) * mpsi
            coef = q ** len(deg) * sign3 / g_half * g_lead * m_i * t(u_alpha, l_neg)
            series.append((coef, -i * m1, u_alpha, (upper, lower)))
            glt *= sign2 * (q - 1) / (q ** (d - 2) * g_half)
            for k0 in deg:
                m0 = (-k0 * md) % L
                rest = 1 + 0j
                for k in range(1, d):
                    if k != k0:
                        rest *= G[(m0 + k * md) % L] * G[(-m0 - (k * e - i) * mpsi) % L]
                add(glt * rest * t(m0, l_neg), -i * m1, m0)
    c0 = ld + (d - 1) * (ld - ld1)
    terms = [(c, u_a * c0, -d * u_a, u_b + (d - 1) * u_a) for c, u_b, u_a in
             [s[:3] for s in series] + [(c, *u) for u, c in plain.items()]]
    return _make_plan(ctx, terms, (c0 + shift, -d, d - 1), [s[3] for s in series])


def count_theorem(spec: CurveSpec) -> int | np.ndarray:
    """Closed-form count: the (field, e, d) plan read at the spec's dlogs by
    _plan_value.  Array a, b give an int64 array."""
    ctx = spec.ctx
    plan = ctx.cached(("count_plan", spec.e, spec.d), _count_plan, spec)
    return _round_guarded(ctx, _plan_value(ctx, plan, *spec.dlogs))


# ---------------------------------------------------------------------------
# Coefficient dual forms
# ---------------------------------------------------------------------------

@dataclass
class ThmCoeffs:
    """Gauss-product coefficients M_i (and N_i for odd d) in both forms."""

    m_product: list
    m_simplified: list
    n_product: list | None
    n_simplified: list | None

    @property
    def max_disc(self) -> float:
        pairs = list(zip(self.m_product, self.m_simplified))
        if self.n_product is not None:
            pairs += list(zip(self.n_product, self.n_simplified))
        return max((abs(x - y) for x, y in pairs), default=0.0)


def thm_coeffs(spec: CurveSpec) -> ThmCoeffs:
    """Compute every M_i / N_i by the Gauss-product form and by the reduced
    binomial/Jacobi form (closed forms when e = 2), for cross-checking."""
    require_congruence(spec.ctx, spec.modulus_required)
    ctx = spec.ctx
    q, L = ctx.q, ctx.q - 1
    e, d = spec.e, spec.d
    m1, mpsi, meta, _ = _steps(L, e, d)
    G = sums.gauss_table(ctx)
    minus_one = ctx.minus_one()
    even = d % 2 == 0
    half = d // 2

    m_prod, m_simp = [], []
    n_prod, n_simp = ([], []) if not even else (None, None)
    for i in range(1, e):
        raw_exps = [(i * d - k * e) * meta for k in range(1, d)]
        m_i, n_i = _gauss_products(G, e, d, i)
        m_prod.append(complex(m_i))
        if even:
            if e == 2:
                m_simp.append(
                    q ** (d // 2) * chars.mul_char(ctx, L // 2, minus_one)
                )
            else:
                ratio = (
                    G[_exact_div((2 * i - e) * L, 2 * e * (d - 1)) % L]
                    / G[((i * d - half * e) * meta) % L]
                )
                val = (
                    q**2
                    * ratio
                    * sums.greene_binom(ctx, _exact_div((2 * i - e) * L, 2 * e), i * m1)
                    * sums.greene_binom(ctx, L // 2, (half * e - i) * mpsi)
                    * chars.mul_char(
                        ctx,
                        _exact_div((2 * i * (d - 2) + e * d) * L, 2 * e * (d - 1)),
                        minus_one,
                    )
                    * sums.jacobi_multi(ctx, raw_exps)
                )
                m_simp.append(complex(val))
        else:
            n_prod.append(complex(n_i))
            if e == 2:
                sign = chars.mul_char(ctx, -_exact_div((d - 1) * L, 8 * d), minus_one)
                m_simp.append(q ** ((d - 1) // 2) * sign)
                n_simp.append(q ** (d - 1) * sign)
            else:
                m_simp.append(
                    complex(
                        G[_exact_div((2 * i - e) * L, 2 * e) % L]
                        * sums.jacobi_multi(ctx, raw_exps)
                    )
                )
                n_val = (
                    q ** ((d - 1) // 2)
                    * chars.mul_char(ctx, _exact_div((d * d - 1) * L, 8 * d), minus_one)
                    * G[(-_exact_div((e * d - 2 * i) * L, 2 * e)) % L]
                    * sums.jacobi_multi(
                        ctx, [-(k * e - i) * mpsi for k in range(1, d)]
                    )
                )
                n_simp.append(complex(n_val))
    return ThmCoeffs(m_prod, m_simp, n_prod, n_simp)


# ---------------------------------------------------------------------------
# Trace of Frobenius
# ---------------------------------------------------------------------------

def trace_frobenius(spec: CurveSpec) -> int | np.ndarray:
    """a_q = q - N (affine count), via closed form when the congruence holds
    and by enumeration otherwise.  Array a, b give an int64 array.  For
    gcd(e, d) = 1 (one point at infinity, 2g = (e-1)(d-1)) every entry must
    meet Weil's bound a_q^2 <= ((e-1)(d-1))^2 q, in exact integers (attained)."""
    try:
        n_points = count_theorem(spec)
    except CongruenceError:
        n_points = count_bruteforce(spec)
    a_q, two_g = spec.ctx.q - n_points, (int(spec.e) - 1) * (int(spec.d) - 1)
    if math.gcd(spec.e, spec.d) == 1 and np.any(a_q * a_q > two_g * two_g * spec.ctx.q):
        raise RoundingGuardError(f"|trace| {np.max(np.abs(a_q))} violates the Weil bound "
                                 f"(e-1)(d-1) sqrt(q) for e={spec.e}, d={spec.d}")
    return a_q
