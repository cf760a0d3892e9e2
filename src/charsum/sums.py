"""Gauss sums, Jacobi sums, Greene binomial coefficients, and identity suites.

The whole Gauss table G[m] = sum_{x != 0} T^m(x) * theta(x) is built once per
field context by one inverse FFT and cached; afterwards every Gauss sum is a
lookup, and Jacobi sums / binomials take the Gauss-quotient fast path
whenever all involved characters are nontrivial, falling back to the
defining summation otherwise.  The defining multi-sums are additive
convolutions, computed by FFT over the group (Z/p)^n.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass

import numpy as np

from . import chars
from .field import TOL, FieldCtx, _as_int, require_congruence, zech_table


def gauss_table(ctx: FieldCtx) -> np.ndarray:
    """All Gauss sums G[m], m in [0, q-2], cached on the context.

    Summed over x = g^k, G[m] = sum_k theta(g^k) exp(2*pi*i*m*k/(q-1)) is one
    length-(q-1) inverse DFT, so the table costs O(q log q) for any q
    (numpy's FFT handles large prime factors of q-1 with Bluestein's
    algorithm).
    """
    return ctx.cached("gauss", _gauss, ctx)


def _gauss(ctx: FieldCtx) -> np.ndarray:
    return np.fft.ifft(chars.theta_by_exp(ctx)) * (ctx.q - 1)


def gauss_sum(ctx: FieldCtx, m: int) -> complex:
    """G(T^m) from the cached table; index taken mod q-1."""
    return complex(gauss_table(ctx)[_as_int("exponent", m) % (ctx.q - 1)])


def _one_minus_logs(ctx: FieldCtx) -> np.ndarray:
    """dlog x at x = 1 - g^m for m in [1, q-2], the x not in {0, 1}: entry
    m + s of the Zech table, index mod q-1, with s = dlog(-1) (0 for even q)."""
    zech, s = zech_table(ctx), ctx.dlog_of(ctx.minus_one())
    return np.concatenate((zech[s + 1:], zech[:s]))


def jacobi_direct(ctx: FieldCtx, a: int, b: int) -> complex:
    """Defining sum J(T^a, T^b) = sum_x T^a(x) T^b(1-x), zero terms dropped,
    summed over m = dlog(1-x)."""
    L = ctx.q - 1
    a, b = _as_int("exponent", a), _as_int("exponent", b)
    ka = _one_minus_logs(ctx)
    return complex(np.sum(chars.unit_roots(ctx)[(a * ka + b * np.arange(1, L)) % L]))


def jacobi_direct_rows(ctx: FieldCtx, tops, work=None) -> np.ndarray:
    """Defining sums J(T^a, T^b) for a in `tops` (rows) and b in [0, q-2].

    With V[a, m] = T^a(x) at x = 1 - g^m for m in [1, q-2] (V[a, 0] = 0, for
    x = 0), row a is sum_m V[a, m] w^(b*m) = L * ifft(V[a])[b]; no Gauss sum
    is read.  V and its exponents are _views of the byte buffer `work` if
    given, so only the transform allocates.
    """
    L = ctx.q - 1
    tops = np.asarray(tops)
    V, k = _views(work, (len(tops), L), np.complex128, np.int64)
    k[:, 0] = 0
    np.multiply(tops[:, None], _one_minus_logs(ctx), out=k[:, 1:])
    k %= L
    np.take(chars.unit_roots(ctx), k, out=V, mode="clip")  # unbuffered; k lies in range
    V[:, 0] = 0
    out = np.fft.ifft(V, axis=1)
    out *= L
    return out


def jacobi_sum(ctx: FieldCtx, a: int, b: int) -> complex:
    """J(T^a, T^b), via the Gauss quotient when all of T^a, T^b, T^(a+b) are
    nontrivial, by direct summation otherwise."""
    L = ctx.q - 1
    a, b = _as_int("exponent", a) % L, _as_int("exponent", b) % L
    if a and b and (a + b) % L:
        G = gauss_table(ctx)
        return complex(G[a] * G[b] / G[(a + b) % L])
    return jacobi_direct(ctx, a, b)


def _convolve_add(ctx: FieldCtx, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Additive convolution over F_q along the last axis:
    out[..., s] = sum_{u+v=s} f[..., u] g[..., v], leading axes a batch.

    Element indices are base-p digit vectors and addition is digit-wise mod
    p, so reshaping the last axis to (p,)*n lays F_q out as the group
    (Z/p)^n and the convolution is a cyclic one along each of those axes (a
    plain cyclic convolution for n = 1).
    """
    axes = tuple(range(-ctx.n, 0))
    f, g = (np.reshape(x, x.shape[:-1] + (ctx.p,) * ctx.n) for x in (f, g))
    out = np.fft.ifftn(np.fft.fftn(f, axes=axes) * np.fft.fftn(g, axes=axes), axes=axes)
    return out.reshape(out.shape[:out.ndim - ctx.n] + (ctx.q,))


def jacobi_multi(ctx: FieldCtx, exps) -> complex:
    """Multi-argument Jacobi sum over x_1 + ... + x_n = 1.

    Gauss-quotient path when every T^(k_i) and T^(sum k_i) is nontrivial;
    otherwise the defining multi-sum via (n-1)-fold additive convolution.
    """
    L = ctx.q - 1
    exps = [_as_int("exponent", e) % L for e in exps]
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
    acc = chars.mul_char(ctx, exps[0], xs)
    for e in exps[1:]:
        acc = _convolve_add(ctx, acc, chars.mul_char(ctx, e, xs))
    return complex(acc[1])


def greene_binom(ctx: FieldCtx, a: int, b: int) -> complex:
    """Binomial coefficient (T^a over T^b) = T^b(-1)/q * J(T^a, T^-b)."""
    b = _as_int("exponent", b)
    sign = chars.mul_char(ctx, b, ctx.minus_one())
    return sign / ctx.q * jacobi_sum(ctx, a, -b)


def binom_grid(ctx: FieldCtx, top, bottom, out=None) -> np.ndarray:
    """binom(T^top, T^bottom) over broadcast exponent arrays.

    The Gauss quotient T^b(-1)/q * G_a G_-b / G_(a-b), with the entries of
    degenerate Jacobi sums in closed form: -1/q where the bottom character
    is trivial or equals the top one, -T^b(-1)/q where only the top one is
    trivial, and (q-2)/q where both are.  The quotient is gathered into one
    output array (`out` if given) and finished in place, so a call holds
    about three arrays of the output's size at once.
    """
    L, q = ctx.q - 1, ctx.q
    top, bottom = np.asarray(top) % L, np.asarray(bottom) % L
    shape = np.broadcast_shapes(top.shape, bottom.shape)
    G = gauss_table(ctx)
    # degenerate entries, found before the exponent arrays are reused
    equal = (bottom == 0) | (top == bottom)
    top_trivial = np.broadcast_to(top == 0, shape)
    bottom_at_trivial = np.broadcast_to(bottom, shape)[top_trivial]
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    np.multiply(G[top], 1 / q, out=out)
    out *= chars.char_at_minus_one(ctx, bottom)
    bottom = L - bottom  # G_-b; the index L wraps to 0
    out *= np.take(G, bottom, mode="wrap")
    top = top + bottom  # a - b + L, in [1, 2L)
    out /= np.take(G, top, mode="wrap")
    out[equal] = -1 / q
    out[top_trivial] = np.where(bottom_at_trivial == 0, (q - 2) / q,
                                -chars.char_at_minus_one(ctx, bottom_at_trivial) / q)
    return out


# ---------------------------------------------------------------------------
# Identity verification suites
# ---------------------------------------------------------------------------

# Cells per grid chunk: grids run in blocks of rows of at most this many cells
# (128 KiB per complex temporary), so their memory is one block or one row,
# not the grid.  At q = 181 a cycle took 31 ms at 2^13 and 45 ms at 2^14.
_GRID_BLOCK_CELLS = 1 << 13


def _blocks(rows: int, width: int) -> list[slice]:
    """Consecutive slices over `rows` grid rows of `width` cells each, at most
    _GRID_BLOCK_CELLS cells per slice (one row at least)."""
    step = max(1, _GRID_BLOCK_CELLS // max(1, width))
    return [slice(s, s + step) for s in range(0, rows, step)]


def _views(work, shape, *dtypes) -> list[np.ndarray]:
    """Arrays of `shape`, one per dtype, laid end to end from the start of
    the byte buffer `work` (new arrays if work is None).  A grid that makes
    one buffer per call and carves each block's gathers, products and
    discrepancies from it allocates no array of a block's size per block."""
    size = math.prod(shape)
    if work is None:
        return [np.empty(shape, dtype=dtype) for dtype in dtypes]
    views, at = [], 0
    for dtype in dtypes:
        nbytes = size * np.dtype(dtype).itemsize
        views.append(work[at:at + nbytes].view(dtype).reshape(shape))
        at += nbytes
    return views


def _work_buffer(blocks: list[slice], width: int, *dtypes) -> np.ndarray:
    """The byte buffer of _views for the largest of `blocks` (the first),
    `width` cells a row."""
    cells = (blocks[0].stop - blocks[0].start) * width
    return np.empty(cells * sum(np.dtype(dtype).itemsize for dtype in dtypes), dtype=np.uint8)


def _params(L: int, pinned, start: int = 0) -> np.ndarray:
    """A free grid parameter: start..L-1, or the pinned value mod L."""
    return np.arange(start, L) if pinned is None else np.array([pinned % L])


@dataclass
class VerifyReport:
    """Outcome of checking one identity grid (or one special value) against
    an oracle, filled in by the check as it runs.

    `disc` is the worst absolute discrepancy seen, `worst_case` the parameter
    tuple achieving it, and `formula` and `oracle` the two sides there (the
    oracle's real part); the check matches when disc < tol.  `cases` and
    `skipped` count grid points checked and gated out by preconditions.  `d`
    is the section order of a Davenport-Hasse report.  The row has no ms: the
    CLI adds the wall time of the step that produced it.
    """

    name: str
    q: int
    tol: float
    d: int | None = None
    formula: complex = 0j
    oracle: float = 0.0
    disc: float = 0.0
    cases: int = 0
    skipped: int = 0
    worst_case: tuple = ()

    @property
    def match(self) -> bool:
        return self.disc < self.tol

    def update_all(self, lhs, rhs, case_of, skip=None, work=None):
        """Count the cases of a grid chunk (or of one case, as scalars) and
        keep the first largest discrepancy |lhs - rhs|, in row-major order,
        where the mask `skip` is unset; case_of(*index) names the case at an
        array index.  `work`, a complex and a float array of the chunk's
        shape, takes lhs - rhs and the discrepancies in place of new arrays."""
        if work is None:
            discs = np.asarray(abs(lhs - rhs))
        else:
            diff, discs = work
            np.abs(np.subtract(lhs, rhs, out=diff), out=discs)
        if skip is not None:
            skip = np.broadcast_to(skip, discs.shape)
            n_skip = int(np.count_nonzero(skip))
            self.skipped += n_skip
            self.cases -= n_skip
            np.copyto(discs, -1.0, where=skip)
        self.cases += discs.size
        i = np.unravel_index(int(np.argmax(discs)), discs.shape)
        if discs[i] > self.disc:
            self.disc = float(discs[i])
            self.worst_case = case_of(*(int(k) for k in i))
            self.formula = complex(np.broadcast_to(lhs, discs.shape)[i])
            self.oracle = complex(np.broadcast_to(rhs, discs.shape)[i]).real

    def to_row(self) -> dict:
        """The report's row columns; the CLI writes the missing ones as null."""
        return {
            "q": self.q,
            "d": self.d,
            "formula_re": float(self.formula.real),
            "formula_im": float(self.formula.imag),
            "oracle": self.oracle,
            "match": bool(self.match),
            "disc": float(self.disc),
        }


def _check_gauss_reflection(ctx: FieldCtx, report: VerifyReport, m=None):
    L = ctx.q - 1
    G = gauss_table(ctx)
    ms = _params(L, m, start=1)
    for s in _blocks(len(ms), 1):
        mm = ms[s]
        lhs = G[mm] * np.take(G, -mm, mode="wrap")
        rhs = ctx.q * chars.char_at_minus_one(ctx, mm)
        report.update_all(lhs, rhs, lambda i: (int(mm[i]),), skip=mm == 0)


_GRID_VIEWS = (np.complex128, np.complex128, np.complex128, np.float64, np.int64)


def _check_gauss_shift(ctx: FieldCtx, report: VerifyReport, m=None, n=None):
    """G_m G_-n = J(T^m, T^-n) G_(m-n) wherever T^(m-n) is nontrivial, with J
    from the defining sums, so that an error in G shows on every entry.  A
    block's sides, gathers and discrepancies are _views of one buffer per
    call (the defining rows' V and exponents too, before the sides)."""
    L = ctx.q - 1
    G = gauss_table(ctx)
    ms, nn = _params(L, m), _params(L, n)
    minus_n = np.negative(nn)
    minus_n %= L
    # J is symmetric: a pinned n needs one defining row, J(T^-n, T^m) over m
    pinned_row = None if n is None else jacobi_direct_rows(ctx, minus_n)[0]
    blocks = _blocks(len(ms), len(nn))
    work = _work_buffer(blocks, len(nn), *_GRID_VIEWS)
    for s in blocks:
        mm = ms[s, None]
        lhs, rhs, tmp, discs, idx = _views(work, (len(mm), len(nn)), *_GRID_VIEWS)
        # mode="clip" writes straight to out ("raise" buffers it); indices lie in range
        if pinned_row is None:  # the defining rows' V and k take the buffer first
            np.take(jacobi_direct_rows(ctx, ms[s], work), minus_n, axis=1, out=rhs, mode="clip")
        else:
            np.take(pinned_row, mm, out=rhs, mode="clip")
        np.take(G, minus_n, out=tmp[0], mode="clip")
        np.multiply(G[mm], tmp[0], out=lhs)
        np.subtract(mm, nn, out=idx)
        rhs *= np.take(G, idx, mode="wrap", out=tmp)
        report.update_all(lhs, rhs, lambda i, j: (int(mm[i, 0]), int(nn[j])), skip=mm == nn,
                          work=(tmp, discs))


def _check_jacobi_gauss(ctx: FieldCtx, report: VerifyReport, seed=0, triples=24):
    L = ctx.q - 1
    G = gauss_table(ctx)
    b = np.arange(1, L)
    for s in _blocks(L - 1, L):
        a = b[s, None]
        lhs = jacobi_direct_rows(ctx, b[s])[:, 1:]  # defining sums, not G
        rhs = G[a] * G[b] / G[(a + b) % L]
        report.update_all(lhs, rhs, lambda i, j: (int(a[i, 0]), j + 1), skip=(a + b) % L == 0)
    rng = random.Random(seed)
    ks = []
    while L > 1 and len(ks) < triples:  # q = 2 has no nontrivial character
        k = [rng.randrange(1, L) for _ in range(3)]
        if sum(k) % L:
            ks.append(k)
    if not ks:
        return
    lhs = np.array([jacobi_multi(ctx, k) for k in ks])  # quotient path
    # the defining multi-sums, forced through two batched convolutions
    f = np.zeros((len(ks), 3, ctx.q), dtype=np.complex128)
    f[..., 1:] = chars.unit_roots(ctx)[(np.array(ks)[..., None] * ctx.dlog[1:]) % L]
    rhs = _convolve_add(ctx, _convolve_add(ctx, f[:, 0], f[:, 1]), f[:, 2])[:, 1]
    report.update_all(lhs, rhs, lambda i: tuple(ks[i]))


def _check_theta_expansion(ctx: FieldCtx, report: VerifyReport):
    L = ctx.q - 1
    unit = chars.unit_roots(ctx)
    m = np.arange(L)
    g_neg = gauss_table(ctx)[-m % L]
    for s in _blocks(L, L):
        alpha = np.arange(1, ctx.q)[s]
        rhs = np.sum(g_neg * unit[(ctx.dlog[alpha, None] * m) % L], axis=1) / L
        lhs = chars.theta_table(ctx)[alpha]
        report.update_all(lhs, rhs, lambda i: (int(alpha[i]),))


def _check_orthogonality(ctx: FieldCtx, report: VerifyReport):
    L = ctx.q - 1
    unit = chars.unit_roots(ctx)
    ks = np.arange(L)
    # sum over k of T^m(g^k), then over x of T^k(x): rhs L at exponent 0
    for label, params, exps in (("char-sum", ks, ks),
                                ("point-sum", np.arange(1, ctx.q), ctx.dlog[1:])):
        for s in _blocks(L, L):
            lhs = np.sum(unit[(exps[s, None] * ks) % L], axis=1)
            rhs = np.where(exps[s] == 0, float(L), 0.0)
            report.update_all(lhs, rhs, lambda i: (label, int(params[s][i])))


def binom_translate_rhs(ctx: FieldCtx, a, out=None) -> np.ndarray:
    """delta(x) + q/(q-1) * sum_k binom(T^a, T^k) T^k(x) for every x.

    The 1F0 binomial theorem equates it with T^a(1 + x).  At x = g^j the
    sum is an inverse DFT of the binomial row, so all x cost one FFT.  An
    array of tops gives one row each, from one batched FFT, written to `out`
    if given.
    """
    a = np.asarray(a)
    if out is None:
        out = np.empty(a.shape + (ctx.q,), dtype=np.complex128)
    # the binomial rows take the start of out's memory, contiguous, until the
    # transform has read them
    L = ctx.q - 1
    grid = out.reshape(-1)[:a.size * L].reshape(a.shape + (L,))
    rows = np.fft.ifft(binom_grid(ctx, a[..., None], np.arange(L), out=grid))
    rows *= ctx.q
    np.take(rows, ctx.dlog, axis=-1, out=out, mode="clip")  # unbuffered; dlog 0 -> -1 clips
    out[..., 0] = 1  # x = 0: the delta term
    return out


def _check_binom_translate(ctx: FieldCtx, report: VerifyReport, a=None):
    """T^a(1 + x) against binom_translate_rhs for every x; a block's sides,
    exponents and discrepancies are _views of one buffer per call."""
    L = ctx.q - 1
    # dlog(1 + x) for every x: 0 at x = 0, and -1 at x = -1, where T^a(1 + x) = 0
    k1 = zech_table(ctx)[ctx.dlog]
    k1[0] = 0
    tops = _params(L, a)
    blocks = _blocks(len(tops), ctx.q)
    work = _work_buffer(blocks, ctx.q, *_GRID_VIEWS)
    for s in blocks:
        aa = tops[s]
        lhs, rhs, tmp, discs, idx = _views(work, (len(aa), ctx.q), *_GRID_VIEWS)
        np.multiply(aa[:, None], k1, out=idx)
        idx %= L
        np.take(chars.unit_roots(ctx), idx, out=lhs, mode="clip")  # unbuffered; in range
        lhs[:, ctx.minus_one()] = 0
        binom_translate_rhs(ctx, aa, out=rhs)
        report.update_all(lhs, rhs, lambda i, x: (int(aa[i]), x), work=(tmp, discs))


def _binom_check(rhs_of):
    """Checker of binom(T^a, T^b) = rhs_of(ctx, a, b) over the whole (a, b) grid."""

    def check(ctx: FieldCtx, report: VerifyReport):
        L = ctx.q - 1
        b = np.arange(L)
        for s in _blocks(L, L):
            a = b[s, None]
            lhs, rhs = binom_grid(ctx, a, b), rhs_of(ctx, a, b)
            report.update_all(lhs, rhs, lambda i, j: (int(a[i, 0]), j))

    return check


def _transpose_rhs(ctx: FieldCtx, a, b) -> np.ndarray:
    """binom(T^-b, T^-a) * T^(a+b)(-1) for a column of tops a and all b.

    binom(T^-b, T^-a) = T^-a(-1)/q * J(T^-b, T^a), taken from the defining
    Jacobi sums J(T^a, T^-b) rather than from G, so that an error in the
    Gauss table shows against the Gauss quotient of the left side.
    """
    J = jacobi_direct_rows(ctx, a[:, 0])[:, -b % (ctx.q - 1)]
    sign = chars.char_at_minus_one(ctx, -a) * chars.char_at_minus_one(ctx, a + b)
    return sign / ctx.q * J


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


def _check_gauss_special(ctx: FieldCtx, report: VerifyReport):
    G = gauss_table(ctx)
    report.update_all(G[0], -1 + 0j, lambda: ("trivial",))
    if ctx.q % 2:
        expect = quadratic_gauss_value(ctx)
        got = G[(ctx.q - 1) // 2]
        report.update_all(got, expect, lambda: ("quadratic",))


def _check_theta_delta(ctx: FieldCtx, report: VerifyReport):
    theta = chars.theta_table(ctx)
    zs = np.arange(ctx.q)
    for s in _blocks(ctx.q, ctx.q):
        wdiff = zs[s]
        lhs = np.sum(theta[ctx.mul(wdiff[:, None], zs)], axis=1)
        rhs = np.where(wdiff == 0, float(ctx.q), 0.0)
        report.update_all(lhs, rhs, lambda i: (int(wdiff[i]),))


_IDENTITIES = {
    "gauss-reflection": _check_gauss_reflection,
    "gauss-shift": _check_gauss_shift,
    "jacobi-gauss": _check_jacobi_gauss,
    "theta-expansion": _check_theta_expansion,
    "orthogonality": _check_orthogonality,
    "binom-translate": _check_binom_translate,
    "binom-absorb": _binom_check(lambda ctx, a, b: binom_grid(ctx, a, a - b)),
    "binom-complement": _binom_check(
        lambda ctx, a, b: binom_grid(ctx, b - a, b) * chars.char_at_minus_one(ctx, b)),
    "binom-transpose": _binom_check(_transpose_rhs),
    "gauss-special": _check_gauss_special,
    "theta-delta": _check_theta_delta,
}

IDENTITY_NAMES = tuple(_IDENTITIES)
# the keyword parameters of each grid (all but ctx and report)
_IDENTITY_PARAMS = {name: tuple(inspect.signature(check).parameters)[2:]
                    for name, check in _IDENTITIES.items()}


def verify_identity(ctx: FieldCtx, name: str, **params) -> VerifyReport:
    """Evaluate both sides of a named identity over its parameter grid.

    Free parameters may be pinned through keyword arguments (e.g. m=3), each
    an integer by field._as_int (None leaves it free); grid points whose
    preconditions fail are counted as skipped.  Every identity takes a seed,
    which only the seeded ones read; any other parameter the identity does
    not take raises ValueError.
    """
    if name not in _IDENTITIES:
        raise KeyError(f"unknown identity {name!r}; known: {', '.join(_IDENTITIES)}")
    taken = _IDENTITY_PARAMS[name]
    for key in params:
        if key not in taken and key != "seed":
            raise ValueError(f"identity {name!r} takes no parameter {key!r}")
    report = VerifyReport(name, ctx.q, TOL * ctx.q)
    _IDENTITIES[name](ctx, report, **{k: v if v is None else _as_int(k, v)
                                      for k, v in params.items() if k in taken})
    return report


def davenport_hasse(ctx: FieldCtx, d: int, l: int | None = None, t: int = 1) -> VerifyReport:
    """Check the d-section Gauss-sum product formula.

    For odd d:  prod_j G_{l+t*j*(q-1)/d}
                = q^((d-1)/2) T^((d-1)(d+1)(q-1)/(8d))(-1) T^(-l)(d^d) G_{ld}
    For even d: same product
                = q^((d-2)/2) G_{(q-1)/2} T^((d-2)(q-1)/8)(-1) T^(-l)(d^d) G_{ld}
    Over all l in [0, q-2] when l is None.
    """
    d, t = _as_int("d", d), _as_int("t", t)
    if d < 2:
        raise ValueError("need d >= 2")
    require_congruence(ctx, d)
    if t not in (1, -1):
        raise ValueError("t must be 1 or -1")
    L = ctx.q - 1
    G = gauss_table(ctx)
    kd = ctx.dlog_of(ctx.pow(ctx.embed(d), d))  # T^(-l)(d^d) = w^(-l*kd)
    if d % 2:
        sign = chars.char_at_minus_one(ctx, (d - 1) * (d + 1) * L // (8 * d))
        scale = ctx.q ** ((d - 1) // 2) * sign
    else:
        sign = chars.char_at_minus_one(ctx, (d - 2) * L // 8)
        scale = ctx.q ** ((d - 2) // 2) * G[L // 2] * sign
    # the product's magnitude grows like q^(d/2)
    report = VerifyReport("davenport-hasse", ctx.q, TOL * ctx.q ** (d / 2), d=d)
    ls = _params(L, l if l is None else _as_int("l", l))
    for s in _blocks(len(ls), 1):
        ll = ls[s]  # consecutive values of l
        # factor j over the block is G rotated by l_0 + j*t*(q-1)/d: at most
        # two slices of G, multiplied in place
        lhs = G[ll]
        for j in range(1, d):
            r = (int(ll[0]) + j * t * (L // d)) % L
            k = min(len(ll), L - r)
            lhs[:k] *= G[r:r + k]
            lhs[k:] *= G[:len(ll) - k]
        rhs = chars.unit_roots(ctx)[ll * (-kd % L) % L]
        rhs *= scale
        rhs *= np.take(G, ll * d, mode="wrap")
        report.update_all(lhs, rhs, lambda i: (int(ll[i]), t))
    return report
