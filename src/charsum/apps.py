"""Trace formulas, twisted-Edwards correspondence, and 2F1 special values.

Everything here specializes the general closed-form counts: the cubic trace
formula (characters of order 12), the (e, d) = (3, 4) trace in 4F3 series,
the quadratic-twist bridge between y^2 = x^3 + a*x^2 + b*x and twisted
Edwards curves, and the resulting 2F1 evaluations at 1/2 and 1323/1331.
The Edwards and shifted-cubic oracles count points in O(q) by square
classes, from the table curves.power_count_table(ctx, 2).

Every public function but special_value_check also takes equal-length int
arrays for (a, b) or (alpha, beta) (and the branch), in one body.  Lennon's
trace, the (3, 4) trace and the Edwards series are per-field plans, records
of Python terms (curves._make_plan) that curves._plan_value reads for ints
and arrays in one loop; the shifted-cubic functions read two of them at
parameters whose dlogs come from dlog a, dlog b through the Zech table.
"""

from __future__ import annotations

import numpy as np

from . import chars, hyperf, sums
from .curves import (_INT_TYPES, BLOCK_CELLS, _make_plan, _plan_value, _round_guarded,
                     _unit_dlogs, power_count_table)
from .field import TOL, FieldCtx, _as_int, require_congruence, zech_table


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _in_field(ctx: FieldCtx, *xs) -> bool:
    """Whether every x is an int (a numpy integer scalar included, a bool not)
    or a signed-int array, with entries in [0, q)."""
    return all(x.dtype.kind == "i" and (not x.size or 0 <= x.min() and x.max() < ctx.q)
               if isinstance(x, np.ndarray) else type(x) in _INT_TYPES and 0 <= x < ctx.q
               for x in xs)


def _dlogs(ctx: FieldCtx, *consts: int) -> list[int]:
    """Discrete logs of integer constants embedded in F_q."""
    return [ctx.dlog_of(ctx.embed(c)) for c in consts]


def _lennon_plan(ctx: FieldCtx) -> tuple:
    """Lennon's -q * T^(L/4)(a^3/27) * 2F1(T^(L/12), T^(5L/12); phi | -27 b^2
    / (4 a^3)), L = q-1, as a one-term plan."""
    L = ctx.q - 1
    l_neg, l4, l27 = _dlogs(ctx, -1, 4, 27)
    return _make_plan(ctx, [(-ctx.q, L // 4 * -l27, 3 * (L // 4), 0)],
                      (l_neg + l27 - l4, -3, 2), [((L // 12, 5 * L // 12), (L // 2,))])


def lennon_trace(ctx: FieldCtx, a, b):
    """Trace of Frobenius of y^2 = x^3 + a*x + b via the order-12 2F1 formula.

    Needs q = 1 mod 12 (else CongruenceError) and a, b != 0 (equivalently j
    not in {0, 1728}).  Equal-length int arrays a, b give an int64 array.
    """
    require_congruence(ctx, 12)
    plan = ctx.cached("lennon_plan", _lennon_plan, ctx)
    return _round_guarded(ctx, _plan_value(ctx, plan, *_unit_dlogs(ctx, a, b)))


def _e34_plan(ctx: FieldCtx) -> tuple:
    """The (3, 4) trace -T^(L/3)(3/b) * (1 + c1 * 4F3(...)) - T^(2L/3)(3/b)
    * (1 + c2 * 4F3(...)) at alpha = 256 b^3 / (27 a^4), L = q-1, as a
    four-term plan; c1 and c2, q^3 times two Greene binomials, take the
    factors T^(L/3)(3) and T^(2L/3)(3) * T^(2L/9)(-1) of the characters."""
    L, q3, three = ctx.q - 1, ctx.q**3, ctx.embed(3)
    l27, l256 = _dlogs(ctx, 27, 256)
    t = chars.mul_char
    c1 = (q3 * sums.greene_binom(ctx, 4 * L // 9, L // 3)
          * sums.greene_binom(ctx, L // 36, 5 * L // 36) * t(ctx, L // 3, three))
    c2 = (q3 * sums.greene_binom(ctx, 5 * L // 9, 2 * L // 3)
          * sums.greene_binom(ctx, 5 * L // 36, L // 36)
          * t(ctx, 2 * L // 9, ctx.minus_one()) * t(ctx, 2 * L // 3, three))
    upper = (L // 2, 0, L // 4, 3 * L // 4)
    return _make_plan(ctx, [(-c1, 0, 0, -L // 3), (-c2, 0, 0, -2 * L // 3),
                            (-1, 0, 0, -L // 3), (-1, 0, 0, -2 * L // 3)],
                      (l256 - l27, -4, 3), [(upper, (5 * L // 9, 2 * L // 9, 8 * L // 9)),
                                            (upper, (4 * L // 9, L // 9, 7 * L // 9))])


def e34_trace(ctx: FieldCtx, a, b):
    """Trace of Frobenius of y^3 = x^4 + a*x + b via two 4F3 series.

    Needs q = 1 mod 36 (else CongruenceError) and a, b != 0.  Equal-length
    int arrays a, b give an int64 array.
    """
    require_congruence(ctx, 36)
    plan = ctx.cached("e34_plan", _e34_plan, ctx)
    return _round_guarded(ctx, _plan_value(ctx, plan, *_unit_dlogs(ctx, a, b)))


# ---------------------------------------------------------------------------
# Twisted Edwards curves alpha*x^2 + y^2 = 1 + beta*x^2*y^2
# ---------------------------------------------------------------------------

def _edwards_classes(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(chi, two_k, s): chi[t] = counts[1 + g^t] - 1, the quadratic character
    of 1 + g^t (0 everywhere for even q), for t in [0, 2(q-1)), the index taken
    mod q-1, then q-1 entries of chi(1) = counts[1] - 1, where counts =
    power_count_table(ctx, 2); two_k = 2k mod q-1; s[x] = dlog(-x), and 2(q-1)
    at x = 0."""
    L = ctx.q - 1
    counts = power_count_table(ctx, 2)
    chi = counts[ctx.add_vec(1, ctx.exp)] - 1
    s = (ctx.dlog + ctx.dlog_of(ctx.minus_one())) % L
    s[0] = 2 * L
    return np.concatenate((chi, chi, np.full(L, counts[1] - 1))), 2 * np.arange(L) % L, s


def edwards_count_bruteforce(ctx: FieldCtx, alpha, beta):
    """Point count by square classes, one x at a time, in O(q).

    For fixed x the curve reads y^2 * u = w with u = 1 - beta*x^2 and
    w = 1 - alpha*x^2.  Where u != 0 there are counts[w * u] = 1 + chi(u) chi(w)
    solutions; at x = g^k, u = 1 + g^(s[beta] + 2k), so chi(u) is entry
    s[beta] + 2k of _edwards_classes' chi, and likewise chi(w).  The zero
    sentinel s[0] = 2(q-1) reads chi(1) there.  x = 0 adds counts[1].  A unit
    beta has u = 0 at counts[beta] units x, whose true count is q if alpha =
    beta (so w = 0) and 0 otherwise, against the 1 the sum gives; a zero beta
    has none.  Ints in [0, q) (numpy integer scalars too, not bools) give an
    int, and equal-length 1-D signed-int arrays of them an int64 array,
    BLOCK_CELLS cells at a time in one (3, rows, q-1) work array.
    """
    _require(_in_field(ctx, alpha, beta) and (
        type(alpha) in _INT_TYPES and type(beta) in _INT_TYPES
        or np.ndim(alpha) == 1 and np.shape(alpha) == np.shape(beta)),
        f"alpha, beta must be elements of F_{ctx.q} or equal-length 1-D arrays of them")
    L = ctx.q - 1
    chi, two_k, s = ctx.cached("edwards_classes", _edwards_classes, ctx)
    counts = power_count_table(ctx, 2)
    al, be = np.reshape(alpha, -1), np.reshape(beta, -1)
    s_alpha, s_beta = s[al], s[be]
    total = counts[1] + L + counts[be] * (ctx.q * (al == be) - 1) * (be != 0)
    step = max(1, BLOCK_CELLS // L)
    work = np.empty((3, min(step, total.size), L), dtype=np.int64)
    for i in range(0, total.size, step):
        idx, u, w = work[:, :min(step, total.size - i)]
        np.add(s_beta[i:i + step, None], two_k, out=idx)
        np.take(chi, idx, out=u, mode="clip")  # "clip" writes straight to out
        np.add(s_alpha[i:i + step, None], two_k, out=idx)
        np.take(chi, idx, out=w, mode="clip")
        u *= w
        total[i:i + step] += u.sum(axis=1)
    return total if isinstance(alpha, np.ndarray) else int(total[0])


def _edwards_plan(ctx: FieldCtx) -> tuple:
    """q * phi(-alpha) * 2F1(phi, phi; eps | beta/alpha), phi = T^(L/2) and
    L = q-1, as a one-term plan at (dlog alpha, dlog beta); needs odd q."""
    L = ctx.q - 1
    return _make_plan(ctx, [(ctx.q, L // 2 * ctx.dlog_of(ctx.minus_one()), L // 2, 0)],
                      (0, -1, 1), [((L // 2, L // 2), (0,))])


def edwards_count_formula(ctx: FieldCtx, alpha, beta):
    """Point count via q - 1 - phi(beta) - phi(alpha*beta) + q*phi(-alpha)*2F1.

    Equal-length int arrays alpha, beta give an int64 array of counts."""
    _require(ctx.q % 2 == 1, f"the Edwards count formula needs odd q, got q = {ctx.q}")
    la, lb = _unit_dlogs(ctx, alpha, beta, "alpha, beta")
    # phi(x) = 1 - 2 * (dlog x mod 2)
    total = ctx.q - 1 - (1 - 2 * (lb & 1)) - (1 - 2 * ((la + lb) & 1))
    plan = ctx.cached("edwards_plan", _edwards_plan, ctx)
    return _round_guarded(ctx, total + _plan_value(ctx, plan, la, lb))


# ---------------------------------------------------------------------------
# Shifted cubic y^2 = x^3 + a*x^2 + b*x
# ---------------------------------------------------------------------------

def _shifted_coeffs(ctx: FieldCtx, la, lb):
    """(dlog a', dlog b', nonzero) at dlog a, dlog b: x -> x - a/3 makes
    x^3 + a*x^2 + b*x into x^3 + a'*x + b' with a' = b * (1 - a^2/(3b)) and
    b' = -(ab/3) * (1 - 2a^2/(9b)); nonzero marks a', b' != 0 (elsewhere the
    dlogs are junk)."""
    L = ctx.q - 1
    zech = zech_table(ctx)
    l_neg, l2, l3 = _dlogs(ctx, -1, 2, 3)
    z_a = zech[(l_neg + 2 * la - lb - l3) % L]
    z_b = zech[(l_neg + l2 + 2 * la - lb - 2 * l3) % L]
    return (lb + z_a) % L, (l_neg + la + lb - l3 + z_b) % L, (z_a >= 0) & (z_b >= 0)


def cubic_count_bruteforce(ctx: FieldCtx, a, b):
    """Affine count of y^2 = x^3 + a*x^2 + b*x from the square class of the
    right side at every x, evaluated as written.  Equal-length int arrays a, b
    give an int64 array, BLOCK_CELLS cells at a time."""
    _require(_in_field(ctx, a, b) and np.size(a) == np.size(b),
             f"a, b must be elements of F_{ctx.q} or equal-length arrays of them")
    a2, b2 = np.reshape(a, (-1, 1)), np.reshape(b, (-1, 1))
    xs = np.arange(ctx.q, dtype=np.int64)
    x2, x3, counts = ctx.pow(xs, 2), ctx.pow(xs, 3), power_count_table(ctx, 2)
    step, total = max(1, BLOCK_CELLS // ctx.q), np.zeros(len(a2), dtype=np.int64)
    for i in range(0, len(a2), step):
        vals = ctx.add_vec(ctx.add_vec(x3, ctx.mul(a2[i:i + step], x2)),
                           ctx.mul(b2[i:i + step], xs))
        total[i:i + step] = counts[vals].sum(axis=1)
    return total if isinstance(a, np.ndarray) else int(total[0])


def shifted_cubic_count(ctx: FieldCtx, a, b):
    """Affine count of y^2 = x^3 + a*x^2 + b*x via the depressed-cubic 2F1:
    q minus Lennon's trace of y^2 = x^3 + a'*x + b', unrounded.  Needs
    q = 1 mod 12 and a, b, a', b' != 0.  Arrays a, b give an array."""
    require_congruence(ctx, 12)
    l_ap, l_bp, nonzero = _shifted_coeffs(ctx, *_unit_dlogs(ctx, a, b))
    _require(np.all(nonzero), "shifted curve is degenerate (a' or b' is zero)")
    plan = ctx.cached("lennon_plan", _lennon_plan, ctx)
    return _round_guarded(ctx, ctx.q - _plan_value(ctx, plan, l_ap, l_bp))


def _transform_params(ctx: FieldCtx, la, lb, branch):
    """(dlog a', dlog b', dlog alpha, dlog beta, admissible) at dlog a, dlog b
    (-1 for a zero element) and the branch, in one pass.  alpha, beta =
    a * (1 +- 2r/a), r the root g^(dlog b / 2) of b on branch 0 and -r on
    branch 1.  admissible marks a != 0, b a nonzero square, branch 0 or 1, and
    a', b', alpha, beta != 0; elsewhere the dlogs are junk.  ValueError for
    a branch that is not an int, a numpy integer (not a bool) or a signed-int
    array; needs q = 1 mod 12."""
    if isinstance(branch, np.ndarray):
        _require(branch.dtype.kind == "i", f"branch must be a signed-int array, got {branch!r}")
    else:
        branch = _as_int("branch", branch)
    require_congruence(ctx, 12)
    L = ctx.q - 1
    l_ap, l_bp, nonzero = _shifted_coeffs(ctx, la, lb)
    l_neg, l2 = _dlogs(ctx, -1, 2)
    l_2r_a = l2 + lb // 2 + branch * (L // 2) - la
    zech = zech_table(ctx)
    z_alpha, z_beta = zech[l_2r_a % L], zech[(l_neg + l_2r_a) % L]
    # dlog 0 = -1 is odd, so lb % 2 == 0 also excludes b = 0
    ok = ((la >= 0) & (lb % 2 == 0) & ((branch == 0) | (branch == 1)) & nonzero
          & (z_alpha >= 0) & (z_beta >= 0))
    return l_ap, l_bp, (la + z_alpha) % L, (la + z_beta) % L, ok


def cubic_transform_admissible(ctx: FieldCtx, a, b, branch=0):
    """Whether cubic_transform_check takes (a, b, branch): b a nonzero square,
    branch 0 or 1, and alpha, beta, a', b' nonzero (a = 0 makes b' zero).
    A bool array for equal-length int arrays.  ValueError unless every a, b
    is an element of F_q (0 included) and the branch is an int or a
    signed-int array; needs q = 1 mod 12."""
    _require(_in_field(ctx, a, b), f"a, b must be elements of F_{ctx.q}")
    return _transform_params(ctx, ctx.dlog[a], ctx.dlog[b], branch)[4]


def cubic_transform_check(ctx: FieldCtx, a, b, branch=0):
    """Quadratic-twist transformation between the shifted-cubic series and the
    Edwards-side 2F1, for one square-root branch r of b.

    Returns (formula, oracle, disc, match): the shifted-cubic series term
    q * T^(3L/4)(a'/3) * 2F1(T^(L/12), T^(5L/12); phi | -27 b'^2/(4 a'^3)),
    L = q-1, which is minus Lennon's trace at (a', b'); the real part of
    -phi(beta) + phi(a*b - 2*b*r) + q*phi(-alpha) * 2F1(phi, phi; eps | beta/alpha),
    alpha = a + 2r, beta = a - 2r; their distance; and whether it is within
    tolerance and the enumeration counts meet the bridge
    #C + 2 = #E + 3 + phi(a^2 - 4b) + phi(a*b - 2*b*r).
    Equal-length int arrays give arrays.  ValueError unless every entry is
    admissible (see cubic_transform_admissible).
    """
    L = ctx.q - 1
    la, lb = _unit_dlogs(ctx, a, b)
    l_ap, l_bp, l_alpha, l_beta, ok = _transform_params(ctx, la, lb, branch)
    _require(np.all(ok),
             "(a, b, branch) is not admissible: need b a nonzero square, branch 0 or 1, "
             "a != +-2*sqrt(b) and a', b' != 0")
    lhs = -_plan_value(ctx, ctx.cached("lennon_plan", _lennon_plan, ctx), l_ap, l_bp)
    roots = chars.unit_roots(ctx)
    # phi(x) = T^(L/2)(x); a*b - 2*b*r = b*beta and a^2 - 4b = alpha*beta
    rhs = (-roots[(L // 2 * l_beta) % L] + roots[(L // 2 * (lb + l_beta)) % L]
           + _plan_value(ctx, ctx.cached("edwards_plan", _edwards_plan, ctx), l_alpha, l_beta))
    disc = np.abs(lhs - rhs)
    n_edwards = edwards_count_bruteforce(ctx, ctx.exp[l_alpha], ctx.exp[l_beta])
    bridge = n_edwards + 3 + (1 - 2 * ((l_alpha + l_beta) & 1)) + (1 - 2 * ((lb + l_beta) & 1))
    match = (disc < TOL * ctx.q * ctx.q) & (cubic_count_bruteforce(ctx, a, b) + 2 == bridge)
    return lhs, rhs.real, disc, match


# ---------------------------------------------------------------------------
# 2F1 special values
# ---------------------------------------------------------------------------

def special_value_check(ctx: FieldCtx, which: str) -> sums.VerifyReport:
    """Closed-form 2F1 evaluations at 1/2 and at 1323/1331."""
    L = ctx.q - 1
    phi = L // 2 if ctx.q % 2 else None
    if which == "half":
        require_congruence(ctx, 4)
        lhs = hyperf.hf_eval(ctx, [phi, phi], [0], ctx.inv(ctx.embed(2)))
        rhs = chars.mul_char(ctx, phi, ctx.neg(ctx.embed(2))) * (
            sums.greene_binom(ctx, L // 4, phi) + sums.greene_binom(ctx, 3 * L // 4, phi)
        )
    elif which == "frac-1323-1331":
        require_congruence(ctx, 12)
        # 1323 = 3^3 7^2 and 1331 = 11^3: the argument must be neither 0 nor 1/0
        _require(ctx.embed(1323) != 0 and ctx.embed(1331) != 0, "p must avoid 3, 7 and 11")
        x = ctx.div(ctx.embed(1323), ctx.embed(1331))
        lhs = hyperf.hf_eval(ctx, [L // 12, 5 * L // 12], [phi], x)
        arg = ctx.div(ctx.embed(-44), ctx.embed(3))
        rhs = (
            chars.mul_char(ctx, L // 4, arg)
            * chars.mul_char(ctx, phi, ctx.embed(2))
            * (
                sums.greene_binom(ctx, L // 4, phi)
                + sums.greene_binom(ctx, 3 * L // 4, phi)
            )
        )
    else:
        raise ValueError(f"unknown special value {which!r}")
    return sums.VerifyReport(f"special-{which}", ctx.q, TOL * ctx.q, formula=complex(lhs),
                             oracle=rhs.real, disc=abs(lhs - rhs), cases=1)
