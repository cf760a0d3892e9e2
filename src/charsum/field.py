"""Finite field contexts F_q = F_{p^n} with exp/dlog tables and the absolute trace.

Elements are canonical integer indices: for n = 1 the representative in
[0, p); for n > 1 the base-p digit encoding of the coefficient vector
(c_0 + c_1*p + ... + c_{n-1}*p^{n-1}, constant term least significant).
All multiplicative structure is table-driven: a fixed canonical generator
g, an exp table g^k, and its inverse dlog table, so that characters and
character sums downstream are O(1) lookups per element.

Construction is F_p linear algebra over coefficient vectors.  For n > 1, t
acts as the companion matrix C of the modulus and c as sum_j c_j C^j; the
modulus and g are the first candidates to pass a test on matrix powers, 16
candidates per stack (prime fields find g with the builtin pow).  So g acts
as an n x n matrix, the coefficient vectors of all powers g^k come from
about log2(q) matrix products, and the trace, being F_p-linear, is the digit
table of all indices times the traces of the basis elements t^j, which are
the matrix traces of the C^j.  A context depends on (p, n) alone.

Every field operation is dlog arithmetic on those tables.  Products and
powers add and scale dlogs; sums use the Zech logarithms zech[t] =
dlog(1 + g^t), so that g^i + g^j = g^(i + zech[j - i]), the sum being 0
where zech reads -1; -x is g^(dlog x + dlog(-1)).  The Zech table is built
from exp alone, on first use: 1 + x adds 1 to the constant digit.  The
trace is a table read too.  So a context holds exp, dlog, the trace table
and, once built, zech: four int64 arrays of about q entries.
"""

from __future__ import annotations

import operator

import numpy as np

DEFAULT_SIZE_CAP = 65536
TOL = 1e-9  # absolute tolerance per summand; each guard scales it by its sum's size


class FieldError(ValueError):
    """Invalid field construction parameters."""


class CongruenceError(ValueError):
    """q does not satisfy the congruence a closed form requires."""


def require_congruence(ctx: FieldCtx, m: int):
    """Raise CongruenceError unless q = 1 mod m.  Callers with a cached plan
    check first, so that no plan is cached for a field that fails."""
    if (ctx.q - 1) % m:
        raise CongruenceError(f"q = {ctx.q} is not 1 mod {m}")


def zech_table(ctx: FieldCtx) -> np.ndarray:
    """The Zech logarithms zech[t] = dlog(1 + g^t) for t in [0, q-2], -1 at
    the one t where 1 + g^t = 0; cached on ctx, built from exp on the first
    call.  dlog(1 - g^m) is zech[m + dlog(-1)], index mod q-1."""
    return ctx.cached("zech", _zech, ctx)


def _zech(ctx: FieldCtx) -> np.ndarray:
    x, p = ctx.exp, ctx.p  # 1 + x adds 1 to the constant digit, the least significant
    return ctx.dlog[x - x % p + (x + 1) % p]


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# The modulus and generator searches, by F_p matrix powers.  Entries of a
# product stay exact in int64: n (p - 1)^2 < 2^63 for every n > 1 field.
# ---------------------------------------------------------------------------

_CHUNK = 16  # candidates per matrix stack


def _digit_rows(codes: np.ndarray, p: int, n: int) -> np.ndarray:
    """Base-p digits of each integer code, constant term first: shape (k, n)."""
    return codes[:, None] // p ** np.arange(n, dtype=np.int64) % p


def _matpow(A: np.ndarray, e: int, p: int) -> np.ndarray:
    """A^e mod p for a stack A of shape (..., n, n) and e >= 0."""
    R = np.broadcast_to(np.eye(A.shape[-1], dtype=np.int64), A.shape)
    while e:
        if e & 1:
            R = R @ A % p
        e >>= 1
        if e:
            A = A @ A % p
    return R


def _companion(p: int, lows: np.ndarray) -> np.ndarray:
    """Companion matrices of the monic t^n + sum_i lows[:, i] t^i: column j
    holds the coefficients of t * t^j."""
    k, n = lows.shape
    C = np.zeros((k, n, n), dtype=np.int64)
    C[:, 1:, :-1] = np.eye(n - 1, dtype=np.int64)
    C[:, :, -1] = -lows % p
    return C


def _is_identity(A: np.ndarray) -> np.ndarray:
    return (A == np.eye(A.shape[-1], dtype=np.int64)).all(axis=(-2, -1))


def _smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over F_p.

    Candidates are ordered by the coefficient tuple (a_{n-1}, ..., a_0),
    highest-degree coefficient most significant; that order coincides with
    integer order of the encoding sum(a_i * p^i).  Rabin's criterion on the
    companion matrix C: C^(p^n) = C, so that F_p[t]/f is a product of fields
    of orders p^k with k | n, and for each prime r | n the element
    t^(p^(n/r)) - t is a unit, i.e. (C^(p^(n/r)) - C)^(p^n - 1) = I.
    """
    q = p**n
    for start in range(0, q, _CHUNK):
        lows = _digit_rows(np.arange(start, min(start + _CHUNK, q), dtype=np.int64), p, n)
        C = _companion(p, lows)
        ok = (_matpow(C, q, p) == C).all(axis=(1, 2))
        for r in prime_factors(n):
            ok &= _is_identity(_matpow((_matpow(C, p ** (n // r), p) - C) % p, q - 1, p))
        if ok.any():
            return tuple(lows[ok.argmax()].tolist()) + (1,)
    raise FieldError(f"no irreducible polynomial of degree {n} over F_{p}")


def _find_generator(p: int, n: int, powers) -> tuple[int, np.ndarray]:
    """The first unit g in index order that generates F_q^*, and the matrix of
    x -> g*x.  For n > 1 a unit c acts as M_c = sum_j c_j C^j, read from the
    stack `powers` of the C^j, and c generates iff M_c^((q-1)/r) != I for every
    prime r | q-1.  The search starts at c = p: the codes below p are F_p,
    whose units have order dividing p - 1 < q - 1."""
    q = p**n
    factors = prime_factors(q - 1)
    if n == 1:
        g = next(c for c in range(1, p) if all(pow(c, (p - 1) // r, p) != 1 for r in factors))
        return g, np.array([[g]], dtype=np.int64)
    for start in range(p, q, _CHUNK):
        cands = np.arange(start, min(start + _CHUNK, q), dtype=np.int64)
        M = np.tensordot(_digit_rows(cands, p, n), powers, axes=1) % p
        ok = np.ones(len(cands), dtype=bool)
        for r in factors:
            ok &= ~_is_identity(_matpow(M, (q - 1) // r, p))
        if ok.any():
            return int(cands[ok.argmax()]), M[ok.argmax()]
    raise FieldError("no generator found")  # unreachable for a true field


# The package's one integer test: int and numpy's integer scalars, one per C
# type (every sized type is one of them), not bool; a set lookup on type(x).
_INT_TYPES = frozenset([int] + [np.dtype(c).type for c in "bhilqBHILQ"])


def _as_int(name: str, v) -> int:
    """v as a Python int if its type is in _INT_TYPES, else FieldError."""
    if type(v) in _INT_TYPES:
        return int(v)
    raise FieldError(f"{name} must be an integer, got {v!r}")


def _index(name: str, x):
    """x by _as_int unless an array: numpy unsigned scalars overflow mod p."""
    return x if isinstance(x, np.ndarray) else _as_int(name, x)


def _check_elements(ctx: FieldCtx, a, b, names: str = "a, b", low: int = 0, branch=0) -> bool:
    """Whether a and b are arrays, once checked by the one rule for curve
    parameters: both ints (_INT_TYPES) or both 1-D signed-int arrays of one
    length, every entry in [low, q) (low = 1 for units, 0 for any element);
    the branch any integer, an int or, beside arrays, a signed-int array of
    their length.  ValueError naming the bad argument otherwise."""
    if type(a) in _INT_TYPES and type(b) in _INT_TYPES:
        arrays, ok = False, low <= a < ctx.q and low <= b < ctx.q
    else:
        arrays, ok = True, (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.ndim == 1
            and a.shape == b.shape and a.dtype.kind == b.dtype.kind == "i"
            and (not a.size or low <= min(a.min(), b.min()) and max(a.max(), b.max()) < ctx.q))
    if not ok:
        raise ValueError(f"{names} must be {'nonzero ' if low else ''}elements of F_{ctx.q} "
                         "or equal-length 1-D signed-int arrays of them")
    if not (type(branch) in _INT_TYPES or arrays and isinstance(branch, np.ndarray)
            and branch.shape == a.shape and branch.dtype.kind == "i"):
        raise ValueError("branch must be an integer, or a signed-int array as long as arrays "
                         f"a, b, got {branch!r}")
    return arrays


def _gather(table: np.ndarray, x):
    """table[x] for a table over the q elements: a Python scalar for one
    element, which must be an integer (_INT_TYPES) in [0, q) (ValueError
    otherwise), and an array for an index array, whose entries are not checked."""
    if isinstance(x, np.ndarray):
        return table[x]
    if type(x) in _INT_TYPES and 0 <= x < len(table):
        return table.item(x)
    raise ValueError(f"element {x} is not an integer in [0, q) for q = {len(table)}")


class FieldCtx:
    """Immutable description of F_q with generator, dlog table, and trace.

    Attributes:
        p, n, q: characteristic, extension degree, order q = p^n.
        modulus: monic irreducible (coeff tuple, ascending) or None for n = 1.
        g: canonical generator index.
        exp: int64 array, exp[k] = index of g^k for k in [0, q-2].
        dlog: int64 array over all indices; dlog[0] = -1 sentinel.
        trace_tab: int64 array, absolute trace to F_p per index.

    Addition and negation are dlog arithmetic, as products are: sums read
    the Zech table of zech_table, cached through cached() on the first add.
    """

    def __init__(self, p: int, n: int, size_cap: int):
        p, n, size_cap = _as_int("p", p), _as_int("n", n), _as_int("size_cap", size_cap)
        if n < 1:
            raise FieldError(f"extension degree must be >= 1, got {n}")
        # The cap comes before the primality test, and p**n is formed only
        # when it is small: p >= 2, so n > size_cap.bit_length() alone
        # exceeds the cap.
        if p >= 2 and (p > size_cap or n > size_cap.bit_length() or p**n > size_cap):
            q = p if n == 1 else f"{p}^{n}"
            raise FieldError(f"q = {q} exceeds size cap {size_cap}")
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        q = p**n
        self.p, self.n, self.q = p, n, q
        self.modulus = None if n == 1 else _smallest_irreducible(p, n)
        # x -> t^j * x for j < n; F_p is F_p[t]/(t), where C = [[0]]
        C = _companion(p, np.array([(self.modulus or (0, 1))[:n]]))
        powers = np.concatenate([_matpow(C, j, p) for j in range(n)])
        self._pow_basis = [p**i for i in range(n)]
        self.g, M = _find_generator(p, n, powers)
        pow_basis = np.array(self._pow_basis, dtype=np.int64)
        self.exp, self.dlog = self._build_log_tables(M, pow_basis)
        self._dlog_neg1 = (q - 1) // 2 if p > 2 else 0  # -1 has order 2, or is 1
        # Digits of every index, narrow: the trace is linear in them.
        digits = np.empty((q, n), dtype=np.min_scalar_type(p - 1))
        v = np.arange(q, dtype=np.int64)
        for i in range(n):
            v, digits[:, i] = np.divmod(v, p)
        self.trace_tab = digits @ (np.trace(powers, axis1=1, axis2=2) % p) % p
        self._cache: dict = {}  # derived tables, written through cached()

    def cached(self, key, build, *args):
        """The derived table under `key`, built as build(*args) on the first
        call and made read-only (an ndarray, or each ndarray of a tuple; a
        tuple may also hold scalars and tuples, which are immutable already)."""
        value = self._cache.get(key)
        if value is None:
            value = build(*args)
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
            self._cache[key] = value
        return value

    # -- construction helpers -------------------------------------------------

    def _build_log_tables(self, M: np.ndarray, pow_basis: np.ndarray):
        """exp[k] = g^k and its inverse dlog, from the matrix M of x -> g*x.

        Column j of M holds the coefficients of g*t^j, so column k of V,
        the coefficient vector of g^k, is M^k e_0.  V is filled by doubling:
        V[:, s:2s] = M^s V[:, :s].  Prime fields take the same path with
        M = [[g]].
        """
        p, n, order = self.p, self.n, self.q - 1
        V = np.zeros((n, order), dtype=np.int64)
        V[0, 0] = 1
        s = 1
        while s < order:
            w = min(s, order - s)
            V[:, s:s + w] = (M @ V[:, :w]) % p
            M = (M @ M) % p
            s *= 2
        exp = pow_basis @ V
        dlog = np.full(self.q, -1, dtype=np.int64)
        dlog[exp] = np.arange(order, dtype=np.int64)
        if exp.min() < 1 or np.count_nonzero(dlog >= 0) != order:
            raise FieldError("powers of the generator miss some unit")
        return exp, dlog

    # -- element codec ---------------------------------------------------------

    def to_coeffs(self, x: int) -> tuple[int, ...]:
        """Digit decomposition (c_0, ..., c_{n-1}) of an element index or int array."""
        x, out = _index("element", x), []
        for _ in range(self.n):
            x, c = divmod(x, self.p)
            out.append(c)
        return tuple(out)

    def from_coeffs(self, coeffs) -> int:
        x = 0
        for c, b in zip(coeffs, self._pow_basis):
            x += (_index("coefficient", c) % self.p) * b
        return x

    def embed(self, k: int) -> int:
        """Embed an integer constant into the prime subfield."""
        return _index("constant", k) % self.p

    # -- arithmetic -------------------------------------------------------------
    # neg, mul, inv, div, pow and trace take elements, giving a Python int, or
    # int index arrays, giving an int64 array (mul and div broadcast); add and
    # sub take elements, add_vec index arrays.  An element that is not an
    # integer (_INT_TYPES) in [0, q) raises ValueError (in dlog_of and
    # sqrt_canonical too), index array entries are not checked, and pow's
    # exponent is an integer by _as_int.
    # Curve routes check (a, b) whole by _check_elements: both ints or
    # equal-length 1-D signed-int arrays, in [1, q) for units, else [0, q).

    def add(self, x: int, y: int) -> int:
        """x + y = g^(i + zech[j - i]) for x = g^i, y = g^j; a zero operand
        gives the other."""
        i, j = _gather(self.dlog, x), _gather(self.dlog, y)  # checks x and y
        if i < 0 or j < 0:
            return operator.index(y if i < 0 else x)
        z = zech_table(self).item((j - i) % (self.q - 1))
        return self._exp_unless(i + z, z < 0)

    def add_vec(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Elementwise sum of reduced indices in [0, q), broadcast, as add
        reads it; at least one an array."""
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        i, j = self.dlog[xs], self.dlog[ys]
        z = zech_table(self)[(j - i) % (self.q - 1)]
        return np.where(i < 0, ys, np.where(j < 0, xs, self._exp_unless(i + z, z < 0)))

    def neg(self, x):
        return self._exp_unless(_gather(self.dlog, x) + self._dlog_neg1, x == 0)

    def sub(self, x: int, y: int) -> int:
        """x - y, as x + (-y)."""
        return self.add(x, self.neg(y))

    def _exp_unless(self, k, zero):
        """g^k (k taken mod q-1), 0 where `zero` holds."""
        k %= self.q - 1
        if isinstance(k, np.ndarray):
            return np.where(zero, 0, self.exp[k])
        return 0 if zero else self.exp.item(k)

    def mul(self, x, y):
        return self._exp_unless(_gather(self.dlog, x) + _gather(self.dlog, y),
                                (x == 0) | (y == 0))

    def inv(self, x):
        return self.pow(x, -1)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def pow(self, x, e: int):
        """x^e for an integer e (by _as_int): 0^0 = 1, and 0^e for e < 0 raises."""
        e, k, zero = _as_int("exponent", e), _gather(self.dlog, x), x == 0
        # np.any would cost microseconds on a Python bool
        if e < 0 and (zero.any() if isinstance(zero, np.ndarray) else zero):
            raise ZeroDivisionError("inversion of zero")
        return self._exp_unless(k * (e % (self.q - 1)), zero & (e != 0))

    def dlog_of(self, x: int) -> int:
        """Discrete log base g; g^result = x. Raises on x = 0."""
        k = _gather(self.dlog, x)  # checks x, 0 included
        if x == 0:
            raise ZeroDivisionError("dlog of zero")
        return k

    def trace(self, x):
        """Absolute trace to F_p: x + x^p + ... + x^(p^(n-1))."""
        return _gather(self.trace_tab, x)

    # -- iteration / misc --------------------------------------------------------

    def elements(self):
        return range(self.q)

    def units(self):
        """Nonzero elements in canonical index order."""
        return range(1, self.q)

    def minus_one(self) -> int:
        return self.neg(1)

    def sqrt_canonical(self, x: int) -> int:
        """Square root with dlog in [0, (q-1)/2), i.e. half the dlog of x.

        Deterministic branch choice; the other root is its negation.
        Requires odd q and a square x.
        """
        if self.q % 2 == 0:
            raise FieldError("canonical square root needs odd q")
        k = _gather(self.dlog, x)  # checks x, 0 included
        if x == 0:
            return 0
        if k % 2:
            raise ValueError(f"element {x} is not a square")
        return int(self.exp[k // 2])

    def __repr__(self):
        if self.n == 1:
            return f"FieldCtx(q={self.q})"
        return f"FieldCtx(q={self.p}^{self.n}, modulus={self.modulus})"


def make_field(p: int, n: int = 1, size_cap: int = DEFAULT_SIZE_CAP) -> FieldCtx:
    """Construct F_{p^n} with deterministic generator and modulus choices."""
    return FieldCtx(p, n, size_cap)


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, n) with q = p^n, or raise FieldError."""
    factors = prime_factors(q)
    if q < 2 or len(factors) != 1:
        raise FieldError(f"q = {q} is not a prime power")
    p, n = factors[0], 0
    while q > 1:
        q //= p
        n += 1
    return p, n
