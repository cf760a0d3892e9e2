"""Command-line driver: point-count verification, identity suites, and evaluation.

A field is --q, or --p with an optional --n (default 1), never both; its
size cap is CHARSUM_SIZE_CAP.  Exit codes: 0 all reports match, 1 at least
one mismatch, 2 invalid input (CliError or ValueError, a field's unmet
congruence included), 141 (128 + SIGPIPE) the reader closed stdout early, as
`| head` does, and nothing more was written.  JSON output is line-delimited
with the fixed key set {q, e, d, a, b, formula_re, formula_im, oracle, match,
disc, ms}; verify streams add a leading "case" key naming the checked
identity/config.  CSV uses the same columns in the same order.  The "table"
format is for humans and not schema-stable.  A verify suite is one entry of
_SUITE_RUNNERS.
`count` and the lennon, e34 and edwards suites run through _block_suite, and
cubic-transform has its own blocks: _BLOCK_ROWS pairs or candidates, whatever
q is, in int64 arrays from the draw to the text, one array call of the oracle
and of the closed form per block, and a block's rows written at once; such a
row's ms is its block's wall time over its rows, any other row's ms the wall
time of the step that made it.  The oracle column of count, lennon and e34
is count_bruteforce of the row's canonical torus orbit member: the count is
the same on each of the L * gcd(L, e(d-1), de) orbits of
(a, b) -> (a*u^(e-de), b*u^(-de)), L = q - 1, and _orbit_counts counts each
orbit once per command, so a later block's ms may be smaller than the
first's.  Seeded pairs are the randrange(1, q) stream
of random.Random(seed), drawn in bulk; that rests on CPython's getrandbits
word order, which tests/test_cli.py pins on every Python that CI runs."""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import random
import sys
import time
from functools import cache, partial

import numpy as np

from . import apps, curves, hyperf, sums
from .field import DEFAULT_SIZE_CAP, FieldError, factor_prime_power, make_field

_COLUMNS = ["q", "e", "d", "a", "b", "formula_re", "formula_im", "oracle", "match", "disc", "ms"]
# (a, b) pairs or cubic-transform candidates per block.  Each block pays one
# closed-form call, one guard and one row write; the oracles cut a block into
# chunks of curves.BLOCK_CELLS cells themselves.
_BLOCK_ROWS = 1024


class CliError(Exception):
    """Invalid command-line input (exit code 2)."""


def _build_field(args):
    text = os.environ.get("CHARSUM_SIZE_CAP")
    try:
        size_cap = DEFAULT_SIZE_CAP if text is None else int(text)
    except ValueError:
        raise CliError(f"CHARSUM_SIZE_CAP must be an integer, got {text!r}") from None
    if args.q is not None:
        if args.p is not None or args.n is not None:
            raise CliError("--q conflicts with --p/--n; give one of them")
        if args.q > size_cap:  # before factoring, which trial-divides up to sqrt(q)
            raise FieldError(f"q = {args.q} exceeds size cap {size_cap}")
        p, n = factor_prime_power(args.q)
    elif args.p is None:
        raise CliError("need --q or --p (with optional --n)")
    else:
        p, n = args.p, 1 if args.n is None else args.n
    return make_field(p, n, size_cap=size_cap)


def _parse_element(ctx, text: str, label: str) -> int:
    try:
        coeffs = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise CliError(f"bad element literal for {label}: {text!r}") from exc
    if ctx.n == 1:
        if len(coeffs) != 1:
            raise CliError(f"{label} must be a single residue for a prime field")
        return coeffs[0] % ctx.p
    if len(coeffs) > ctx.n:
        raise CliError(f"{label} has more than {ctx.n} coefficients")
    return ctx.from_coeffs(coeffs + [0] * (ctx.n - len(coeffs)))


def _parse_exponents(text: str, label: str) -> list[int]:
    """Comma-separated integers; "" is the empty list (the lower list of 1F0)."""
    try:
        return [int(part) for part in text.split(",")] if text else []
    except ValueError as exc:
        raise CliError(f"bad exponent list for {label}: {text!r}") from exc


def _row_count(row: dict) -> int:
    """Rows a row dict stands for: the length of its list values, else 1."""
    return next((len(v) for v in row.values() if isinstance(v, list)), 1)


_JSON_KEYS = {key: json.dumps(key) + ": " for key in ("case", *_COLUMNS)}


def _json_lines(row: dict) -> str:
    """The JSON lines of the rows a row dict stands for, each the text
    json.dumps gives it.

    One json.dumps writes the shared numbers, booleans and nulls and every
    (nonempty) list: none of their texts holds "[", "]" or ", ", so splitting
    there gives each entry's text.  Strings, which may, are written alone.
    The fixed text, cut at each list value, is repeated once per row, each
    list's entry texts are slice-assigned into the gaps, and one join writes it.
    """
    lists = [v for v in row.values() if isinstance(v, list)]
    if not lists:
        return json.dumps(row) + "\n"
    shared = [v for v in row.values() if not isinstance(v, (list, str))]
    texts = [t.split(", ") for t in json.dumps([shared, *lists])[2:-2].split("], [")]
    shared_texts = iter(texts[0])
    pieces = ("{" + ", ".join(_JSON_KEYS[key] + (
        "\0" if isinstance(v, list) else  # a character no json.dumps text holds
        json.dumps(v) if isinstance(v, str) else next(shared_texts))
        for key, v in row.items()) + "}\n").split("\0")
    out = [text for piece in pieces for text in (piece, None)][:-1] * len(lists[0])
    for i, entries in enumerate(texts[1:]):
        out[2 * i + 1::2 * len(pieces) - 1] = entries
    return "".join(out)


class _Emitter:
    """Serializes report rows in a fixed, deterministic column order.

    A row dict may stand for a block of rows: each list value gives one entry
    per row, and every other value is shared by all of them.  A block is
    written with one stream.write (JSON, table) or one writerows (CSV).
    """

    def __init__(self, fmt: str, stream):
        self.fmt = fmt
        self.stream = stream
        self._csv = None
        self._wrote_header = False
        self.all_match = True

    def emit(self, row: dict, case: str | None = None):
        match = row.get("match", False)
        if not (all(match) if isinstance(match, list) else match):
            self.all_match = False
        ordered = {}
        if case is not None:
            ordered["case"] = case
        for key in _COLUMNS:
            ordered[key] = row.get(key)
        if self.fmt == "json":
            self.stream.write(_json_lines(ordered))
            return
        rows = _row_count(ordered)
        lines = list(zip(*(v if isinstance(v, list) else itertools.repeat(v, rows)
                           for v in ordered.values())))
        if self.fmt == "csv":
            if self._csv is None:
                self._csv = csv.writer(self.stream)
            if not self._wrote_header:
                self._csv.writerow(ordered.keys())
                self._wrote_header = True
            self._csv.writerows(lines)
        else:  # table
            text = []
            if not self._wrote_header:
                text.append("  ".join(f"{k:>11}" for k in ordered) + "\n")
                self._wrote_header = True
            text.extend("  ".join(f"{v:>11.4g}" if isinstance(v, float) else f"{str(v):>11}"
                                  for v in line) + "\n" for line in lines)
            self.stream.write("".join(text))


def _emit_timed(emitter: _Emitter, rows) -> None:
    """Emit each (case, row) of the iterable `rows`, the row's ms being the
    wall time of the step that produced it over the rows it stands for; the
    emitting is outside the timed step."""
    rows = iter(rows)
    while True:
        t0 = time.perf_counter()
        try:
            case, row = next(rows)
        except StopIteration:
            return
        row["ms"] = (time.perf_counter() - t0) * 1e3 / _row_count(row)
        emitter.emit(row, case=case)


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def _random_unit_pairs(q, rng, count, distinct=False):
    """The first count pairs of rng.randrange(1, q) (a != b if distinct), in
    (a, b) blocks.  randrange(1, q) is 1 + the first getrandbits(k) below
    q - 1, k = (q-1).bit_length(), which is one 32-bit word >> (32 - k), and
    getrandbits(32*m) gives m words, the first drawn least significant.
    Raises ValueError for count > 0 distinct pairs at q < 3, whose only unit
    pair is (1, 1)."""
    if distinct and count and q < 3:
        raise ValueError(f"no distinct pair of units at q = {q}")
    shift, size = 32 - (q - 1).bit_length(), 16 * _BLOCK_ROWS  # 4 words a row, half or more kept
    units, pairs = np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.int64)
    while count:
        rows = min(_BLOCK_ROWS, count)
        while len(pairs) < rows:
            w = np.frombuffer(rng.getrandbits(8 * size).to_bytes(size, "little"), "<u4") >> shift
            units = np.concatenate([units, w[w < q - 1] + 1])
            new, units = units[:len(units) & -2].reshape(-1, 2), units[len(units) & -2:]
            pairs = np.concatenate([pairs, new[new[:, 0] != new[:, 1]] if distinct else new])
        yield pairs[:rows, 0], pairs[:rows, 1]
        pairs, count = pairs[rows:], count - rows


def _count_cases(ctx, args):
    chosen = [name for name, given in (
        ("--sweep", args.sweep),
        ("--random", args.random is not None),
        ("--a/--b", args.a is not None or args.b is not None),
    ) if given]
    if len(chosen) > 1:
        raise CliError(f"{' and '.join(chosen)} conflict; choose one way to pick (a, b)")
    if args.sweep:
        L = ctx.q - 1
        for i in range(0, L * L, _BLOCK_ROWS):
            k = np.arange(i, min(i + _BLOCK_ROWS, L * L), dtype=np.int64)
            yield 1 + k // L, 1 + k % L
    elif args.random is not None:
        yield from _random_unit_pairs(ctx.q, random.Random(args.seed), args.random)
    else:
        if args.a is None or args.b is None:
            raise CliError("need --a and --b (or --sweep / --random N)")
        a = _parse_element(ctx, args.a, "--a")
        b = _parse_element(ctx, args.b, "--b")
        if a == 0 or b == 0:
            raise CliError("a and b must be nonzero")
        yield np.array([a], dtype=np.int64), np.array([b], dtype=np.int64)


def _refused_as_nan(formula, a: int, b: int) -> float:
    try:
        return float(formula(a, b))
    except curves.RoundingGuardError:
        return float("nan")


def _block_rows(ctx, blocks, oracle, formula, e=None, d=None):
    """The row dict of each (a, b) block, with list values: one oracle(a, b)
    and one formula(a, b) call per block.  A block the rounding guard refuses
    is evaluated again one pair at a time, so only failing rows read NaN."""
    for a, b in blocks:
        counts = oracle(a, b)
        try:
            values = formula(a, b).astype(np.float64)
        except curves.RoundingGuardError:
            values = np.array([_refused_as_nan(formula, *ab) for ab in np.c_[a, b].tolist()])
        disc = np.abs(values - counts)
        disc[np.isnan(disc)] = np.inf
        yield {"q": ctx.q, "e": e, "d": d, "a": a.tolist(), "b": b.tolist(),
               "formula_re": values.tolist(), "formula_im": 0.0, "oracle": counts.tolist(),
               "match": (disc == 0.0).tolist(), "disc": disc.tolist()}


def _block_suite(ctx, label, blocks, oracle, formula, e=None, d=None):
    """(label, row) for each block of _block_rows over the (a, b) blocks.  Not
    a generator: both routes run on an empty block first, which builds every
    table they read (and raises what they raise for the field) outside any
    block's ms."""
    empty = np.empty(0, dtype=np.int64)
    formula(empty, empty)
    oracle(empty, empty)
    return ((label, row) for row in _block_rows(ctx, blocks, oracle, formula, e, d))


def _orbit_counts(ctx, e, d):
    """The oracle of the (e, d) family for one command run: count_bruteforce
    of each (a, b) row's canonical torus orbit member (curves.torus_orbits),
    equal to the row's own count.  A memo indexed by orbit key holds each
    count once made, so a block makes one count_bruteforce call, on its
    orbits not yet counted (none at all still calls it), and gathers its
    column from the memo.  The memo's L * gcd(L, e(d-1), de) entries, L =
    q - 1, are allocated on the first call, which _block_suite makes after
    the closed form's: for count the congruence e*d*(d-1) | q-1 then holds,
    so there are L * e of them, a size the plan's e - 1 series tables of L
    values each already reach (lennon and e34 have at most 3L)."""
    L, memo = ctx.q - 1, None

    def counts(a, b):
        nonlocal memo
        if memo is None:
            memo = np.full(L * math.gcd(L, e * (d - 1), d * e), -1, dtype=np.int64)
        key, la0, lb0 = curves.torus_orbits(L, e, d, ctx.dlog[a], ctx.dlog[b])
        new = np.flatnonzero(memo[key] < 0)
        new = new[np.unique(key[new], return_index=True)[1]]
        memo[key[new]] = curves.count_bruteforce(
            curves.CurveSpec(ctx, e, d, ctx.exp[la0[new]], ctx.exp[lb0[new]]))
        return memo[key]

    return counts


def cmd_count(args, emitter: _Emitter) -> None:
    ctx = _build_field(args)
    e, d = args.e, args.d
    _emit_timed(emitter, _block_suite(
        ctx, None, _count_cases(ctx, args), _orbit_counts(ctx, e, d),
        lambda a, b: curves.count_theorem(curves.CurveSpec(ctx, e, d, a, b)), e, d))


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _identity_suite(names, ctx, args):
    """(name, row) of verify_identity for each named identity."""
    for name in names:
        yield name, sums.verify_identity(ctx, name, seed=args.seed).to_row()


def _suite_davenport_hasse(ctx, args):
    if args.d is None:
        raise CliError("davenport-hasse needs --d")
    for t in (1, -1):
        yield f"davenport-hasse(t={t})", sums.davenport_hasse(ctx, args.d, t=t).to_row()


def _suite_special_values(ctx, args):
    ran = 0
    for which in ("half", "frac-1323-1331"):
        try:
            report = apps.special_value_check(ctx, which)
        except ValueError:
            continue
        ran += 1
        yield f"special-{which}", report.to_row()
    if not ran:
        raise CliError(f"no special-value identity is admissible at q = {ctx.q}")


def _suite_cubic_transform(ctx, args):
    """(case list, row) per block, as _cubic_transform_blocks gives them.  Not
    a generator, so the field's checks and tables come before the first block
    is timed."""
    empty = np.empty(0, dtype=np.int64)
    apps.cubic_transform_check(ctx, empty, empty)
    return _cubic_transform_blocks(ctx)


def _cubic_transform_blocks(ctx):
    """One (case list, row) per block of admissible (a, b, branch), found
    among _BLOCK_ROWS candidates at a time in (b, a, branch) order; one array
    call of apps.cubic_transform_check per block."""
    L = ctx.q - 1
    for i in range(0, 2 * L * L, _BLOCK_ROWS):
        k = np.arange(i, min(i + _BLOCK_ROWS, 2 * L * L), dtype=np.int64)
        b, a, branch = 1 + k // (2 * L), 1 + k // 2 % L, k % 2
        keep = apps.cubic_transform_admissible(ctx, a, b, branch)
        if keep.any():
            a, b, branch = a[keep], b[keep], branch[keep]
            formula, oracle, disc, match = apps.cubic_transform_check(ctx, a, b, branch)
            yield ([f"cubic-transform(branch={t})" for t in branch.tolist()],
                   {"q": ctx.q, "a": a.tolist(), "b": b.tolist(),
                    "formula_re": formula.real.tolist(), "formula_im": formula.imag.tolist(),
                    "oracle": oracle.tolist(), "match": match.tolist(), "disc": disc.tolist()})


def _pairs_suite(label, oracle, formula, e, d, ctx, args, distinct=False):
    """_block_suite over args.count seeded random unit pairs (a != b if
    distinct), with the routes oracle(ctx)(a, b) and formula(ctx, a, b)."""
    pairs = _random_unit_pairs(ctx.q, random.Random(args.seed), args.count, distinct)
    return _block_suite(ctx, label, pairs, oracle(ctx), lambda a, b: formula(ctx, a, b), e, d)


def _trace_oracle(e, d, ctx):
    """q minus the brute-force count of y^e = x^d + a*x + b, one count per
    torus orbit (_orbit_counts)."""
    counts = _orbit_counts(ctx, e, d)
    return lambda a, b: ctx.q - counts(a, b)


# Each suite is one runner(ctx, args) of (case, row) pairs.  The apps routes
# are looked up when a suite runs, not when this table is built.
_SUITE_RUNNERS = {
    "lemmas": partial(_identity_suite, sums.IDENTITY_NAMES),
    "davenport-hasse": _suite_davenport_hasse,
    "binom-props": partial(_identity_suite, (
        "binom-translate", "binom-absorb", "binom-complement", "binom-transpose")),
    "special-values": _suite_special_values,
    "cubic-transform": _suite_cubic_transform,
    # the closed form does not cover alpha == beta (series argument 1), so the
    # pairs are off-diagonal.  At even q (at q = 2 there is no such pair) it
    # refuses the field on the empty block, before any pair is drawn.
    "edwards": partial(_pairs_suite, "edwards",
                       lambda ctx: partial(apps.edwards_count_bruteforce, ctx),
                       lambda ctx, a, b: apps.edwards_count_formula(ctx, a, b),
                       None, None, distinct=True),
    "lennon": partial(_pairs_suite, "lennon", partial(_trace_oracle, 2, 3),
                      lambda ctx, a, b: apps.lennon_trace(ctx, a, b), 2, 3),
    "e34": partial(_pairs_suite, "e34", partial(_trace_oracle, 3, 4),
                   lambda ctx, a, b: apps.e34_trace(ctx, a, b), 3, 4),
}


def cmd_verify(args, emitter: _Emitter) -> None:
    if args.suite not in _SUITE_RUNNERS:
        raise CliError(f"unknown suite {args.suite!r}; known: {', '.join(_SUITE_RUNNERS)}")
    _emit_timed(emitter, _SUITE_RUNNERS[args.suite](_build_field(args), args))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _format_value(value: complex) -> str:
    if abs(value.imag) < 1e-12:
        return f"{value.real:.12g}"
    return f"{value.real:.12g}{value.imag:+.12g}j"


def cmd_eval(args, emitter: _Emitter) -> None:
    ctx = _build_field(args)
    if args.what == "gauss":
        if args.m is None:
            raise CliError("eval gauss needs --m")
        value = sums.gauss_sum(ctx, args.m)
    elif args.what == "jacobi":
        if args.exps is None:
            raise CliError("eval jacobi needs --exps m1,m2,...")
        exps = _parse_exponents(args.exps, "--exps")
        value = sums.jacobi_sum(ctx, *exps) if len(exps) == 2 else sums.jacobi_multi(ctx, exps)
    elif args.what == "binom":
        if args.top is None or args.bottom is None:
            raise CliError("eval binom needs --top and --bottom")
        value = sums.greene_binom(ctx, args.top, args.bottom)
    elif args.what == "hf":
        if args.upper is None or args.lower is None or args.x is None:
            raise CliError("eval hf needs --upper, --lower and --x")
        upper = _parse_exponents(args.upper, "--upper")
        lower = _parse_exponents(args.lower, "--lower")
        value = hyperf.hf_eval(ctx, upper, lower, _parse_element(ctx, args.x, "--x"))
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown eval target {args.what!r}")
    if args.format == "json":
        print(json.dumps({"value_re": value.real, "value_im": value.imag}))
    else:
        print(_format_value(value))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _count_arg(text: str) -> int:
    """A sample or row count: an integer >= 0 (argparse exits 2 otherwise)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"need an integer >= 0, got {value}")
    return value


def _add_field_args(parser):
    parser.add_argument("--q", type=int, help="field size (prime power)")
    parser.add_argument("--p", type=int, help="characteristic (alternative to --q)")
    parser.add_argument("--n", type=int, help="extension degree (with --p; default 1)")
    parser.add_argument("--format", choices=("json", "csv", "table"), default="table")
    parser.add_argument("--seed", type=int, default=0, help="seed for random sweeps")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every main call, built once per process.  It holds no
    command function: main looks each up when it runs, so rebinding a cmd_*
    function (as a tracer does) takes effect."""
    parser = argparse.ArgumentParser(
        prog="charsum",
        description="Finite-field character sums, hypergeometric series, and "
        "curve point-count verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="compare closed-form and brute-force counts")
    _add_field_args(p_count)
    p_count.add_argument("--e", type=int, required=True)
    p_count.add_argument("--d", type=int, required=True)
    p_count.add_argument("--a", type=str, help="element literal")
    p_count.add_argument("--b", type=str, help="element literal")
    p_count.add_argument("--sweep", action="store_true", help="all (a, b) pairs")
    p_count.add_argument("--random", type=_count_arg, metavar="N",
                         help="N seeded random (a, b) pairs")

    p_verify = sub.add_parser("verify", help="run an identity/formula suite")
    _add_field_args(p_verify)
    p_verify.add_argument("--suite", required=True,
                          help=f"one of: {', '.join(_SUITE_RUNNERS)}")
    p_verify.add_argument("--d", type=int, default=None,
                          help="section order for davenport-hasse")
    p_verify.add_argument("--count", type=_count_arg, default=100,
                          help="sample size for randomized suites")

    p_eval = sub.add_parser("eval", help="evaluate one sum/series value")
    p_eval.add_argument("what", choices=("gauss", "jacobi", "binom", "hf"))
    _add_field_args(p_eval)
    p_eval.add_argument("--m", type=int, help="character exponent (gauss)")
    p_eval.add_argument("--exps", type=str, help="exponent list (jacobi)")
    p_eval.add_argument("--top", type=int, help="top exponent (binom)")
    p_eval.add_argument("--bottom", type=int, help="bottom exponent (binom)")
    p_eval.add_argument("--upper", type=str, help="upper exponent list (hf)")
    p_eval.add_argument("--lower", type=str, help="lower exponent list (hf)")
    p_eval.add_argument("--x", type=str, help="series argument element (hf)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command = {"count": cmd_count, "verify": cmd_verify, "eval": cmd_eval}[args.command]
    emitter = _Emitter(args.format, sys.stdout)
    try:
        command(args, emitter)
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's exit
    except (CliError, ValueError) as exc:  # FieldError and CongruenceError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except io.UnsupportedOperation:  # an in-memory stream
            pass
        else:  # the interpreter's final flush goes to devnull, not the closed pipe
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141
    return 0 if emitter.all_match else 1


if __name__ == "__main__":
    sys.exit(main())
