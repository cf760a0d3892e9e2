"""CLI behavior: formats, exit codes, determinism, env overrides."""

import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

import charsum
from charsum import apps, cli, curves, hyperf, sums


def run_cli(argv):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    return code, out.getvalue()


def test_count_single_json():
    code, out = run_cli(
        ["count", "--q", "13", "--e", "2", "--d", "3", "--a", "1", "--b", "1",
         "--format", "json"]
    )
    assert code == 0
    row = json.loads(out.strip())
    assert row["match"] is True
    assert row["oracle"] == 17
    assert row["formula_re"] == 17.0
    assert set(row) == {"q", "e", "d", "a", "b", "formula_re", "formula_im",
                        "oracle", "match", "disc", "ms"}


def test_count_sweep_csv_row_count():
    code, out = run_cli(
        ["count", "--q", "13", "--e", "2", "--d", "3", "--sweep", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,e,d,a,b,formula_re,formula_im,oracle,match,disc,ms"
    assert len(lines) - 1 == 144
    assert all(",True," in line for line in lines[1:])


def test_count_random_seeded():
    code, out = run_cli(
        ["count", "--q", "37", "--e", "3", "--d", "4", "--random", "5",
         "--seed", "9", "--format", "json"]
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 5


_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "count_golden.json")


def test_count_rows_match_golden():
    # seeded count rows are exact integers: every column but ms must repeat
    with open(_GOLDEN) as fh:
        golden = json.load(fh)
    assert len(golden) == 5
    for argv, want in golden.items():
        code, out = run_cli(argv.split() + ["--format", "json"])
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        for row in rows:
            del row["ms"]
        assert rows == want, argv


_CUBIC_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cubic_transform_golden.json")


def test_cubic_transform_rows_match_golden():
    # the series side is floating point: exact columns repeat, float columns to 1e-12
    with open(_CUBIC_GOLDEN) as fh:
        golden = json.load(fh)
    assert [len(rows) for rows in golden.values()] == [96, 432]
    for argv, want in golden.items():
        code, out = run_cli(argv.split() + ["--format", "json"])
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == len(want), argv
        for row, ref in zip(rows, want):
            del row["ms"]
            assert row.keys() == ref.keys()
            for key in ("case", "q", "e", "d", "a", "b", "match"):
                assert row[key] == ref[key], (argv, ref)
            for key in ("formula_re", "formula_im", "oracle", "disc"):
                assert abs(row[key] - ref[key]) <= 1e-12, (argv, ref, key)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--q", "13", "--e", "3", "--d", "4", "--a", "1", "--b", "1"],
        ["verify", "--suite", "lennon", "--q", "17"],
        ["verify", "--suite", "e34", "--q", "13"],
        ["verify", "--suite", "cubic-transform", "--q", "17"],
        ["verify", "--suite", "davenport-hasse", "--q", "13", "--d", "5"],
    ],
    ids=["count", "lennon", "e34", "cubic-transform", "davenport-hasse"],
)
def test_congruence_errors_exit_2(argv, capsys):
    # the library's CongruenceError, a ValueError, reaches main's exit-2 handler
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert "is not 1 mod" in capsys.readouterr().err


def test_count_invalid_q_exits_2():
    code, _ = run_cli(["count", "--q", "14", "--e", "2", "--d", "3",
                       "--a", "1", "--b", "1"])
    assert code == 2


def test_count_congruence_violation_exits_2():
    code, _ = run_cli(["count", "--q", "13", "--e", "3", "--d", "4",
                       "--a", "1", "--b", "1"])
    assert code == 2


@pytest.mark.parametrize("e,d,msg", [("0", "3", "need e >= 1"), ("2", "1", "need d >= 2")],
                         ids=["e0", "d1"])
def test_count_bad_family_exits_2(e, d, msg, capsys):
    # CurveSpec refuses the family while the tables are built, before any row
    code, out = run_cli(["count", "--q", "13", "--e", e, "--d", d, "--a", "1", "--b", "1"])
    assert code == 2 and out == ""
    assert msg in capsys.readouterr().err


def test_count_missing_ab_exits_2():
    code, _ = run_cli(["count", "--q", "13", "--e", "2", "--d", "3"])
    assert code == 2


def test_verify_lemmas_all_pass():
    code, out = run_cli(["verify", "--suite", "lemmas", "--q", "13",
                         "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert all(row["match"] for row in rows)
    cases = {row["case"] for row in rows}
    assert "gauss-reflection" in cases and "theta-delta" in cases


@pytest.mark.parametrize("q", ["2", "3"])
def test_verify_lemmas_smallest_fields(q):
    # q = 2 has no nontrivial character and q = 3 has exactly one
    code, out = run_cli(["verify", "--suite", "lemmas", "--q", q, "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["case"] for row in rows] == list(sums.IDENTITY_NAMES)
    # oracle is written as a float also where no case has a nonzero
    # discrepancy, as in every grid at q = 2 but the last two
    assert all(type(row["oracle"]) is float for row in rows), rows
    if q == "2":
        assert [row["oracle"] for row in rows] == [0.0] * 9 + [-1.0, 0.0]
        zero = {"formula_re": 0.0, "formula_im": 0.0, "match": True, "disc": 0.0}
        assert all(row.items() >= zero.items() for row in rows[:9]), rows


def test_verify_unknown_suite_exits_2():
    code, _ = run_cli(["verify", "--suite", "unknown", "--q", "13"])
    assert code == 2


def test_verify_davenport_hasse():
    code, out = run_cli(["verify", "--suite", "davenport-hasse", "--q", "13",
                         "--d", "3", "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 2  # t = 1 and t = -1


def test_special_values_refuse_a_zero_argument():
    # 1323 = 3^3 7^2, so at p = 7 the argument 1323/1331 is 0: the check is
    # refused like p = 3 and p = 11, and the suite runs the half value alone
    with pytest.raises(ValueError, match="p must avoid 3, 7 and 11"):
        apps.special_value_check(charsum.make_field(7, 2), "frac-1323-1331")
    code, out = run_cli(["verify", "--suite", "special-values", "--p", "7", "--n", "2",
                         "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [row["case"] for row in rows] == ["special-half"] and rows[0]["match"]


def test_verify_edwards_seeded():
    code, out = run_cli(["verify", "--suite", "edwards", "--q", "13",
                         "--count", "15", "--seed", "3", "--format", "json"])
    assert code == 0
    assert len(out.strip().splitlines()) == 15


def test_eval_gauss_values():
    code, out = run_cli(["eval", "gauss", "--q", "13", "--m", "0"])
    assert code == 0 and out.strip() == "-1"
    code, out = run_cli(["eval", "gauss", "--q", "13", "--m", "6"])
    assert code == 0
    assert out.strip().startswith("3.60555127546")


def test_eval_hf_zero_argument():
    code, out = run_cli(["eval", "hf", "--q", "13", "--upper", "1,5",
                         "--lower", "6", "--x", "0"])
    assert code == 0 and out.strip() == "0"


def test_eval_hf_empty_lower_list_is_1f0(capsys):
    # "" is the empty lower list of a 1F0 series; the CLI value is hf_eval's
    ctx = cli.make_field(13)
    want = hyperf.hf_eval(ctx, [3], [], 2)
    code, out = run_cli(["eval", "hf", "--q", "13", "--upper", "3", "--lower", "",
                         "--x", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"value_re": want.real, "value_im": want.imag}
    # an empty exponent list where a sum needs exponents still exits 2
    code, out = run_cli(["eval", "jacobi", "--q", "13", "--exps", ""])
    assert code == 2 and out == ""
    assert "at least one character exponent" in capsys.readouterr().err


def test_eval_jacobi_and_binom():
    code, out = run_cli(["eval", "jacobi", "--q", "13", "--exps", "6,6"])
    assert code == 0 and out.strip() == "-1"
    code, out = run_cli(["eval", "binom", "--q", "13", "--top", "0",
                         "--bottom", "0", "--format", "json"])
    assert code == 0
    assert abs(json.loads(out)["value_re"] - 11 / 13) < 1e-12


def test_extension_field_element_literals():
    # q = 9: a = 1 + t is "1,1"
    code, out = run_cli(["eval", "hf", "--p", "3", "--n", "2", "--upper", "1,3",
                         "--lower", "2", "--x", "1,1", "--format", "json"])
    assert code == 0
    json.loads(out)


def _strip_ms(text: str):
    rows = []
    for line in text.strip().splitlines():
        row = json.loads(line)
        row.pop("ms", None)
        rows.append(row)
    return rows


def test_determinism_same_seed_identical_output():
    argv = ["verify", "--suite", "lennon", "--q", "13", "--count", "25",
            "--seed", "11", "--format", "json"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert _strip_ms(out1) == _strip_ms(out2)


def test_size_cap_env_override():
    src_dir = os.path.dirname(os.path.dirname(charsum.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "charsum.cli", "eval", "gauss", "--q", "13",
         "--m", "0"],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src_dir, "CHARSUM_SIZE_CAP": "7"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "size cap" in proc.stderr


def test_size_cap_env_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("CHARSUM_SIZE_CAP", "1e5")
    assert cli.main(["eval", "gauss", "--q", "13", "--m", "1"]) == 2
    assert capsys.readouterr().err == "error: CHARSUM_SIZE_CAP must be an integer, got '1e5'\n"


def test_closed_pipe_exits_141_quietly():
    # the reader takes one line and closes the pipe: no traceback, and not
    # exit 1, which means a mismatch
    src_dir = os.path.dirname(os.path.dirname(charsum.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "charsum.cli", "count", "--q", "181", "--e", "2", "--d", "3",
         "--sweep", "--format", "json"],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src_dir},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert json.loads(proc.stdout.readline())["match"] is True
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert code == 141
    assert "Traceback" not in err and "Error" not in err


def test_parser_is_built_once_per_process():
    cli.build_parser.cache_clear()
    argv = ["eval", "gauss", "--q", "13", "--m", "1"]
    assert run_cli(argv) == run_cli(argv)
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "field",
    [["--q", "2305843009213693951"], ["--p", "2", "--n", "3000000"]],
    ids=["q-2^61-1", "p-2-n-3000000"],
)
def test_oversized_field_exits_2_at_once(field, capsys):
    # the cap is checked before --q is factored or p^n is formed: trial
    # division up to sqrt(2^61 - 1) would take minutes, and 2^3000000 has
    # too many digits to print
    start = time.perf_counter()
    code, out = run_cli(["eval", "gauss", *field, "--m", "1"])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert "exceeds size cap" in capsys.readouterr().err


def test_p_alone_is_a_prime_field():
    assert run_cli(["eval", "gauss", "--p", "13", "--m", "6"]) == \
        run_cli(["eval", "gauss", "--q", "13", "--m", "6"])


def test_size_cap_has_no_flag(capsys):
    # CHARSUM_SIZE_CAP is the one way to set the cap
    code, out = run_cli(["eval", "gauss", "--q", "13", "--size-cap", "100", "--m", "1"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --size-cap" in capsys.readouterr().err


def test_exit_code_one_on_mismatch(monkeypatch):
    # force a formula/oracle disagreement to confirm the exit-code contract
    from charsum import curves as curves_mod

    real = curves_mod.count_theorem

    def broken(spec):
        return real(spec) + 1

    monkeypatch.setattr(cli.curves, "count_theorem", broken)
    code, out = run_cli(["count", "--q", "13", "--e", "2", "--d", "3",
                         "--a", "1", "--b", "1", "--format", "json"])
    assert code == 1
    assert json.loads(out)["match"] is False


def _spy_cache_keys(monkeypatch, module, name):
    """Record (ctx, cache keys) at each call of module.name on a nonempty block."""
    real = getattr(module, name)
    seen = []

    def spy(*args):
        ctx, block = (args[0].ctx, args[0].b) if module is curves else (args[0], args[2])
        if np.size(block):
            seen.append((ctx, set(ctx._cache)))
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return seen


def test_count_builds_gauss_table_before_first_row(monkeypatch):
    # the table builds belong to no row, so they must not land in block 1's ms
    seen = _spy_cache_keys(monkeypatch, curves, "count_bruteforce")
    built = {"gauss", ("count_plan", 3, 4), ("power_counts", 3), ("power_counts_tiled", 3),
             ("pow_by_exp", 4), "exp2"}
    code, _ = run_cli(["count", "--q", "37", "--e", "3", "--d", "4", "--random", "3",
                       "--seed", "1", "--format", "json"])
    assert code == 0
    assert seen and all(built <= keys == set(ctx._cache) for ctx, keys in seen)


@pytest.mark.parametrize(
    "suite,q,module,name",
    [
        ("lennon", 181, curves, "count_bruteforce"),
        ("e34", 181, curves, "count_bruteforce"),
        ("edwards", 181, apps, "edwards_count_bruteforce"),
    ],
)
def test_verify_builds_tables_before_first_block(monkeypatch, suite, q, module, name):
    # every table the run reads exists when the first block's oracle starts
    seen = _spy_cache_keys(monkeypatch, module, name)
    code, _ = run_cli(["verify", "--suite", suite, "--q", str(q), "--count", "1500",
                       "--format", "json"])
    assert code == 0
    assert len(seen) == 2  # blocks of 1024 and 476 rows
    assert all(keys == set(ctx._cache) for ctx, keys in seen)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--q", "37", "--e", "3", "--d", "4", "--sweep"],
        ["count", "--p", "5", "--n", "2", "--e", "2", "--d", "3", "--sweep"],
        ["count", "--q", "181", "--e", "2", "--d", "3", "--random", "1500", "--seed", "8"],
        ["count", "--p", "7", "--n", "4", "--e", "2", "--d", "5", "--random", "1500"],
        *(["verify", "--suite", suite, "--q", "181", "--count", "1500"]
          for suite in ("lennon", "e34", "edwards")),
        ["verify", "--suite", "cubic-transform", "--q", "37"],
    ],
    ids=["sweep-37", "sweep-25", "random-181", "random-7^4", "lennon-181", "e34-181",
         "edwards-181", "cubic-transform-37"],
)
def test_rows_do_not_depend_on_block_size(monkeypatch, argv):
    # only ms may change with the block split, the last block included; the
    # seeded pairs are drawn per block, so this also checks the draw
    outs = []
    for rows in (1, 7, cli._BLOCK_ROWS):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
        code, out = run_cli(argv + ["--format", "json"])
        assert code == 0
        outs.append(_rows_without_ms(out))
    assert outs[0] and outs[0] == outs[1] == outs[2]


def _randrange_pairs(q, seed, count, distinct):
    rng, pairs = random.Random(seed), []
    while len(pairs) < count:
        a, b = rng.randrange(1, q), rng.randrange(1, q)
        if not (distinct and a == b):
            pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("distinct", [False, True], ids=["all", "distinct"])
@pytest.mark.parametrize("q", [2, 3, 5, 17, 181, 257, 2401, 4093, 65536])
def test_bulk_draw_is_the_randrange_stream(q, distinct):
    # The blocks come from getrandbits words, not from randrange: this pins
    # CPython's word order.  At q = 17 and 257, q - 1 is a power of two and
    # about half the words are drawn again; k = (q-1).bit_length() runs from 1
    # (q = 2) to 16 (q = 65536).  At q = 2 the only pair has a = b, so the
    # distinct rule refuses a pair rather than draw forever.
    for seed in (0, 1, 2**40):
        if q == 2 and distinct:
            with pytest.raises(ValueError, match="no distinct pair"):
                list(cli._random_unit_pairs(q, random.Random(seed), 1, distinct))
        for count in (0, 1, 1023, 1024, 1025) if q > 2 or not distinct else (0,):
            blocks = list(cli._random_unit_pairs(q, random.Random(seed), count, distinct))
            assert [len(a) for a, _ in blocks] == [
                min(cli._BLOCK_ROWS, count - i) for i in range(0, count, cli._BLOCK_ROWS)]
            assert all(a.dtype == b.dtype == np.int64 for a, b in blocks)
            got = [ab for a, b in blocks for ab in zip(a.tolist(), b.tolist())]
            assert got == _randrange_pairs(q, seed, count, distinct)


def _scalar_rows(ctx, e, d, cases):
    """The rows of `count` as the scalar counts give them, one curve per call."""
    for a, b in cases:
        spec = curves.CurveSpec(ctx, e, d, a, b)
        oracle = curves.count_bruteforce(spec)
        try:
            formula = curves.count_theorem(spec)
            formula_re, disc = float(formula), float(abs(formula - oracle))
        except curves.RoundingGuardError:
            formula_re, disc = float("nan"), float("inf")
        yield json.dumps({"q": ctx.q, "e": e, "d": d, "a": a, "b": b, "formula_re": formula_re,
                          "formula_im": 0.0, "oracle": oracle, "match": disc == 0.0,
                          "disc": disc})


def _rows_without_ms(out):
    # the text of each JSON line with its last key, ms, cut off
    return [line[:line.rindex(', "ms": ')] + "}" for line in out.splitlines()]


@pytest.mark.parametrize(
    "p,n,e,d,select",
    [
        (37, 1, 3, 3, ["--sweep"]),
        (181, 1, 2, 3, ["--random", "1500", "--seed", "4"]),  # blocks of 1024 and 476 rows
        (7, 4, 2, 5, ["--random", "100", "--seed", "3"]),
        (13, 1, 2, 3, ["--a", "5", "--b", "7"]),
    ],
    ids=["sweep-37", "random-181", "random-7^4", "a-b"],
)
def test_count_block_rows_equal_scalar_rows(p, n, e, d, select):
    code, out = run_cli(["count", "--p", str(p), "--n", str(n), "--e", str(e), "--d", str(d),
                         *select, "--format", "json"])
    assert code == 0
    ctx = charsum.make_field(p, n)
    if select[0] == "--sweep":
        cases = itertools.product(ctx.units(), repeat=2)
    elif select[0] == "--random":
        rng = random.Random(int(select[3]))
        cases = [(rng.randrange(1, ctx.q), rng.randrange(1, ctx.q)) for _ in range(int(select[1]))]
    else:
        cases = [(5, 7)]
    assert _rows_without_ms(out) == list(_scalar_rows(ctx, e, d, cases))


def test_count_guard_failures_stay_per_row(monkeypatch):
    # a guard tight enough that some curves of the q = 37 (3, 4) family fail:
    # their rows, and only theirs, read NaN and Infinity
    monkeypatch.setattr(curves, "ROUND_GUARD", 1e-14)
    code, out = run_cli(["count", "--q", "37", "--e", "3", "--d", "4", "--sweep",
                         "--format", "json"])
    assert code == 1
    ctx = charsum.make_field(37)
    want = list(_scalar_rows(ctx, 3, 4, ((a, b) for a in range(1, 37) for b in range(1, 37))))
    assert _rows_without_ms(out) == want
    failed = [row for row in want if '"formula_re": NaN' in row]
    assert 0 < len(failed) < len(want)
    assert all('"disc": Infinity' in row for row in failed)


@pytest.mark.parametrize(
    "q,e,d,select,blocks",
    [
        (61, 5, 4, ["--sweep"], 4),  # 3,600 rows over 300 orbits
        (37, 3, 4, ["--random", "3000"], 3),  # 3,000 rows over 108 orbits
    ],
    ids=["sweep-61", "random-37"],
)
def test_count_counts_each_orbit_once(monkeypatch, q, e, d, select, blocks):
    # blocks after the first read most orbits from the memo: every oracle is
    # still its own row's count, and each orbit is enumerated once, in one
    # count_bruteforce call per block (and one on the empty warm-up block)
    real, sizes = curves.count_bruteforce, []

    def spy(spec):
        sizes.append(np.size(spec.b))
        return real(spec)

    monkeypatch.setattr(curves, "count_bruteforce", spy)
    code, out = run_cli(["count", "--q", str(q), "--e", str(e), "--d", str(d), *select,
                         "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    ctx = charsum.make_field(q)
    a, b = (np.array([row[k] for row in rows]) for k in "ab")
    want = real(curves.CurveSpec(ctx, e, d, a, b))
    assert [row["oracle"] for row in rows] == want.tolist()
    L = q - 1
    key = curves.torus_orbits(L, e, d, ctx.dlog[a], ctx.dlog[b])[0]
    assert len(sizes) == blocks + 1 and sizes[0] == 0
    assert sum(sizes) == len(set(key.tolist())) == L * math.gcd(L, e * (d - 1), d * e)
    assert sizes[2] < sizes[1]


_SUITE_ROUTES = {
    "lennon": (2, 3, lambda ctx, a, b: ctx.q - curves.count_bruteforce(
        curves.CurveSpec(ctx, 2, 3, a, b)), apps.lennon_trace),
    "e34": (3, 4, lambda ctx, a, b: ctx.q - curves.count_bruteforce(
        curves.CurveSpec(ctx, 3, 4, a, b)), apps.e34_trace),
    "edwards": (None, None, apps.edwards_count_bruteforce, apps.edwards_count_formula),
}


def _scalar_suite_rows(ctx, suite, count, seed):
    """The rows of `verify --suite lennon|e34|edwards` from the scalar routes,
    one pair per call, for the suite's seeded pairs (off-diagonal for edwards)."""
    e, d, oracle_fn, formula_fn = _SUITE_ROUTES[suite]
    rng = random.Random(seed)
    rows = []
    while len(rows) < count:
        a, b = rng.randrange(1, ctx.q), rng.randrange(1, ctx.q)
        if suite == "edwards" and a == b:
            continue
        oracle = oracle_fn(ctx, a, b)
        try:
            formula = formula_fn(ctx, a, b)
            formula_re, disc = float(formula), float(abs(formula - oracle))
        except curves.RoundingGuardError:
            formula_re, disc = float("nan"), float("inf")
        rows.append(json.dumps({"case": suite, "q": ctx.q, "e": e, "d": d, "a": a, "b": b,
                                "formula_re": formula_re, "formula_im": 0.0, "oracle": oracle,
                                "match": disc == 0.0, "disc": disc}))
    return rows


@pytest.mark.parametrize(
    "suite,p,n,count",
    [
        ("lennon", 37, 1, 1500),  # blocks of 1024 and 476 rows
        ("lennon", 7, 2, 1500),
        ("e34", 181, 1, 1500),
        ("edwards", 181, 1, 500),
        ("edwards", 7, 2, 700),
    ],
    ids=["lennon-37", "lennon-49", "e34-181", "edwards-181", "edwards-49"],
)
def test_verify_block_rows_equal_scalar_rows(suite, p, n, count):
    code, out = run_cli(["verify", "--suite", suite, "--p", str(p), "--n", str(n),
                         "--count", str(count), "--seed", "6", "--format", "json"])
    assert code == 0
    assert _rows_without_ms(out) == _scalar_suite_rows(charsum.make_field(p, n), suite, count, 6)


@pytest.mark.parametrize("suite", ["lennon", "e34", "edwards"])
def test_verify_guard_failures_stay_per_row(monkeypatch, suite):
    # a guard that about half the q = 37 rows miss: the refused block is redone
    # one row at a time, failing rows read NaN and Infinity, and the exit code is 1
    monkeypatch.setattr(curves, "ROUND_GUARD", 3e-15)
    code, out = run_cli(["verify", "--suite", suite, "--q", "37", "--count", "200",
                         "--seed", "2", "--format", "json"])
    assert code == 1
    want = _scalar_suite_rows(charsum.make_field(37), suite, 200, 2)
    assert _rows_without_ms(out) == want
    failed = [row for row in want if '"formula_re": NaN' in row]
    assert 0 < len(failed) < len(want)
    assert all('"disc": Infinity' in row and '"match": false' in row for row in failed)


# Extra arguments of each registered suite; q = 37 meets every congruence.
_SUITE_CASES = {
    "lemmas": [], "davenport-hasse": ["--d", "3"], "binom-props": [], "special-values": [],
    "cubic-transform": [], "edwards": [], "lennon": [], "e34": [],
}


@pytest.mark.parametrize("suite", list(cli._SUITE_RUNNERS))
def test_every_registered_suite_runs(suite):
    # a suite registered without a case here fails
    assert _SUITE_CASES.keys() == cli._SUITE_RUNNERS.keys()
    code, out = run_cli(["verify", "--suite", suite, "--q", "37", *_SUITE_CASES[suite],
                         "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows and all(row["match"] and row["q"] == 37 for row in rows)


def test_json_writer_matches_json_dumps():
    # one block, and a row of shared values only, against json.dumps per row
    nan, inf = float("nan"), float("inf")
    blocks = [
        ({"q": 181, "e": None, "d": None, "a": [1, 2**70, 3, 4], "b": [5, 6, 7, -8],
          "formula_re": [1.5, nan, inf, -inf], "formula_im": -inf, "oracle": [2**65, -3, 0, 1],
          "match": [True, False, True, False], "disc": [0.0, inf, 1e-300, 2.5e20], "ms": 0.125},
         'edwards "x" 100%'),
        ({"q": 13, "e": 2, "d": 3, "a": None, "b": None, "formula_re": -0.0, "formula_im": nan,
          "oracle": 12.5, "match": True, "disc": 3e-17, "ms": 1.0}, None),
    ]
    out = io.StringIO()
    emitter = cli._Emitter("json", out)
    want = []
    for row, case in blocks:
        emitter.emit(row, case=case)
        for i in range(cli._row_count(row)):
            ordered = {} if case is None else {"case": case}
            ordered.update((k, v[i] if isinstance(v, list) else v) for k, v in row.items())
            want.append(json.dumps(ordered) + "\n")
    assert out.getvalue() == "".join(want)
    assert emitter.all_match is False


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["count", "--q", "13", "--e", "2", "--d", "3", "--random", "-3"], "--random"),
        (["verify", "--suite", "lennon", "--q", "13", "--count", "-1"], "--count"),
        (["verify", "--suite", "edwards", "--q", "13", "--count", "x"], "--count"),
    ],
    ids=["random", "count", "count-not-int"],
)
def test_negative_counts_exit_2(argv, flag, capsys):
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        ["--random", "2", "--a", "1", "--b", "1"],
        ["--random", "0", "--b", "1"],
        ["--sweep", "--random", "2"],
        ["--sweep", "--a", "1", "--b", "1"],
    ],
    ids=["random-ab", "random-b", "sweep-random", "sweep-ab"],
)
def test_conflicting_case_selectors_exit_2(extra, capsys):
    code, out = run_cli(["count", "--q", "13", "--e", "2", "--d", "3"] + extra)
    assert code == 2 and out == ""
    assert "conflict" in capsys.readouterr().err


def test_count_random_zero_emits_no_rows():
    assert run_cli(["count", "--q", "13", "--e", "2", "--d", "3", "--random", "0"]) == (0, "")


_COUNT_13 = ["count", "--q", "13", "--e", "2", "--d", "3"]


@pytest.mark.parametrize(
    "argv,msg",
    [
        (["eval", "gauss", "--m", "1"], "need --q or --p"),
        # --q is not silently preferred to a second way of naming the field
        (["eval", "gauss", "--q", "13", "--p", "7", "--m", "1"], "--q conflicts with --p/--n"),
        (["eval", "gauss", "--p", "13", "--n", "1", "--q", "49", "--m", "1"],
         "--q conflicts with --p/--n"),
        (["eval", "gauss", "--q", "13", "--n", "1", "--m", "1"], "--q conflicts with --p/--n"),
        (_COUNT_13 + ["--a", "x", "--b", "1"], "bad element literal for --a: 'x'"),
        (_COUNT_13 + ["--a", "1,2", "--b", "1"], "--a must be a single residue for a prime field"),
        (["count", "--p", "5", "--n", "2", "--e", "2", "--d", "3", "--a", "1,2,3", "--b", "1"],
         "--a has more than 2 coefficients"),
        (["eval", "hf", "--q", "13", "--upper", "1,x", "--lower", "2", "--x", "1"],
         "bad exponent list for --upper: '1,x'"),
        (_COUNT_13 + ["--a", "0", "--b", "1"], "a and b must be nonzero"),
        (["verify", "--suite", "davenport-hasse", "--q", "13"], "davenport-hasse needs --d"),
        (["verify", "--suite", "special-values", "--q", "7"],
         "no special-value identity is admissible at q = 7"),
        (["eval", "gauss", "--q", "13"], "eval gauss needs --m"),
        (["eval", "jacobi", "--q", "13"], "eval jacobi needs --exps"),
        (["eval", "binom", "--q", "13", "--top", "1"], "eval binom needs --top and --bottom"),
        (["eval", "hf", "--q", "13", "--upper", "1,3", "--lower", "2"],
         "eval hf needs --upper, --lower and --x"),
    ],
    ids=["no-field", "q-p", "p-n-q", "q-n", "bad-literal", "prime-field-vector", "too-many-coeffs", "bad-exponents",
         "zero-a", "dh-no-d", "special-none", "gauss-no-m", "jacobi-no-exps", "binom-no-bottom",
         "hf-no-x"],
)
def test_invalid_input_exits_2_with_message(argv, msg, capsys):
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith(f"error: {msg}")


def test_verify_binom_props_rows():
    ctx = cli.make_field(5, 2)
    code, out = run_cli(["verify", "--suite", "binom-props", "--q", "25", "--format", "json"])
    assert code == 0
    names = ["binom-translate", "binom-absorb", "binom-complement", "binom-transpose"]
    want = [{"case": name, "e": None, "a": None, "b": None,
             **sums.verify_identity(ctx, name).to_row()} for name in names]
    assert _strip_ms(out) == want


def _table_lines(out):
    return [line.split() for line in out.splitlines()]


def test_count_sweep_default_table_format():
    code, out = run_cli(_COUNT_13 + ["--sweep"])
    assert code == 0
    header, *rows = _table_lines(out)
    assert header == cli._COLUMNS
    assert len(rows) == 144
    assert all(len(row) == len(header) and row[header.index("match")] == "True" for row in rows)
    assert rows[0][:5] == ["13", "2", "3", "1", "1"] and rows[1][4] == "2"


def test_verify_lemmas_table_has_case_column():
    code, out = run_cli(["verify", "--suite", "lemmas", "--q", "13"])
    assert code == 0
    header, *rows = _table_lines(out)
    assert header == ["case"] + cli._COLUMNS
    assert [row[0] for row in rows] == list(sums.IDENTITY_NAMES)


def test_eval_hf_complex_value_as_text():
    want = hyperf.hf_eval(cli.make_field(13), [1, 3], [2], 5)
    assert abs(want.imag) > 0.1
    code, out = run_cli(["eval", "hf", "--q", "13", "--upper", "1,3", "--lower", "2", "--x", "5"])
    assert code == 0
    assert out == f"{want.real:.12g}{want.imag:+.12g}j\n"
    assert abs(complex(out) - want) < 1e-11


def test_edwards_at_even_q_exits_2():
    # at q = 2 the only unit pair has alpha == beta, which the suite skips
    src_dir = os.path.dirname(os.path.dirname(charsum.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "charsum.cli", "verify", "--suite", "edwards", "--q", "2",
         "--count", "1"],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src_dir},
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "odd q" in proc.stderr
