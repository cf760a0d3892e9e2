"""CLI behavior: formats, exit codes, determinism, env overrides."""

import io
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import charsum
from charsum import cli, curves


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
    assert len(golden) == 2
    for argv, want in golden.items():
        code, out = run_cli(argv.split() + ["--format", "json"])
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        for row in rows:
            del row["ms"]
        assert rows == want, argv


def test_count_invalid_q_exits_2():
    code, _ = run_cli(["count", "--q", "14", "--e", "2", "--d", "3",
                       "--a", "1", "--b", "1"])
    assert code == 2


def test_count_congruence_violation_exits_2():
    code, _ = run_cli(["count", "--q", "13", "--e", "3", "--d", "4",
                       "--a", "1", "--b", "1"])
    assert code == 2


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


def test_verify_unknown_suite_exits_2():
    code, _ = run_cli(["verify", "--suite", "unknown", "--q", "13"])
    assert code == 2


def test_verify_davenport_hasse():
    code, out = run_cli(["verify", "--suite", "davenport-hasse", "--q", "13",
                         "--d", "3", "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 2  # t = 1 and t = -1


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


def test_count_builds_gauss_table_before_first_row(monkeypatch):
    # the table builds belong to no row, so they must not land in block 1's ms
    from charsum import curves as curves_mod

    real = curves_mod.count_bruteforce
    seen = []
    built = ("gauss", ("count_plan", 3, 4), ("power_counts", 3), ("power_counts_tiled", 3),
             ("spread_pow_by_exp", 4), "spread_exp2")

    def spy(spec):
        seen.append(all(key in spec.ctx._cache for key in built))
        return real(spec)

    monkeypatch.setattr(cli.curves, "count_bruteforce", spy)
    code, _ = run_cli(["count", "--q", "37", "--e", "3", "--d", "4", "--random", "3",
                       "--seed", "1", "--format", "json"])
    assert code == 0
    assert seen and all(seen)


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
        (181, 1, 2, 3, ["--random", "500", "--seed", "4"]),  # blocks of 182 rows
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


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--q", "13", "--e", "2", "--d", "3", "--a", "1", "--b", "1"],
        ["verify", "--suite", "lemmas", "--q", "13"],
        ["eval", "gauss", "--q", "13", "--m", "1"],
    ],
    ids=["count", "verify", "eval"],
)
def test_tol_must_be_finite_and_positive(argv, tol, capsys):
    code, out = run_cli(argv + ["--tol", tol])
    assert code == 2 and out == ""
    assert "--tol" in capsys.readouterr().err


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
