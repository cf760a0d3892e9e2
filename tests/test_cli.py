"""CLI behavior: formats, exit codes, determinism, env overrides."""

import io
import json
import os
import subprocess
import sys

import pytest

import charsum
from charsum import cli


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
    # the table build belongs to no row, so it must not land in row 1's ms
    from charsum import curves as curves_mod

    real = curves_mod.count_bruteforce
    seen = []

    def spy(spec):
        seen.append("gauss" in spec.ctx._cache)
        return real(spec)

    monkeypatch.setattr(cli.curves, "count_bruteforce", spy)
    code, _ = run_cli(["count", "--q", "37", "--e", "3", "--d", "4", "--random", "3",
                       "--seed", "1", "--format", "json"])
    assert code == 0
    assert seen == [True, True, True]


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
