"""Self-tests of the benchmark at tiny fields (q = 13 and 37).

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads as wls  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TINY = {
    13: wls.Workload(
        name="tiny-13",
        p=13,
        n=1,
        families=(wls.Family(2, 3, "lennon_trace"),),
        identities=tuple((name, None) for name in wls.ALL_IDENTITIES),
        dh_orders=(3, 4),
        cli=(
            wls._json("count", "--q", "13", "--e", "2", "--d", "3", "--sweep"),
            wls._json("verify", "--suite", "lennon", "--q", "13", "--count", "20",
                      "--seed", "{seed}"),
        ),
        recheck=8,
    ),
    37: wls.Workload(
        name="tiny-37",
        p=37,
        n=1,
        families=(wls.Family(2, 3, "lennon_trace"), wls.Family(3, 4, "e34_trace")),
        identities=(("gauss-shift", "m"), ("binom-translate", "a"), ("gauss-special", None)),
        dh_orders=(3, 4),
        cli=(
            wls._json("count", "--q", "37", "--e", "3", "--d", "4", "--random", "30",
                      "--seed", "{seed}"),
            wls._json("verify", "--suite", "e34", "--q", "37", "--count", "20",
                      "--seed", "{seed}"),
        ),
        recheck=8,
    ),
}


def _spec_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_identity_names_match_package():
    from charsum import sums

    assert wls.ALL_IDENTITIES == sums.IDENTITY_NAMES


def test_spec_matches_benchmark():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(wls.WORKLOADS)
    assert _spec_units("end_to_end") == run.END_TO_END_UNITS
    assert _spec_units("per_layer") == run.PER_LAYER_UNITS


@pytest.mark.parametrize("q", sorted(TINY))
def test_untraced_metrics_and_digest(q):
    first = run.measure(TINY[q], seed=3, seconds=0, min_pairs=40)
    checks, digest, metrics, _ = first
    result = run.report(checks, digest, metrics, {}, {})
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _spec_units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    again = run.measure(TINY[q], seed=3, seconds=0, min_pairs=40)
    assert again[1] == digest
    other = run.measure(TINY[q], seed=4, seconds=0, min_pairs=40)
    assert other[1] != digest


@pytest.mark.parametrize("q", sorted(TINY))
def test_traced_metrics(q):
    checks, digest, metrics, notes = run.traced(TINY[q], seed=3, min_pairs=40)
    result = run.report(checks, digest, metrics, notes, {})
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _spec_units("per_layer")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["cli.rows"] > 0 and values["hyperf.hf_eval.calls"] > 0
    assert values["sums.verify_identity.gauss-shift.cases"] > 0
    # the traced pass and an untraced run of the same seed give the same digest
    plain = run.measure(TINY[q], seed=3, seconds=0, min_pairs=40)
    assert plain[1] == digest


def test_tracer_rebinds_aliases_and_restores():
    import charsum
    from charsum import cli, field

    from tracing import Tracer

    original = field.make_field
    tracer = Tracer()
    with tracer.installed():
        assert cli.make_field is field.make_field is charsum.make_field
        assert field.make_field is not original
        field.make_field(13)
    assert field.make_field is original and cli.make_field is original
    functions, _ = tracer.summary()
    assert functions["field.make_field"]["calls"] == 1


def test_mismatch_counts_as_failure(monkeypatch):
    from charsum import curves

    real = curves.count_theorem
    monkeypatch.setattr(curves, "count_theorem", lambda spec: real(spec) + 1)
    checks, digest, metrics, _ = run.measure(TINY[37], seed=3, seconds=0, min_pairs=40)
    result = run.report(checks, digest, metrics, {}, {})
    assert not result["correct"]
    # every curve of the pairs phase and every `count` row of the CLI fail
    assert result["failed"] >= 2 * 40 + 30
    assert 0 < result["failed"] < result["attempted"]


def test_missing_package_exits_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suites-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": os.environ.get("PATH", "")},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_cycle_rate_counts_each_job_once():
    stream = wls.CycleStream(jobs=2)
    # job 0: 100 units in 1 s; job 1: 10 units in 1 s; the window ends after
    # job 0 has run twice
    for units in (100, 10, 100):
        stream._count(units, 1.0)
    assert stream.met_min()
    assert stream.rate() == (100 + 10) / 2.0
