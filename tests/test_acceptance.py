"""Acceptance suite: exact oracle equalities and tolerance-bounded identities.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in captured
output).  Counts are compared as exact integers against enumeration; identity
grids must stay inside their stated tolerances; sweep runtimes are bounded.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from charsum import apps, curves, sums
from charsum.field import make_field

from conftest import field

_IDENTITY_TOL = 1e-6


def _report(label: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f"  {detail}" if detail else ""
    print(f"{status}  {label}  ({elapsed:.2f}s){extra}")


@pytest.fixture(scope="module", autouse=True)
def warm_tables():
    sums.gauss_table(field(13))
    yield


def test_criterion_01_elliptic_sweep():
    label = "criterion 1: elliptic sweep (2,3), all (a,b), q in {13,37,61,73,97,109}"
    t0 = time.perf_counter()
    failures = 0
    for q in (13, 37, 61, 73, 97, 109):
        ctx = field(q)
        for a in ctx.units():
            for b in ctx.units():
                spec = curves.CurveSpec(ctx, 2, 3, a, b)
                n_brute = curves.count_bruteforce(spec)
                if curves.count_theorem(spec) != n_brute:
                    failures += 1
                if apps.lennon_trace(ctx, a, b) != q - n_brute:
                    failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    _report(label, ok, elapsed, f"failures={failures}")
    assert failures == 0
    assert elapsed < 30.0


def test_criterion_02_even_d():
    label = "criterion 2: even d, (2,2) q=13 sweep + (3,4) q in {37,73,109} x100"
    t0 = time.perf_counter()
    failures = 0
    ctx = field(13)
    for a in ctx.units():
        for b in ctx.units():
            spec = curves.CurveSpec(ctx, 2, 2, a, b)
            if curves.count_theorem(spec) != curves.count_bruteforce(spec):
                failures += 1
    for q in (37, 73, 109):
        ctx = field(q)
        rng = random.Random(20000 + q)
        for _ in range(100):
            a = rng.randrange(1, q)
            b = rng.randrange(1, q)
            spec = curves.CurveSpec(ctx, 3, 4, a, b)
            if curves.count_theorem(spec) != curves.count_bruteforce(spec):
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    _report(label, ok, elapsed, f"failures={failures}")
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_03_odd_d_beyond_cubics():
    label = "criterion 3: odd d, (3,3) q in {19,37} + (2,5) q=41, x50 seeded"
    t0 = time.perf_counter()
    failures = 0
    for q, e, d in ((19, 3, 3), (37, 3, 3), (41, 2, 5)):
        ctx = field(q)
        rng = random.Random(30000 + q)
        for _ in range(50):
            a = rng.randrange(1, q)
            b = rng.randrange(1, q)
            spec = curves.CurveSpec(ctx, e, d, a, b)
            if curves.count_theorem(spec) != curves.count_bruteforce(spec):
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    _report(label, ok, elapsed, f"failures={failures}")
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_04_e34_trace():
    label = "criterion 4: (3,4) trace, full sweeps at q in {37,73}"
    t0 = time.perf_counter()
    failures = 0
    for q in (37, 73):
        ctx = field(q)
        for a in ctx.units():
            for b in ctx.units():
                spec = curves.CurveSpec(ctx, 3, 4, a, b)
                if apps.e34_trace(ctx, a, b) != q - curves.count_bruteforce(spec):
                    failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    _report(label, ok, elapsed, f"failures={failures}")
    assert failures == 0
    assert elapsed < 30.0


def test_criterion_05_identity_suites():
    label = "criterion 5: identity suites over q in {13,17,19,25,27,37}"
    t0 = time.perf_counter()
    worst = 0.0
    worst_at = None
    for p, n in ((13, 1), (17, 1), (19, 1), (5, 2), (3, 3), (37, 1)):
        ctx = field(p, n)
        for name in sums.IDENTITY_NAMES:
            report = sums.verify_identity(ctx, name, seed=50000 + ctx.q)
            if report.disc > worst:
                worst = report.disc
                worst_at = (ctx.q, name, report.worst_case)
    elapsed = time.perf_counter() - t0
    ok = worst < _IDENTITY_TOL
    _report(label, ok, elapsed, f"max disc={worst:.3e} at {worst_at}")
    assert worst < _IDENTITY_TOL


def test_criterion_06_davenport_hasse():
    label = "criterion 6: Davenport-Hasse products, all l, t in {1,-1}"
    t0 = time.perf_counter()
    worst_rel = 0.0
    for q, ds in ((13, (2, 3, 4, 6, 12)), (37, (2, 3, 4, 6, 9, 12, 18, 36))):
        ctx = field(q)
        for d in ds:
            for t in (1, -1):
                report = sums.davenport_hasse(ctx, d, t=t)
                assert report.cases == q - 1
                worst_rel = max(worst_rel, report.disc / q ** (d / 2))
    elapsed = time.perf_counter() - t0
    ok = worst_rel < 1e-6
    _report(label, ok, elapsed, f"max disc/q^(d/2)={worst_rel:.3e}")
    assert worst_rel < 1e-6


def test_criterion_07_special_values():
    label = "criterion 7: 2F1 at 1/2 (q in {13,17,29,37}) and 1323/1331 (q in {13,37,61,73})"
    t0 = time.perf_counter()
    worst = 0.0
    for q in (13, 17, 29, 37):
        worst = max(worst, apps.special_value_check(field(q), "half").disc)
    for q in (13, 37, 61, 73):
        worst = max(worst, apps.special_value_check(field(q), "frac-1323-1331").disc)
    elapsed = time.perf_counter() - t0
    ok = worst < _IDENTITY_TOL
    _report(label, ok, elapsed, f"max disc={worst:.3e}")
    assert worst < _IDENTITY_TOL


def test_criterion_08_cubic_transform_and_edwards():
    label = "criterion 8: transform identity (both branches) + bridge + Edwards, q in {13,37}"
    t0 = time.perf_counter()
    worst = 0.0
    mismatches = 0
    transform_cases = 0
    edwards_failures = 0
    for q in (13, 37):
        ctx = field(q)
        # every admissible (a, b, branch), in one array call
        a, b, branch = (np.array(v, dtype=np.int64) for v in zip(
            *itertools.product(ctx.units(), ctx.units(), (0, 1))))
        keep = apps.cubic_transform_admissible(ctx, a, b, branch)
        _, _, disc, match = apps.cubic_transform_check(ctx, a[keep], b[keep], branch[keep])
        transform_cases += int(keep.sum())
        worst = max(worst, float(disc.max()))
        # match also holds the exact integer bridge
        mismatches += int(np.count_nonzero(~match))
        rng = random.Random(80000 + q)
        done = 0
        while done < 100:
            alpha = rng.randrange(1, q)
            beta = rng.randrange(1, q)
            if alpha == beta:
                continue  # the closed form does not cover the degenerate diagonal
            if apps.edwards_count_formula(ctx, alpha, beta) != (
                apps.edwards_count_bruteforce(ctx, alpha, beta)
            ):
                edwards_failures += 1
            done += 1
    elapsed = time.perf_counter() - t0
    ok = worst < _IDENTITY_TOL and mismatches == 0 and edwards_failures == 0
    _report(
        label,
        ok,
        elapsed,
        f"transform cases={transform_cases} max disc={worst:.3e} "
        f"mismatches={mismatches} edwards fails={edwards_failures}",
    )
    assert transform_cases > 0
    assert worst < _IDENTITY_TOL
    assert mismatches == 0
    assert edwards_failures == 0


def test_criterion_09_dual_form_coefficients():
    label = "criterion 9: M_i/N_i product forms vs reduced forms, all count configs"
    t0 = time.perf_counter()
    configs = [(q, 2, 3) for q in (13, 37, 61, 73, 97, 109)]
    configs += [(13, 2, 2), (37, 3, 4), (73, 3, 4), (109, 3, 4)]
    configs += [(19, 3, 3), (37, 3, 3), (41, 2, 5)]
    worst = 0.0
    worst_at = None
    for q, e, d in configs:
        ctx = field(q)
        tc = curves.thm_coeffs(curves.CurveSpec(ctx, e, d, 1, 1))
        if tc.max_disc > worst:
            worst = tc.max_disc
            worst_at = (q, e, d)
    elapsed = time.perf_counter() - t0
    ok = worst < _IDENTITY_TOL
    _report(label, ok, elapsed, f"max disc={worst:.3e} at {worst_at}")
    assert worst < _IDENTITY_TOL


def _cli_json(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "charsum.cli", *argv, "--format", "json"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    rows = []
    for line in proc.stdout.strip().splitlines():
        row = json.loads(line)
        row.pop("ms", None)
        rows.append(row)
    return rows


def test_criterion_10_determinism():
    label = "criterion 10: repeated seeded runs produce identical JSON (minus ms)"
    t0 = time.perf_counter()
    commands = [
        ["count", "--q", "13", "--e", "2", "--d", "3", "--sweep"],
        ["count", "--q", "37", "--e", "3", "--d", "4", "--random", "25", "--seed", "7"],
        ["verify", "--suite", "lemmas", "--q", "13", "--seed", "7"],
        ["verify", "--suite", "edwards", "--q", "13", "--count", "40", "--seed", "7"],
        ["verify", "--suite", "lennon", "--q", "13", "--count", "40", "--seed", "7"],
        ["verify", "--suite", "cubic-transform", "--q", "13"],
    ]
    identical = True
    for argv in commands:
        first = _cli_json(argv)
        second = _cli_json(argv)
        if first != second:
            identical = False
    elapsed = time.perf_counter() - t0
    _report(label, identical, elapsed)
    assert identical


def test_criterion_runtime_summary():
    # the Hasse bound holds across the full cubic sweep used above
    ctx = field(13)
    bound = 2 * math.sqrt(13)
    assert all(
        abs(curves.trace_frobenius(curves.CurveSpec(ctx, 2, 3, a, b))) <= bound
        for a in ctx.units()
        for b in ctx.units()
    )
