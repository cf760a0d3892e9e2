#!/usr/bin/env python3
"""charsum benchmark: one workload per process, closed loop, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload count-prime --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` wraps the charsum layers (see
``tracing.py``) and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``fail_frac``
is ``failed / attempted`` and is printed by name on its own line; the
pair latency p50 and p99 are printed in the notes line (see README.md for
why they are not end-to-end metrics).
"""

from __future__ import annotations

import os

# Pin native thread pools before anything can import numpy.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import workloads as wls  # noqa: E402
from tracing import Tracer  # noqa: E402

# Shares of --seconds for the warm phase's pairs, grids, CLI and set-up
# streams.
PHASE_SHARES = (0.6, 0.15, 0.15, 0.1)

END_TO_END_UNITS = {
    "setup_s": "s",
    "curves_per_s": "1/s",
    "grid_cases_per_s": "1/s",
    "cli_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {
        "field.make_field.s": "s",
        "field.FieldCtx.add_vec.s": "s",
        "field.FieldCtx.add_vec.calls": "count",
        "chars.unit_roots.s": "s",
        "chars.theta_by_exp.s": "s",
        "chars.mul_char.calls": "count",
        "sums.gauss_table.self_s": "s",
        "sums.gauss_table.calls": "count",
    }
    for name in wls.ALL_IDENTITIES:
        units[f"sums.verify_identity.{name}.s"] = "s"
        units[f"sums.verify_identity.{name}.cases"] = "count"
    units.update({
        "sums.greene_binom.calls": "count",
        "sums.greene_binom.s": "s",
        "sums.jacobi_direct.calls": "count",
        "sums.davenport_hasse.s": "s",
        "hyperf.hf_eval.self_s": "s",
        "hyperf.hf_eval.calls": "count",
        "hyperf.binom_row.calls": "count",
        "hyperf.binom_row.misses": "count",
        "hyperf.binom_row.hit_ratio": "ratio",
        "curves.count_bruteforce.s": "s",
        "curves.count_bruteforce.calls": "count",
        "curves.count_theorem.self_s": "s",
        "curves.power_count_table.misses": "count",
        "apps.lennon_trace.s": "s",
        "apps.e34_trace.s": "s",
        "apps.edwards_count_bruteforce.s": "s",
        "apps.edwards_count_formula.s": "s",
        "cli.main.s": "s",
        "cli.main.self_s": "s",
        "cli.rows": "count",
        "trace.overhead_frac": "ratio",
    })
    return units


PER_LAYER_UNITS = per_layer_units()


def _use_checkout_src() -> None:
    """Import charsum from this checkout's src/, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "charsum", "__init__.py")):
        print(f"error: no charsum package under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def environment() -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "CHARSUM_PURE_NUMPY": os.environ.get("CHARSUM_PURE_NUMPY"),
        "CHARSUM_SIZE_CAP": os.environ.get("CHARSUM_SIZE_CAP"),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _streams(ctx, wl, seed, checks, min_pairs):
    return (
        wls.PairStream(ctx, wl, seed, checks, min_pairs),
        wls.GridStream(ctx, wl, seed, checks),
        wls.CliStream(wl, seed, checks),
    )


def measure(wl: wls.Workload, seed: int, seconds: float, min_pairs: int = wls.MIN_PAIRS):
    """Untraced run: returns (checks, digest, metrics, notes)."""
    checks = wls.Checks()
    ctx, setup_main = wls.cold_setup(wl.p, wl.n)
    streams = _streams(ctx, wl, seed, checks, min_pairs)
    pairs, grids, cli = streams
    setups = wls.SetupStream(wl, setup_main)
    pairs.warm_up()
    wls.run_warm(streams + (setups,), PHASE_SHARES, seconds)
    rechecked = wls.recheck_naive(ctx, pairs.kept + cli.counted, wl.recheck, seed, checks)
    lat = sorted(pairs.latencies)
    p99 = wls.nearest_rank(lat, 99)
    metrics = {
        "setup_s": statistics.median(setups.samples),
        "curves_per_s": pairs.verified / pairs.spent,
        "grid_cases_per_s": grids.rate(),
        "cli_rows_per_s": cli.rate(),
        "peak_rss_mb": _peak_rss_mb(),
    }
    notes = {
        "setup_samples_s": setups.samples,
        "pairs": len(lat),
        "pair_ms_p50": statistics.median(lat) * 1e3,
        "pair_ms_p99": p99 * 1e3,
        "pairs_beyond_p99": sum(1 for x in lat if x > p99),
        "pairs_s": pairs.spent,
        "curves_verified": pairs.verified,
        "grid_reports": grids.done,
        "grid_cases": grids.cases,
        "grid_s": grids.spent,
        "cli_runs": cli.done,
        "cli_rows": cli.rows,
        "cli_s": cli.spent,
        "naive_rechecked": rechecked,
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return checks, wls.combined_digest(streams), metrics, notes


def traced(wl: wls.Workload, seed: int, min_pairs: int = wls.MIN_PAIRS):
    """Traced run: a traced cold set-up, then the warm phase's minimum work
    (warm-up, ``min_pairs`` pairs, one cycle of grids and of CLI runs).  Each
    job runs traced and then again untraced, so both see the same process
    state; the overhead compares the two.  Returns (checks, digest, metrics,
    notes); checks and digest are the traced jobs'."""
    tracer = Tracer()
    checks = wls.Checks()
    with tracer.installed():
        tracer.new_run("setup")
        ctx = wls.build_tables(wl.p, wl.n)
        streams = _streams(ctx, wl, seed, checks, min_pairs)
        tracer.new_run("pairs")
        streams[0].warm_up()
    plain = _streams(ctx, wl, seed, wls.Checks(), min_pairs)
    plain[0].warm_up()
    for stream, twin in zip(streams, plain):
        while not stream.met_min():
            with tracer.installed():
                tracer.new_run(stream.phase)
                stream.step()
            twin.step()
    traced_s = sum(s.spent for s in streams)
    plain_s = sum(s.spent for s in plain)

    every, layers = tracer.summary()
    setup, _ = tracer.summary(phases={"setup"})

    def get(table, name, key):
        return table.get(name, {}).get(key, 0)

    values = {
        # set-up layers: the cold calls of the set-up phase
        "field.make_field.s": get(setup, "field.make_field", "s"),
        "chars.unit_roots.s": get(setup, "chars.unit_roots", "s"),
        "chars.theta_by_exp.s": get(setup, "chars.theta_by_exp", "s"),
        "sums.gauss_table.self_s": get(setup, "sums.gauss_table", "self_s"),
        # closed-form assembly: count_theorem and the evaluators it dispatches to
        "curves.count_theorem.self_s": sum(
            get(every, name, "self_s")
            for name in ("curves.count_theorem", "curves.count_theorem_even",
                         "curves.count_theorem_odd")
        ),
        "hyperf.binom_row.misses": tracer.counters["hyperf.binom_row.misses"],
        "curves.power_count_table.misses": tracer.counters["curves.power_count_table.misses"],
        "cli.rows": streams[2].rows,
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    }
    calls = get(every, "hyperf.binom_row", "calls")
    values["hyperf.binom_row.hit_ratio"] = (
        (calls - values["hyperf.binom_row.misses"]) / calls if calls else 0.0
    )
    for name in wls.ALL_IDENTITIES:
        key = f"sums.verify_identity.{name}"
        values[f"{key}.s"] = get(every, key, "s")
        values[f"{key}.cases"] = tracer.counters[f"{key}.cases"]
    for metric in PER_LAYER_UNITS:
        if metric not in values:
            func, _, key = metric.rpartition(".")
            values[metric] = get(every, func, key)
    notes = {
        "spans": len(tracer.start),
        "traced_warm_s": traced_s,
        "untraced_warm_s": plain_s,
        "layers": layers,
    }
    metrics = {k: (values[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}
    return checks, wls.combined_digest(streams), metrics, notes


def report(checks, digest, metrics, notes, env) -> dict:
    """Print the human-readable lines and return the final result object."""
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    frac = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"fail_frac {frac!r} ({checks.failed} failed of {checks.attempted} attempted checks)")
    for what in checks.failures:
        print(f"failure {what}")
    print(f"digest sha256 {digest}")
    print("notes " + json.dumps(notes, sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    return {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="charsum benchmark")
    parser.add_argument("--workload", choices=sorted(wls.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _use_checkout_src()
    wl = wls.WORKLOADS[args.workload]
    if args.trace:
        result = traced(wl, args.seed)
    else:
        result = measure(wl, args.seed, args.seconds)
    final = report(*result, environment())
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
