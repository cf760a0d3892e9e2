"""Workloads of the charsum benchmark and the phases that run them.

A run of one workload is one process and one thread, a closed loop with one
client.  It has two phases:

* set-up: ``import charsum``, then the field, the character tables and the
  Gauss table (``make_field``, ``chars.unit_roots``, ``chars.theta_by_exp``,
  the first ``sums.gauss_table``);
* warm phase, job streams interleaved in slices, each run for its share of
  the window and at least its minimum:

  - pairs: seeded random ``(a, b)``, each taken through every ``(e, d)``
    family of the workload (brute-force oracle, closed form and, where the
    family has one, the trace formula);
  - grids: identity grids of ``sums.verify_identity`` and
    ``sums.davenport_hasse`` over the workload's field, in cycles;
  - cli: in-process ``cli.main`` runs with stdout captured and parsed, in
    cycles;
  - setup: further cold set-ups, each in a fresh process (untraced runs).

Every output is checked; each check counts in ``Checks``.  The seeded outputs
feed a SHA-256 digest that must repeat for a repeated seed.  Nothing here
imports numpy or charsum at module level, so the set-up timing starts cold.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass

# Samples of the pairs phase: at least this many, so that at least ten lie
# beyond the nearest-rank p99.  The first MIN_PAIRS samples feed the digest.
MIN_PAIRS = 1000
# Untimed pairs first: the first pairs of a run build the binomial rows and
# power tables lazily and run several times slower than the rest.
WARMUP_PAIRS = 50
# Length of one slice of the warm phase.
SLICE_S = 0.5
# Cold set-ups per run, this process's included: the median of several.
MIN_SETUPS = 3
SETUP_TIMEOUT_S = 60  # a count-prime set-up takes about 7 s
_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")


@dataclass(frozen=True)
class Family:
    """Curves y^e = x^d + a*x + b; ``trace`` names an ``apps`` trace formula."""

    e: int
    d: int
    trace: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    n: int
    families: tuple[Family, ...]
    # (identity, pinned parameter or None); a pinned parameter is drawn from
    # the seed, which turns an O(q^2) grid into an O(q) line.
    identities: tuple[tuple[str, str | None], ...]
    dh_orders: tuple[int, ...]  # davenport_hasse section orders, t = 1 and -1
    cli: tuple[tuple[str, ...], ...]  # argv; "{seed}" becomes the run seed
    recheck: int = 0  # curves re-counted by plain enumeration after timing


_LINE_IDENTITIES = (
    ("gauss-reflection", None),
    ("gauss-special", None),
    ("gauss-shift", "m"),
    ("binom-translate", "a"),
)

ALL_IDENTITIES = (
    "gauss-reflection",
    "gauss-shift",
    "jacobi-gauss",
    "theta-expansion",
    "orthogonality",
    "binom-translate",
    "binom-absorb",
    "binom-complement",
    "binom-transpose",
    "gauss-special",
    "theta-delta",
)


def _json(*argv: str) -> tuple[str, ...]:
    return argv + ("--format", "json")


# Why each workload exists is stated in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="count-prime",
            p=16381,
            n=1,
            families=(Family(2, 3, "lennon_trace"), Family(3, 4, "e34_trace")),
            identities=_LINE_IDENTITIES,
            dh_orders=(3, 4),
            # The CLI runs on a smaller field of the same kind: cli.main
            # builds its own field and Gauss table, which at q = 16381 took
            # 5 s, so a run held one CLI job and cli_rows_per_s followed the
            # host's speed at that moment.  At q = 4093 a job takes 0.25 s.
            cli=(
                _json("count", "--q", "4093", "--e", "2", "--d", "3",
                      "--random", "300", "--seed", "{seed}"),
            ),
        ),
        Workload(
            name="count-extension",
            p=3,
            n=8,
            families=(Family(2, 5), Family(5, 2)),
            identities=_LINE_IDENTITIES,
            dh_orders=(4, 5),
            # F_{7^4} for the CLI, as for count-prime: at 3^8 the field build
            # inside cli.main took 4 s, one job per run; at 7^4 it is 0.5 s.
            cli=(
                _json("count", "--p", "7", "--n", "4", "--e", "2", "--d", "5",
                      "--random", "100", "--seed", "{seed}"),
            ),
        ),
        Workload(
            name="suites-small",
            p=181,
            n=1,
            families=(Family(2, 3, "lennon_trace"), Family(3, 4, "e34_trace")),
            identities=tuple((name, None) for name in ALL_IDENTITIES),
            dh_orders=(3, 4),
            cli=(
                # seeded random pairs rather than --sweep: the same per-row
                # work in 0.5 s jobs that spread over the window instead of
                # one 3.5 s burst
                _json("count", "--q", "181", "--e", "2", "--d", "3",
                      "--random", "4000", "--seed", "{seed}"),
                _json("verify", "--suite", "edwards", "--q", "181",
                      "--count", "200", "--seed", "{seed}"),
                _json("verify", "--suite", "lennon", "--q", "181",
                      "--count", "200", "--seed", "{seed}"),
                _json("verify", "--suite", "e34", "--q", "181",
                      "--count", "200", "--seed", "{seed}"),
                _json("verify", "--suite", "special-values", "--q", "181"),
            ),
            recheck=64,
        ),
    )
}


class Checks:
    """Attempted and failed checks; a failure keeps a short description."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what if isinstance(what, str) else repr(what))


class Digest:
    """SHA-256 over the seeded outputs, one text line per item."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *fields) -> None:
        self._h.update((" ".join(str(f) for f in fields) + "\n").encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def build_tables(p: int, n: int):
    """Field, character tables and Gauss table; returns the context."""
    from charsum import chars, field, sums

    ctx = field.make_field(p, n)
    chars.unit_roots(ctx)
    chars.theta_by_exp(ctx)
    sums.gauss_table(ctx)
    return ctx


def cold_setup(p: int, n: int):
    """Time ``import charsum`` plus ``build_tables`` in this process.

    Only meaningful as the first charsum import of a fresh process.
    """
    t0 = time.perf_counter()
    import charsum  # noqa: F401  (the import is part of the timed set-up)

    ctx = build_tables(p, n)
    return ctx, time.perf_counter() - t0


class SetupStream:
    """More cold set-ups, one fresh process per job, for the ``setup_s``
    median; ``samples`` starts with the set-up of the workload process.

    The host's speed drifts by up to a third over tens of seconds.  Samples
    taken back to back all land in one speed, and their median then moved by
    0.26 (IQR over median) between suites-small runs.  Run as a stream of the
    warm phase, the samples spread over the window like the other metrics.
    """

    phase = "setup"

    def __init__(self, wl: Workload, first: float):
        self.code = (f"import sys; sys.path[:0] = {[_HERE, _SRC]!r}; import workloads; "
                     f"print(workloads.cold_setup({wl.p}, {wl.n})[1])")
        self.samples = [first]
        self.spent = 0.0

    def met_min(self) -> bool:
        return len(self.samples) >= MIN_SETUPS

    def step(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.code], capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S, check=True,
                              cwd=os.path.dirname(_HERE))
        self.samples.append(float(proc.stdout))
        self.spent += time.perf_counter() - t0


# ---------------------------------------------------------------------------
# warm phase: job streams
# ---------------------------------------------------------------------------

class PairStream:
    """Seeded random (a, b) pairs, each taken through every family of the
    workload: oracle, closed form and, where the family has one, the trace
    formula.  One job is one pair; its latency is one sample.  Functions are
    looked up on their modules at each call, so that a tracer can wrap them."""

    phase = "pairs"

    def __init__(self, ctx, wl: Workload, seed: int, checks: Checks,
                 min_pairs: int = MIN_PAIRS):
        from charsum import apps, curves

        self._apps = apps
        self._curves = curves
        self.ctx = ctx
        self.families = wl.families
        self.rng = random.Random(seed)
        self.checks = checks
        self.min_pairs = min_pairs
        self.digest = Digest()
        self.latencies: list[float] = []
        self.verified = 0
        self.spent = 0.0
        self.kept: list[tuple[int, int, int, int, int]] = []  # (e, d, a, b, N) digested

    def met_min(self) -> bool:
        return len(self.latencies) >= self.min_pairs

    def warm_up(self, pairs: int = WARMUP_PAIRS) -> None:
        for _ in range(pairs):
            self._pair(timed=False)

    def step(self) -> None:
        self._pair(timed=True)

    def _pair(self, timed: bool) -> None:
        apps, curves, ctx, q = self._apps, self._curves, self.ctx, self.ctx.q
        a = self.rng.randrange(1, q)
        b = self.rng.randrange(1, q)
        results = []
        t0 = time.perf_counter()
        for fam in self.families:
            spec = curves.CurveSpec(ctx, fam.e, fam.d, a, b)
            oracle = curves.count_bruteforce(spec)
            try:
                formula = curves.count_theorem(spec)
            except curves.RoundingGuardError:
                formula = None
            trace = None
            if fam.trace is not None:
                try:
                    trace = getattr(apps, fam.trace)(ctx, a, b)
                except curves.RoundingGuardError:
                    trace = "guard"
            results.append((fam, oracle, formula, trace))
        elapsed = time.perf_counter() - t0
        digested = not timed or len(self.latencies) < self.min_pairs
        if timed:
            self.latencies.append(elapsed)
            self.spent += elapsed
        for fam, oracle, formula, trace in results:
            ok = formula == oracle
            self.checks.record(ok, ("curve", fam.e, fam.d, a, b, oracle, formula))
            if fam.trace is not None:
                trace_ok = trace == q - oracle
                self.checks.record(trace_ok, (fam.trace, a, b, q - oracle, trace))
                ok = ok and trace_ok
            self.verified += ok and timed
            if digested:
                self.kept.append((fam.e, fam.d, a, b, oracle))
                self.digest.add("curve", fam.e, fam.d, a, b, oracle)


class CycleStream:
    """A fixed cycle of jobs of unequal size, with output units and time kept
    per job."""

    def __init__(self, jobs: int):
        self.done = 0
        self.spent = 0.0
        self._units = [0] * jobs
        self._seconds = [0.0] * jobs
        self._runs = [0] * jobs

    def met_min(self) -> bool:
        return self.done >= len(self._runs)

    def _count(self, units: int, seconds: float) -> None:
        i = self.done % len(self._runs)
        self._units[i] += units
        self._seconds[i] += seconds
        self._runs[i] += 1
        self.spent += seconds
        self.done += 1

    def rate(self) -> float:
        """Units per second of one cycle that runs every job once: per-job
        mean units over per-job mean time, each summed.  A window that stops
        part-way through a cycle then does not tilt the rate towards the
        jobs it happened to repeat."""
        units = sum(u / r for u, r in zip(self._units, self._runs))
        return units / sum(s / r for s, r in zip(self._seconds, self._runs))


class GridStream(CycleStream):
    """The workload's identity grids in a fixed cycle; one job is one report.
    Pinned grid parameters are drawn once from the seed."""

    phase = "grids"

    def __init__(self, ctx, wl: Workload, seed: int, checks: Checks):
        from charsum import sums

        self._sums = sums
        rng = random.Random(seed)
        L = ctx.q - 1
        self.jobs = []
        for name, pin in wl.identities:
            params = {pin: rng.randrange(1, L)} if pin else {}
            self.jobs.append(("verify_identity", (ctx, name), params))
        for d in wl.dh_orders:
            for t in (1, -1):
                self.jobs.append(("davenport_hasse", (ctx, d), {"t": t}))
        super().__init__(len(self.jobs))
        self.checks = checks
        self.digest = Digest()
        self.cases = 0

    def step(self) -> None:
        fn, args, kwargs = self.jobs[self.done % len(self.jobs)]
        t0 = time.perf_counter()
        report = getattr(self._sums, fn)(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        self.checks.record(report.match, ("identity", report.name, report.d, kwargs, report.disc))
        if self.done < len(self.jobs):
            self.digest.add("identity", report.name, report.d, sorted(kwargs.items()),
                            report.cases, report.skipped, report.match)
        self.cases += report.cases
        self._count(report.cases, elapsed)


class CliStream(CycleStream):
    """The workload's CLI commands in a fixed cycle, run in-process through
    ``cli.main`` with stdout captured; one job is one invocation.  Only the
    time inside ``cli.main`` counts; parsing and checking come after."""

    phase = "cli"

    def __init__(self, wl: Workload, seed: int, checks: Checks):
        from charsum import cli

        self._cli = cli
        self.argvs = [[arg.replace("{seed}", str(seed)) for arg in template]
                      for template in wl.cli]
        super().__init__(len(self.argvs))
        self.checks = checks
        self.digest = Digest()
        self.rows = 0
        self.counted: list[tuple[int, int, int, int, int]] = []  # first cycle's count rows

    def step(self) -> None:
        argv = self.argvs[self.done % len(self.argvs)]
        first_cycle = self.done < len(self.argvs)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self._cli.main(argv)
        elapsed = time.perf_counter() - t0
        self.checks.record(code == 0, ("cli exit", argv, code, err.getvalue()[-200:]))
        if first_cycle:
            self.digest.add("cli", *argv)
        lines = out.getvalue().splitlines()
        for line in lines:
            row = json.loads(line)
            self.checks.record(row["match"] is True, ("cli row", argv[:3], row))
            if first_cycle:
                del row["ms"]  # wall time; count also folds the Gauss table into row 1
                self.digest.add(json.dumps(row))
                if argv[0] == "count":
                    self.counted.append((row["e"], row["d"], row["a"], row["b"], row["oracle"]))
        self.rows += len(lines)
        self._count(len(lines), elapsed)


def run_warm(streams, shares, seconds: float) -> None:
    """Run the streams in slices of SLICE_S (at least one job), always the
    stream furthest below its share of the time spent, until ``seconds`` have
    passed and every stream has met its minimum (pairs for p99, one full
    cycle of grids or CLI runs).  Each metric is then averaged over the whole
    window, and pairs run in whatever state the grid and CLI jobs leave."""
    clock = time.perf_counter
    t_start = clock()
    while clock() - t_start < seconds or not all(s.met_min() for s in streams):
        live = [(s, share) for s, share in zip(streams, shares)
                if clock() - t_start < seconds or not s.met_min()]
        stream = min(live, key=lambda pair: pair[0].spent / pair[1])[0]
        t_slice = clock()
        while True:
            stream.step()
            if clock() - t_slice >= SLICE_S or (
                clock() - t_start >= seconds and stream.met_min()
            ):
                break


def combined_digest(streams) -> str:
    """One SHA-256 over the per-stream digests."""
    return hashlib.sha256(
        "".join(s.digest.hexdigest() for s in streams).encode()
    ).hexdigest()


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------------------
# recheck
# ---------------------------------------------------------------------------

def recheck_naive(ctx, curves_seen, count: int, seed: int, checks: Checks) -> int:
    """Re-count a seeded sample of curves by plain (x, y) enumeration, an
    oracle independent of the power-class tabulation the timed phases use."""
    from charsum import curves

    if not count or not curves_seen:
        return 0
    rng = random.Random(seed ^ 0x5EED)
    sample = rng.sample(curves_seen, min(count, len(curves_seen)))
    for e, d, a, b, n_points in sample:
        naive = curves.count_naive(curves.CurveSpec(ctx, e, d, a, b))
        checks.record(naive == n_points, ("count_naive", e, d, a, b, n_points, naive))
    return len(sample)
