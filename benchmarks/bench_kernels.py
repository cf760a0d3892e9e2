#!/usr/bin/env python3
"""Benchmark the jitted enumeration oracles against their pure-numpy fallbacks.

Runs each oracle both ways in-process (the numba path is skipped when the
package was imported with CHARSUM_PURE_NUMPY=1 or numba is missing) and
prints a speedup table.  Usage:

    python benchmarks/bench_kernels.py [--q 4093] [--repeat 3]
"""

from __future__ import annotations

import argparse
import time

from charsum import _kernels
from charsum.field import make_field


def _time(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=4093, help="prime field size")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    ctx = make_field(args.q)
    rows = []

    def bench(name, numba_fn, numpy_fn, check_equal):
        if _kernels.HAVE_NUMBA:
            numba_fn()  # warm-up / JIT compile outside the timed region
            t_jit = _time(numba_fn, args.repeat)
        else:
            t_jit = None
        t_np = _time(numpy_fn, args.repeat)
        check_equal()
        rows.append((name, t_jit, t_np))

    p = ctx.p
    bench(
        "count_naive(e=2,d=3)",
        lambda: _kernels._count_naive_jit(p, 2, 3, 1, 1) if _kernels.HAVE_NUMBA else None,
        lambda: _kernels.count_naive_numpy(p, 2, 3, 1, 1),
        lambda: _kernels.HAVE_NUMBA
        and _kernels._count_naive_jit(p, 2, 3, 1, 1) == _kernels.count_naive_numpy(p, 2, 3, 1, 1)
        or None,
    )
    bench(
        "edwards_naive",
        lambda: _kernels._edwards_naive_jit(p, 2, 3) if _kernels.HAVE_NUMBA else None,
        lambda: _kernels.edwards_naive_numpy(p, 2, 3),
        lambda: _kernels.HAVE_NUMBA
        and _kernels._edwards_naive_jit(p, 2, 3) == _kernels.edwards_naive_numpy(p, 2, 3)
        or None,
    )

    print(f"q = {args.q}, numba available: {_kernels.HAVE_NUMBA}")
    print(f"{'kernel':<24} {'numba (s)':>12} {'numpy (s)':>12} {'speedup':>9}")
    for name, t_jit, t_np in rows:
        if t_jit is None:
            print(f"{name:<24} {'-':>12} {t_np:>12.4f} {'-':>9}")
        else:
            print(f"{name:<24} {t_jit:>12.4f} {t_np:>12.4f} {t_np / t_jit:>8.1f}x")


if __name__ == "__main__":
    main()
