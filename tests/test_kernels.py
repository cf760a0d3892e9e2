"""Dual-path kernels: the jitted and pure-numpy implementations must agree."""

import os

import pytest

import charsum
from charsum import _kernels

needs_numba = pytest.mark.skipif(
    not _kernels.HAVE_NUMBA, reason="numba path disabled or unavailable"
)


@needs_numba
def test_count_naive_paths_agree():
    for p, e, d, a, b in [(13, 2, 3, 1, 1), (37, 3, 4, 5, 9), (41, 2, 5, 7, 3)]:
        assert _kernels._count_naive_jit(p, e, d, a, b) == _kernels.count_naive_numpy(
            p, e, d, a, b
        )


@needs_numba
def test_edwards_paths_agree():
    for p, alpha, beta in [(13, 2, 3), (17, 1, 4), (37, 10, 22)]:
        assert _kernels._edwards_naive_jit(p, alpha, beta) == (
            _kernels.edwards_naive_numpy(p, alpha, beta)
        )


def test_pure_numpy_env_flag():
    # the flag is read at import; verify a fresh interpreter honors it
    import subprocess
    import sys

    code = (
        "import charsum._kernels as k; "
        "print(k.HAVE_NUMBA, k.count_naive is k.count_naive_numpy)"
    )
    src_dir = os.path.dirname(os.path.dirname(charsum.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src_dir, "CHARSUM_PURE_NUMPY": "1"},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["False", "True"]
