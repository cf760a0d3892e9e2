import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from charsum.curves import _coeff_mulmod, _coeff_pow
from charsum.field import make_field

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

_CTX_CACHE = {}


def field(p, n=1):
    """Session-cached field contexts; construction and tables are reused."""
    key = (p, n)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = make_field(p, n)
    return _CTX_CACHE[key]


def coeff_mul(ctx, x, y):
    """x * y through count_naive's product of coefficient rows: it reads no
    table and shares no code with the field's matrix construction."""
    rows = np.array([ctx.to_coeffs(x), ctx.to_coeffs(y)], dtype=np.int64)
    return ctx.from_coeffs(_coeff_mulmod(ctx, rows[0], rows[1]).tolist())


def coeff_pow(ctx, x, e):
    """x^e for e >= 0 (0^0 = 1) through count_naive's square and multiply."""
    if e == 0:
        return 1
    row = np.array(ctx.to_coeffs(x), dtype=np.int64)
    return ctx.from_coeffs(_coeff_pow(ctx, row, e).tolist())


@pytest.fixture(scope="session")
def f13():
    return field(13)


@pytest.fixture(scope="session")
def f17():
    return field(17)


@pytest.fixture(scope="session")
def f19():
    return field(19)


@pytest.fixture(scope="session")
def f37():
    return field(37)


@pytest.fixture(scope="session")
def f9():
    return field(3, 2)


@pytest.fixture(scope="session")
def f25():
    return field(5, 2)


@pytest.fixture(scope="session")
def f27():
    return field(3, 3)
