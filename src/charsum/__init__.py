"""Finite-field character sums, Gaussian hypergeometric series over F_q,
and exact point-count verification for curves y^e = x^d + a*x + b."""

from .field import DEFAULT_SIZE_CAP, TOL, CongruenceError, FieldCtx, FieldError, make_field
from .chars import (
    add_char,
    char_order,
    delta_char,
    delta_elem,
    legendre,
    mul_char,
)
from .sums import (
    IDENTITY_NAMES,
    VerifyReport,
    davenport_hasse,
    gauss_sum,
    gauss_table,
    greene_binom,
    jacobi_multi,
    jacobi_sum,
    verify_identity,
)
from .hyperf import hf_eval
from .curves import (
    CurveSpec,
    RoundingGuardError,
    count_bruteforce,
    count_naive,
    count_theorem,
    thm_coeffs,
    trace_frobenius,
)
from .apps import (
    cubic_transform_check,
    e34_trace,
    lennon_trace,
    shifted_cubic_count,
    special_value_check,
)

__version__ = "0.1.0"

__all__ = [
    "CongruenceError",
    "CurveSpec",
    "DEFAULT_SIZE_CAP",
    "FieldCtx",
    "FieldError",
    "IDENTITY_NAMES",
    "RoundingGuardError",
    "TOL",
    "VerifyReport",
    "add_char",
    "char_order",
    "count_bruteforce",
    "count_naive",
    "count_theorem",
    "cubic_transform_check",
    "davenport_hasse",
    "delta_char",
    "delta_elem",
    "e34_trace",
    "gauss_sum",
    "gauss_table",
    "greene_binom",
    "hf_eval",
    "jacobi_multi",
    "jacobi_sum",
    "legendre",
    "lennon_trace",
    "make_field",
    "mul_char",
    "shifted_cubic_count",
    "special_value_check",
    "thm_coeffs",
    "trace_frobenius",
    "verify_identity",
]
