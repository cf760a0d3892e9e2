"""Verification report records shared by the identity suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerifyReport:
    """Outcome of checking one formula (or one identity grid) against an oracle.

    For identity grids, `disc` is the worst absolute discrepancy seen and
    `worst_case` the parameter tuple achieving it; `cases`/`skipped` count
    grid points checked respectively gated out by preconditions.  The library
    leaves `ms` at 0.0; the CLI sets the `ms` of the row it writes to the
    wall time of the step that produced it, its one clock.
    """

    name: str
    q: int
    formula: complex = 0j
    oracle: float | int = 0
    match: bool = False
    disc: float = 0.0
    tol: float = 0.0
    cases: int = 0
    skipped: int = 0
    worst_case: tuple = field(default_factory=tuple)
    e: int | None = None
    d: int | None = None
    a: int | None = None
    b: int | None = None
    ms: float = 0.0

    def to_row(self) -> dict:
        """Stable report row: fixed key set and order used for JSON/CSV output."""
        return {
            "q": self.q,
            "e": self.e,
            "d": self.d,
            "a": self.a,
            "b": self.b,
            "formula_re": float(self.formula.real),
            "formula_im": float(self.formula.imag),
            "oracle": self.oracle,
            "match": bool(self.match),
            "disc": float(self.disc),
            "ms": self.ms,
        }
