"""Verification report records of the identity grids and the 2F1 special values."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerifyReport:
    """Outcome of checking one identity grid (or one special value) against
    an oracle.

    `disc` is the worst absolute discrepancy seen and `worst_case` the
    parameter tuple achieving it; `cases`/`skipped` count grid points checked
    respectively gated out by preconditions.  `d` is the section order of a
    Davenport-Hasse report.  The row has no ms: the CLI adds the wall time
    of the step that produced it.
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
    d: int | None = None

    def to_row(self) -> dict:
        """The report's row columns; the CLI writes the missing ones as null."""
        return {
            "q": self.q,
            "d": self.d,
            "formula_re": float(self.formula.real),
            "formula_im": float(self.formula.imag),
            "oracle": self.oracle,
            "match": bool(self.match),
            "disc": float(self.disc),
        }
