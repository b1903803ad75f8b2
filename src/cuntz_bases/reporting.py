"""Uniform pass/fail reports for the relation and identity checkers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .dyadic import _tol

# the names of the verification suites, by which ``verification.CHECKS`` groups its checks
SUITES = ("cuntz", "walsh", "sine", "entropy", "cantor")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one named relation over a family of inputs.

    ``max_violation`` is 0.0 for an exact pass; ``witness`` names the first
    case with the largest gap when the check fails.  ``elapsed_s``, the
    check's wall time when a suite runner measured it, takes no part in
    equality, the text line or the JSON, so those stay deterministic.
    """

    relation: str
    passed: bool
    max_violation: float
    tol: float = 0.0
    witness: Optional[str] = None
    checked: int = 0
    elapsed_s: Optional[float] = field(default=None, compare=False)

    def to_json(self, timings: bool = False) -> dict:
        data = {
            "relation": self.relation,
            "maxViolation": self.max_violation,
            "witness": self.witness,
            "passed": self.passed,
            "tol": self.tol,
            "checked": self.checked,
        }
        if timings:
            data["elapsedSeconds"] = self.elapsed_s
        return data

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"{status} {self.relation} (max violation {self.max_violation:.3e}"
        if self.checked:
            msg += f", {self.checked} checks"
        msg += ")"
        if not self.passed and self.witness:
            msg += f" witness: {self.witness}"
        return msg


class Tally:
    """Counts the cases a check ran and keeps its largest gap.

    ``record`` counts one case, or ``cases`` cases judged together by one
    gap; ``absorb`` takes in a sub-report's count, gap and witness.  The
    witness kept is that of the first case to reach the largest gap.
    """

    def __init__(self):
        self.checked = 0
        self.worst = 0
        self.witness: Optional[str] = None

    def _keep(self, gap, witness) -> None:
        if gap > self.worst:
            self.worst, self.witness = gap, witness

    def record(self, gap, witness: Optional[str], cases: int = 1) -> None:
        self.checked += cases
        self._keep(gap, witness)

    def absorb(self, report: VerificationReport, label: str) -> None:
        self.checked += report.checked
        self._keep(report.max_violation,
                   f"{label}: {report.witness}" if report.witness else label)

    def report(self, relation: str, tol: float = 0) -> VerificationReport:
        """The one pass rule of every check: worst <= tol, compared before
        the gap is rounded to a float.  A pass shows no witness."""
        # an equality check, whose gaps are booleans, keeps the integer tol 0
        passed = self.worst <= _tol(tol)
        return VerificationReport(relation, passed, float(self.worst), tol,
                                  None if passed else self.witness, self.checked)
