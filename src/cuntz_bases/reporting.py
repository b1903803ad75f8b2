"""Uniform pass/fail reports for the relation and identity checkers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# the names of the verification suites, by which ``verification.CHECKS`` groups its checks
SUITES = ("cuntz", "walsh", "sine", "entropy", "cantor")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one named relation over a family of inputs.

    ``max_violation`` is 0.0 for an exact pass; ``witness`` names the first
    case with the largest gap when the check fails.  ``worst_case`` names
    that case whether or not the check failed (it defaults to ``witness``),
    so a report judged again at a tighter tolerance still has its witness.
    ``worst_case`` and ``elapsed_s``, the check's wall time when a suite
    runner measured it, take no part in equality, the text line or the
    JSON, so those stay deterministic.
    """

    relation: str
    passed: bool
    max_violation: float
    tol: float = 0.0
    witness: Optional[str] = None
    checked: int = 0
    elapsed_s: Optional[float] = field(default=None, compare=False)
    worst_case: Optional[str] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.worst_case is None:
            object.__setattr__(self, "worst_case", self.witness)

    def judged(self, tol: float) -> "VerificationReport":
        """This report judged again at ``tol`` (its time is not kept)."""
        return _verdict(self.relation, self.max_violation, tol, self.worst_case, self.checked)

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


def _verdict(relation, worst, tol, worst_case, checked) -> VerificationReport:
    """The one pass rule of every check: worst <= tol, compared before the
    gap is rounded to a float.  A pass shows no witness but keeps its
    worst case."""
    passed = worst <= tol
    return VerificationReport(relation, passed, float(worst), tol,
                              None if passed else worst_case, checked,
                              worst_case=worst_case)


class Tally:
    """Counts the cases a check ran and keeps its largest gap.

    ``record`` counts one case, or ``cases`` cases judged together by one
    gap; ``absorb`` takes in a sub-report's count, gap and worst case.  The
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
                   f"{label}: {report.worst_case}" if report.worst_case else label)

    def report(self, relation: str, tol: float = 0) -> VerificationReport:
        # an equality check, whose gaps are booleans, keeps the integer tol 0
        return _verdict(relation, self.worst, tol, self.witness, self.checked)
