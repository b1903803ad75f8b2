"""Uniform pass/fail reports for the relation and identity checkers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one named relation over a family of inputs.

    ``max_violation`` is 0.0 for an exact pass; ``witness`` names the first
    offending input when the check fails.  ``elapsed_s`` is the check's wall
    time when a suite runner measured it; it takes no part in equality, the
    text line or the default JSON, so those stay deterministic.
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
