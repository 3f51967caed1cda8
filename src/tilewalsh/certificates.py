"""Machine-checked inequality instances emitted by decomposition steps."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .signal import num_to_json

FLOAT_RTOL = 1e-9


@dataclass(frozen=True)
class Certificate:
    """One checked inequality lhs <= rhs.

    mode "exact" compares rationals exactly; mode "float" allows a 1e-9
    relative slack.  theorem_backed certificates must always pass; a failure
    is an implementation bug and gates the CLI exit code.
    """

    name: str
    lhs: Fraction | float
    rhs: Fraction | float
    mode: str
    passed: bool
    theorem_backed: bool = True
    context: dict = field(default_factory=dict)

    @staticmethod
    def make(name, lhs, rhs, theorem_backed=True, context=None) -> "Certificate":
        exact = isinstance(lhs, (Fraction, int)) and isinstance(rhs, (Fraction, int))
        if exact:
            passed = lhs <= rhs
            mode = "exact"
        else:
            lhs_f, rhs_f = float(lhs), float(rhs)
            passed = lhs_f <= rhs_f * (1 + FLOAT_RTOL) + 1e-300
            mode = "float"
        return Certificate(
            name=name,
            lhs=lhs,
            rhs=rhs,
            mode=mode,
            passed=passed,
            theorem_backed=theorem_backed,
            context=dict(context or {}),
        )

    def to_json(self) -> dict:
        """lhs and rhs in num_to_json, an int bound too ("n/1"); the context
        as it is, for the report writer (signal.json_text)."""
        return {
            "name": self.name,
            "lhs": num_to_json(self.lhs),
            "rhs": num_to_json(self.rhs),
            "mode": self.mode,
            "pass": self.passed,
            "theorem_backed": self.theorem_backed,
            "context": self.context,
        }


def all_theorem_backed_pass(certs) -> bool:
    return all(c.passed for c in certs if c.theorem_backed)
