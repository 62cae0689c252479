"""Decision values returned by the congruence and conjugacy deciders."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .linalg import HMatrix


class Verdict(Enum):
    CONGRUENT = "congruent"
    NOT_CONGRUENT = "not_congruent"
    CONJUGATE = "conjugate"
    NOT_CONJUGATE = "not_conjugate"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Decision:
    """Outcome with an optional verified witness transformation.

    ``residual`` reports the witness verification error for positive
    verdicts; ``reason`` names the invariant that failed for negative ones.
    """

    verdict: Verdict
    witness: Optional[HMatrix] = None
    residual: Optional[float] = None
    reason: Optional[str] = None

    @property
    def positive(self) -> bool:
        return self.verdict in (Verdict.CONGRUENT, Verdict.CONJUGATE)

    def exit_code(self) -> int:
        if self.positive:
            return 0
        if self.verdict is Verdict.INCONCLUSIVE:
            return 3
        return 1
