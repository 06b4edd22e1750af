"""Machine-readable verdicts with witnesses.

Every verifier in the library returns a Report rather than a bare bool, so
that a failing check always names the concrete morphism, graph, or ideal
that broke it.  A Report holds the check's name, verdict and witnesses only;
time spent in a check is measured from outside the library.
"""
from __future__ import annotations

from dataclasses import dataclass, field

PASS = "PASS"
FAIL = "FAIL"
INAPPLICABLE = "INAPPLICABLE"
ERROR = "ERROR"

VERDICTS = (PASS, FAIL, INAPPLICABLE, ERROR)


@dataclass
class Report:
    name: str
    verdict: str
    witnesses: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == FAIL and not self.witnesses:
            raise ValueError(f"FAIL report {self.name!r} must carry a witness")

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def lines(self) -> list[str]:
        return [f"PROPERTY {self.name} {self.verdict}"] + [f"  {w}" for w in self.witnesses]

    def render(self) -> str:
        return "\n".join(self.lines())
