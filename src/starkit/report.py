"""Machine-readable verdicts with witnesses.

Every verifier in the library returns a Report rather than a bare bool, so
that a failing check always names the concrete morphism, graph, or ideal
that broke it.  A Report holds the check's name, verdict and witnesses only;
time spent in a check is measured from outside the library.
"""
from __future__ import annotations

from .core import Record

PASS = "PASS"
FAIL = "FAIL"
INAPPLICABLE = "INAPPLICABLE"
ERROR = "ERROR"

VERDICTS = (PASS, FAIL, INAPPLICABLE, ERROR)


class Report(Record):
    __slots__ = _fields = ("name", "verdict", "witnesses")
    __hash__ = None

    def __init__(self, name: str, verdict: str, witnesses: list[str] | None = None):
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        if verdict == FAIL and not witnesses:
            raise ValueError(f"FAIL report {name!r} must carry a witness")
        self.name, self.verdict = name, verdict
        self.witnesses: list[str] = [] if witnesses is None else witnesses

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def lines(self) -> list[str]:
        return [f"PROPERTY {self.name} {self.verdict}"] + [f"  {w}" for w in self.witnesses]

    def render(self) -> str:
        return "\n".join(self.lines())
