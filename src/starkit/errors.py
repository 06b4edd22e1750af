"""Shared exception types."""


class StarkitError(Exception):
    """Base class for all starkit errors."""


class InvalidCategory(StarkitError):
    """A raw composition table failed validation; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class PreconditionFailed(StarkitError):
    """An operation was invoked outside its stated preconditions."""


class BoundExceeded(StarkitError):
    """An enumeration was requested beyond its configured bound."""


class IdealClosureViolation(StarkitError):
    """A computed morphism class that must be an ideal failed closure.

    This always signals a bug in the caller's inputs or in the library,
    never a legitimate negative result.
    """


class ValidationFailed(StarkitError):
    """A constructed completion failed its mandatory post-construction checks."""


class Exhausted(StarkitError):
    """A counterexample search ran out of candidates without finding a witness."""


class CorpusSyntaxError(StarkitError):
    """Corpus text could not be parsed; carries the line."""

    def __init__(self, message, line):
        self.line = line
        super().__init__(f"line {line}, col 1: {message}")
