"""Exception types shared across the package."""


class NTangleError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(NTangleError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    Covers out-of-range indices, parity mismatches (an odd-n measure applied
    to an even-n state and vice versa) and malformed operator shapes.
    """


class CapacityError(DomainError):
    """A requested state would exceed the configured qubit capacity."""


class UsageError(DomainError):
    """A request names no valid run: an unknown suite, measure or bench measure, or a bad setting."""


class ParseError(NTangleError, ValueError):
    """A state file or product expression could not be parsed."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.message = message
        self.line = line
        self.column = column
