"""Exception types shared across the package."""


class CoxeterError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CoxeterError):
    """Malformed input: a group definition, a word, or an automaton's JSON.

    `line` is the 1-based line of the group definition at fault, or None
    when there is no such line (a word, an unreadable file, an empty
    definition); the message names the line only when there is one.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line

    def __str__(self) -> str:
        if self.line is None:
            return self.args[0]
        return f"line {self.line}: {self.args[0]}"


class FieldMismatchError(CoxeterError):
    """Scalars from different fields were combined, or an order does not
    embed in the field."""


class SystemMismatchError(CoxeterError):
    """Elements of different Coxeter systems were combined."""


class InfiniteParabolicError(CoxeterError):
    """An operation that needs a finite standard parabolic got an infinite one."""


class ResourceLimitError(CoxeterError):
    """A configured cap (ball size, word length, state count, enumeration
    size) was exceeded before the computation finished."""


class PreconditionError(CoxeterError):
    """A caller violated a documented precondition."""


class InvariantViolation(CoxeterError):
    """An internal invariant failed; indicates a bug, not bad input."""
