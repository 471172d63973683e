"""Exception types shared across the package."""


class VnError(Exception):
    """Base class for every error raised by this package."""


class ParameterRangeError(VnError, ValueError):
    """A numeric parameter lies outside its allowed range."""


class MalformedWordError(VnError, ValueError):
    """A word contains letters outside the alphabet or cannot be parsed."""


class LevelTooSmallError(VnError, ValueError):
    """A requested level is below the deepest word of a generator table."""


class NotAPartitionError(VnError, ValueError):
    """A word set is not a complete prefix-free antichain."""


class NotABijectionError(VnError, ValueError):
    """An image list does not define a bijection between partition sets."""


class ArityError(VnError, ValueError):
    """Domain and image lists have different sizes."""


class WordTooShortError(VnError, ValueError):
    """The word is a proper prefix of domain words; the caller must extend it."""


class AlphabetMismatchError(VnError, ValueError):
    """Operands live over different alphabets."""


class SignUndefinedError(VnError, ValueError):
    """The parity map was requested over an even-degree alphabet."""


class NotVolumePreservingError(VnError, ValueError):
    """A generator that must preserve cone lengths does not."""


class InvolutionRequiredError(VnError, ValueError):
    """A base element or sequence entry exceeds order 2."""


class PlanInvariantError(VnError, ValueError):
    """A spinal sequence violates one of its structural conditions."""


class BudgetExceededError(VnError):
    """A loop built tables holding more letters in total than its work budget."""


class ExpressionError(VnError, ValueError):
    """Syntax or name-resolution failure in the expression language."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class FileFormatError(VnError, ValueError):
    """Malformed element, plan, or ball file."""

    def __init__(self, message: str, line: int | None = None):
        self.reason, self.line = message, line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
