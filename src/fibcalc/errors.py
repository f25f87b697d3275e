"""Exception hierarchy shared across the package, and the entry-check helpers
that raise it."""


class FibcalcError(Exception):
    """Base class for all library errors."""


class MalformedInputError(FibcalcError, ValueError):
    """Input data violates a structural invariant (bad index, ragged matrix, ...)."""


class RankMismatchError(FibcalcError, ValueError):
    """Operands have incompatible ranks, genera, or dimensions."""


class PreconditionError(FibcalcError, ValueError):
    """A documented operation precondition does not hold."""


class InapplicableError(FibcalcError, ValueError):
    """The operation's hypotheses are not met (e.g. a bound stated only for g >= 2)."""


class UnsupportedFiberError(FibcalcError, ValueError):
    """Operation is defined only for pure handlebody fibers."""


class MissingPayloadError(FibcalcError, ValueError):
    """A pi1-level payload is required but absent."""


class BudgetExceededError(FibcalcError):
    """Enumeration would exceed the configured budget; no partial result is returned."""


class CatalogError(FibcalcError, KeyError):
    """Unknown catalog name."""


class AbelianizationError(FibcalcError, ValueError):
    """Presentation abelianization is not infinite cyclic."""


class ScriptError(FibcalcError, ValueError):
    """Surgery-script syntax or execution error."""

    def __init__(self, message, line=None, column=None, statement=None):
        self.line = line
        self.column = column
        self.statement = statement
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        elif statement is not None:
            loc = f" (statement {statement})"
        super().__init__(message + loc)


class SchemaError(FibcalcError, ValueError):
    """JSON (de)serialization error, carrying the offending path."""

    def __init__(self, message, path="$"):
        self.path = path
        super().__init__(f"{message} at {path}")


def _unchecked(cls, *values):
    """An instance of the frozen dataclass `cls` with its fields set to
    `values`, which are already known valid: the constructor's check and
    normalization do not run.  Shared by every module that derives checked
    values from checked values."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


def _check_int(value, what: str) -> None:
    if type(value) is not int:
        raise MalformedInputError(f"{what} must be an integer, not {value!r}")


def _check_type(value, cls, what: str) -> None:
    if not isinstance(value, cls):
        raise MalformedInputError(f"{what} must be a {cls.__name__}, not {value!r}")


def _check_sequence(value, what: str) -> None:
    if type(value) not in (tuple, list):
        raise MalformedInputError(f"{what} must be a tuple or a list, not {value!r}")


def _check_optional_str(value, what: str) -> None:
    if value is not None and type(value) is not str:
        raise MalformedInputError(f"{what} must be a string or None, not {value!r}")
