"""Exception hierarchy shared across the package, the entry-check helpers
that raise it, and `frozen`, which makes the package's value classes."""

from operator import attrgetter
from sys import maxsize


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


class FrozenInstanceError(AttributeError):
    """Assignment to or deletion of an attribute of a frozen value."""


_MISSING = object()


class field:
    """Options for one field of a `frozen` class: its default, whether the
    constructor takes it, and whether `==` and `hash` read it."""
    __slots__ = ("default", "init", "compare")

    def __init__(self, *, default=_MISSING, init: bool = True, compare: bool = True):
        self.default, self.init, self.compare = default, init, compare


def frozen(cls):
    """Make `cls` an immutable value compared by its fields, as
    `@dataclass(frozen=True)` does, with the same behaviour.  The fields are
    the class's annotations in order, each with a default or a `field()`.
    The constructor takes the `init` fields positionally or by keyword, sets
    them with `object.__setattr__`, then calls `self.__post_init__()` if the
    class has one, looked up per call so that it can be swapped on the class.
    `==` returns NotImplemented for another class and, like `hash`, reads the
    compared fields as a tuple; `repr` is `QualName(f=v!r, ...)`, or the
    MalformedInputError of `_repr_text` for an integer too long to write;
    setting or deleting any attribute raises FrozenInstanceError.  A method
    the class defines, the constructor included, is kept.

    Why not `dataclasses`: it compiles six methods with `exec` for each class
    and imports `inspect` (with `ast`, `dis` and `tokenize`).  For fibcalc's
    23 value classes that took 15-25 ms and 6.5-8 ms of a 25-39 ms import
    (2 vCPU, Python 3.11).  Here one function is compiled per class, the
    constructor, so a construction costs what it did; the other methods are
    shared."""
    names, params, defaults, compared = [], [], [], []
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, field):
            spec = field(default=spec)
        elif spec.default is _MISSING:
            delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        names.append(name)
        if spec.compare:
            compared.append(name)
        if spec.init:
            params.append(name)
            if spec.default is not _MISSING:
                defaults.append(spec.default)
    cls.__value_fields__ = tuple(names)
    cls.__value_init__ = tuple(params)
    if len(compared) == 1:
        get = attrgetter(compared[0])
        cls.__value_key__ = lambda self: (get(self),)
    else:
        cls.__value_key__ = attrgetter(*compared)
    if "__init__" not in cls.__dict__:
        lines = [f"    _set(self, {name!r}, {name})" for name in params]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace = {}
        exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(lines or ["    pass"]),
             {"_set": object.__setattr__}, namespace)
        constructor = namespace["__init__"]
        constructor.__defaults__ = tuple(defaults) or None
        constructor.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = constructor
    for name, method in _VALUE_METHODS.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def _eq(self, other):
    if other.__class__ is self.__class__:
        key = self.__class__.__value_key__
        return key(self) == key(other)
    return NotImplemented


def _hash(self):
    return hash(self.__class__.__value_key__(self))


def _repr(self):
    cls = self.__class__
    return f"{cls.__qualname__}(" + ", ".join(
        f"{name}={_repr_text(getattr(self, name), name)}" for name in cls.__value_fields__) + ")"


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_VALUE_METHODS = {"__eq__": _eq, "__hash__": _hash, "__repr__": _repr,
                  "__setattr__": _setattr, "__delattr__": _delattr}


def replace(obj, /, **changes):
    """A copy of the `frozen` value `obj` with `changes` to its fields, built
    through its constructor, so that every check runs again."""
    for name in obj.__value_init__:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)


def _unchecked(cls, *values):
    """An instance of the `frozen` class `cls` with its fields, in order, set
    to `values`, which are already known valid: the constructor, its checks
    and its normalization do not run.  Shared by every module that derives
    checked values from checked values."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__value_fields__, values))
    return obj


def _int_text(value: int, what: str) -> str:
    """`str(value)`, or a MalformedInputError naming the digit count when
    `value` has more digits than Python writes as text (4300 unless
    `sys.set_int_max_str_digits` says otherwise)."""
    try:
        return str(value)
    except ValueError:
        raise MalformedInputError(
            f"{what} of {_digit_count(value)} digits is too long to write") from None


def _repr_text(value, what: str) -> str:
    """`repr(value)` of a value, or of tuples and lists of values nested to
    any depth, or the MalformedInputError of `_int_text` for an integer in
    it too long to write."""
    stack = [value]
    while stack:
        x = stack.pop()
        if type(x) is int:
            _int_text(x, what)
        elif type(x) in (tuple, list):
            stack.extend(x)
    return repr(value)


def _digit_count(value: int) -> int:
    """The number of decimal digits of `value`, without writing it."""
    value = abs(value)
    # 0.30103 is just above log10(2): the estimate is never above the count
    digits = max(1, int(value.bit_length() * 0.30103))
    while 10 ** digits <= value:
        digits += 1
    return digits


def _check_int(value, what: str) -> None:
    if type(value) is not int:
        raise MalformedInputError(f"{what} must be an integer, not {value!r}")


def _check_size(value: int, what: str) -> None:
    """A list of `value` entries, for an int `value`, cannot be made past
    sys.maxsize: a MalformedInputError naming it, not an OverflowError."""
    if value > maxsize:
        raise MalformedInputError(f"{what} {_int_text(value, what)} is too large")


def _check_type(value, cls, what: str) -> None:
    if not isinstance(value, cls):
        raise MalformedInputError(f"{what} must be a {cls.__name__}, not {value!r}")


def _check_sequence(value, what: str) -> None:
    if type(value) not in (tuple, list):
        raise MalformedInputError(f"{what} must be a tuple or a list, not {value!r}")


def _check_optional_str(value, what: str) -> None:
    if value is not None and type(value) is not str:
        raise MalformedInputError(f"{what} must be a string or None, not {value!r}")
