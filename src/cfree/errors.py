"""What every cfree module shares: the exceptions and the value base.

Every error the library raises deliberately is one of the four
CFreeError classes below, so the command line layer can map them onto
stable exit codes.  Every value type (scalars, polynomials, series,
matrices, partitions, sequences and solved results) derives from
Frozen, the one immutability policy of the package.
"""


class CFreeError(Exception):
    """Base class; exit_code is what the CLI returns for this failure."""

    exit_code = 1


class ParseError(CFreeError):
    """Malformed textual input (polynomials, rationals, JSON specs)."""

    exit_code = 2

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at byte %d)" % (message, position)
        super().__init__(message)
        self.position = position


class DomainError(CFreeError):
    """Input is well formed but outside the operation's domain."""

    exit_code = 3


class LimitError(CFreeError):
    """A guarded size limit was exceeded (partition or word length)."""

    exit_code = 3


class InternalError(CFreeError):
    """An internal invariant failed; indicates a bug, not bad input."""

    exit_code = 4


class Frozen:
    """An immutable value with slots: stored once, compared, hashed and
    printed by its slot values in the order the subclass lists them.

    A subclass lists its slots in its own __slots__; a value whose
    equality is not slot equality overrides __eq__ and __hash__.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__name__,
            ", ".join("%s=%r" % pair for pair in zip(self.__slots__, self._values())),
        )
