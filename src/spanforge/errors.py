"""Exception types shared across the engine."""


class SpanforgeError(Exception):
    """Base class for every error raised by this package."""


class DomainMismatch(SpanforgeError):
    """Two maps or cells were combined but their (co)domains disagree."""


class CodomainMismatch(SpanforgeError):
    """A pullback was requested of maps with different codomains."""


class SquareDoesNotCommute(SpanforgeError):
    """A mediating map was requested for a cone that does not commute."""


class BaseMismatch(SpanforgeError):
    """Spans or cells over different base objects were combined."""


class ConditionFails(SpanforgeError):
    """The gluing condition for a pairing of cells does not hold."""


class MalformedTables(SpanforgeError):
    """Raw tables do not have the shape the structure requires, or hold out-of-range entries."""


class AxiomFails(SpanforgeError):
    """An internal category or groupoid read from input fails an axiom; the message names the first."""


class SizeLimitExceeded(SpanforgeError):
    """An enumeration would exceed the configured cap."""


class NotLex(SpanforgeError):
    """Functor data is missing or fails a limit-preservation witness."""


class NotInternalFunctor(SpanforgeError):
    """A pair of maps does not commute with the category structure."""


class NotAGroup(SpanforgeError):
    """Group structure was required but the table has no inverses."""


class KeyScheduleMismatch(SpanforgeError):
    """The number of round functions does not match the round count."""


class ParseError(SpanforgeError):
    """An input file could not be read or decoded."""
