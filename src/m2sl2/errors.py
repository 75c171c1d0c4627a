"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all domain errors raised by this package."""


class GradeMismatchError(EngineError):
    """A substitution sent a letter to an expression of the wrong grade."""


class InvalidProfileError(EngineError):
    """A profile violates the variant-2 slot-count constraints."""


class NotEmbeddableError(EngineError):
    """No monotone injection embeds the source monomial into the target."""


class ZeroPolynomialError(EngineError):
    """The zero polynomial has no leading term."""


class ResourceBoundError(EngineError):
    """An enumeration exceeded its configured size cap."""


class CannotExtendError(EngineError):
    """A monotone injection cannot be extended over a required index."""


class ParseError(EngineError):
    """Syntax error in an input expression.

    Carries the offset of the offending token, counted in characters of the
    input string (the message says "at byte" for stable output, but a
    non-ASCII character before the token makes the two differ), and the set
    of token descriptions that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"syntax error at byte {offset}: {message}"
        if self.expected:
            detail += " (expected " + ", ".join(self.expected) + ")"
        super().__init__(detail)
