"""Exception types shared across the package."""


class Nlp2DlpError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(Nlp2DlpError):
    """Syntax or lexical error in a program source."""

    def __init__(self, message, origin="<string>", line=0, col=0):
        super().__init__(message)
        self.message = message
        self.origin = origin
        self.line = line
        self.col = col

    def __str__(self):
        return f"{self.origin}:{self.line}:{self.col}: {self.message}"


class ResourceLimitError(Nlp2DlpError):
    """An enumeration cap or output-size guard was exceeded."""


class StageInputError(Nlp2DlpError):
    """A translation stage, or ``print_dlv``, received a program outside
    its input class."""
