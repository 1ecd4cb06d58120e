"""Exception hierarchy shared across the package, and the type check of
config fields that raises ConfigError."""


class UpliftMineError(Exception):
    """Base class for all data- and pipeline-level errors."""


class LogParseError(UpliftMineError):
    """Raised when an event-log stream cannot be parsed.

    Carries position information when it is known: ``byte_offset`` for XML
    input, ``row`` (1-based, header excluded) for CSV input.
    """

    def __init__(self, message, byte_offset=None, row=None):
        super().__init__(message)
        self.byte_offset = byte_offset
        self.row = row


class SchemaError(UpliftMineError):
    """A declared attribute schema does not fit the observed data."""


class PositivityError(UpliftMineError):
    """A treatment has an empty treated or control group."""


class ConfigError(UpliftMineError):
    """A pipeline configuration file is invalid."""


def require(value, kind: type, name: str) -> None:
    """Raise ConfigError naming the field unless value is an int (kind int)
    or a number (kind float, where an int also does); a bool is neither."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}")
