"""Exception hierarchy shared across the package, and the two helpers that
raise ConfigError: the type check of config fields and the read of a
user-supplied text file."""

import sys


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


_KIND_TEXT = {int: "an integer", float: "a number", str: "a string"}


def require(value, kind: type, name: str) -> None:
    """Raise ConfigError naming the field unless value is an int (kind int),
    a finite number (kind float, where an int also does) or a string (kind
    str); a bool is none of these."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ConfigError(f"{name} must be {_KIND_TEXT[kind]}")
    # Compared, not converted: an int too large for a float is not finite either.
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite")


def read_text(path, what: str) -> str:
    """The UTF-8 text of a user-supplied file; ConfigError naming it when it
    cannot be read (missing, a directory, not UTF-8)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
