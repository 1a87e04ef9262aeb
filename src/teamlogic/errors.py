"""Shared exception types, and the list check of the JSON readers."""

from __future__ import annotations


class ParseError(ValueError):
    """Syntax error in a formula or instance text, with a character offset."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class GuardLimitError(RuntimeError):
    """An enumeration would exceed a configured resource guard.

    Guards are refusal bounds for exponential enumerations; callers can
    raise them explicitly where they know what they are doing.
    """


def _expect_list(value, what: str):
    """`value` if it is a list or tuple: a string is not read as its characters."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, not {type(value).__name__}")
    return value
