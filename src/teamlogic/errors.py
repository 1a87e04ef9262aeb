"""Shared exception types, and the list check of the JSON readers."""

from __future__ import annotations


class ParseError(ValueError):
    """Syntax error in a formula or instance text, with a character
    offset; `reason` is the message without it."""

    def __init__(self, message: str, position: int | None = None):
        self.reason = message
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class GuardLimitError(RuntimeError):
    """An enumeration or search would exceed a configured resource guard.

    Guards are refusal bounds for work exponential in the guarded size;
    callers can raise them explicitly where they know what they are
    doing. `guard` names the keyword argument that sets the bound,
    `limit` is its value and `requested` the size that exceeded it.
    """

    def __init__(self, message: str, *, guard: str | None = None,
                 requested: int | None = None, limit: int | None = None):
        super().__init__(message)
        self.guard = guard
        self.requested = requested
        self.limit = limit


def _expect_list(value, what: str):
    """`value` if it is a list or tuple: a string is not read as its characters."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, not {type(value).__name__}")
    return value
