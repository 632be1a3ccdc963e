"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes: parse errors, contract
violations on otherwise well-formed input, and resource exhaustion.
"""

from __future__ import annotations

from functools import cached_property


class LpcosetError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LpcosetError):
    """Malformed or mismatched input values (bad letters, wrong alphabet)."""


class ParseError(InputError):
    """Text input (word grammar, presentation file, table dump) failed to parse."""


class PreconditionError(InputError):
    """A documented operation precondition does not hold for the given input."""


class ResourceLimitError(LpcosetError):
    """A configured resource ceiling was reached before an answer was found."""


class GaveUp(ResourceLimitError):
    """Enumeration hit the hard coset ceiling without closing.

    This never asserts that the index is infinite; it only reports that the
    configured budget ran out.
    """

    def __init__(self, message: str, level: int, max_cosets: int):
        super().__init__(message)
        self.level = level
        self.max_cosets = max_cosets


class LowIndexIncomplete(ResourceLimitError):
    """Low-index enumeration stopped early; ``partial`` folds on first read."""

    def __init__(self, message: str, partial):
        super().__init__(message)
        self._partial = partial

    @cached_property
    def partial(self):
        return self._partial()
