"""Exception types shared across the package.

Every refused input raises InvalidInput, its message naming the broken
precondition; a brute-force search over its subset cap raises
SearchSpaceTooLarge.  Both subclass FengRaoError; the CLI exits 2 and 4.
"""


class FengRaoError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(FengRaoError):
    """An input outside the preconditions of the function it was given to."""


class SearchSpaceTooLarge(FengRaoError):
    """Exhaustive search would exceed the configured subset cap."""
