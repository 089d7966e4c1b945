"""Exception types shared across the package."""


class GedError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(GedError):
    """A graph document violates the JSON schema or a graph invariant."""


class CostModelError(GedError):
    """A cost specification is invalid or cannot be applied to a label."""


class BudgetExceededError(GedError):
    """The exact oracle was asked for more nodes than its search budget allows."""


class CorpusFormatError(GedError):
    """A benchmark corpus directory does not have the expected layout."""
