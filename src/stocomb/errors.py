"""Exception hierarchy shared by every stocomb module, and the checks
that a JSON value is a list of ids or numbers."""

import sys


class StocombError(Exception):
    """Base class for all library errors."""


class CapExceeded(StocombError):
    """An exhaustive enumeration would exceed its configured size cap."""


class Infeasible(StocombError):
    """No feasible solution exists for the requested client set."""


class Disconnected(Infeasible):
    """A terminal vertex cannot be reached in the given graph."""


class Unbounded(StocombError):
    """The linear program has unbounded optimum."""


class NumericalFailure(StocombError):
    """The LP solver hit its pivot limit without converging."""


class NotMonotone(StocombError):
    """A set function failed the nondecreasing check."""


class NotSubmodular(StocombError):
    """A set function failed the submodularity check."""


class DegenerateInstance(StocombError):
    """The independent expectation is zero, so the gap ratio is undefined."""


class UncertifiedScheme(StocombError):
    """A gap bound was requested without a certified cost-sharing scheme."""


class SchemaError(StocombError):
    """An instance file does not match the documented JSON schema."""


def list_of_ids(value, what: str) -> list:
    """``value`` if it is a list; a string would read as its characters and
    an object as its keys."""
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list of ids, not {type(value).__name__}")
    return value


def number(value, what: str):
    """``value`` if it is a JSON number, or a list (nested to any depth) of
    them where an array belongs; ``float`` and numpy would read a string or
    a boolean as a number, and fail on an integer beyond the float range.
    The reader checks the shape."""
    if isinstance(value, list):
        for item in value:
            number(item, what)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what} must be a number, not {type(value).__name__}")
    elif isinstance(value, int) and abs(value) > sys.float_info.max:
        raise SchemaError(f"{what} must be a number in the float range")
    return value
