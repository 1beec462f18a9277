"""Exception hierarchy shared by every stocomb module, and the check
that a JSON value is a list of ids."""


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
