"""Exception types raised by the library."""

from __future__ import annotations


class SubclustError(Exception):
    """Base class for library-specific failures."""


class DataFormatError(SubclustError, ValueError):
    """Input data that cannot be parsed, or that the solvers cannot take as given."""


class DegenerateAffinityError(SubclustError, ValueError):
    """The coefficient matrix produced an all-zero affinity graph."""


class UnassignableSampleError(SubclustError, RuntimeError):
    """Out-of-sample points whose residual is +inf for every class.

    ``columns`` lists them by column of the matrix that was assigned;
    ``where`` names them in the message, by default as those columns.
    """

    def __init__(self, columns, where=None):
        self.columns = list(columns)
        if where is None:
            where = f"column(s) {self.columns}"
        super().__init__(f"no class produced a finite residual for {where}")
