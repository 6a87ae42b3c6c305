"""Exception types raised by the library."""

from __future__ import annotations


class SubclustError(Exception):
    """Base class for library-specific failures."""


class DataFormatError(SubclustError, ValueError):
    """Input data that cannot be parsed, or that the solvers cannot take as given."""


class DegenerateAffinityError(SubclustError, ValueError):
    """The coefficient matrix produced an all-zero affinity graph."""


class UnassignableSampleError(SubclustError, RuntimeError):
    """Out-of-sample points whose residual is +inf for every class."""

    def __init__(self, columns=None):
        self.columns = list(columns) if columns is not None else []
        where = f"column(s) {self.columns}" if self.columns else "the query point"
        super().__init__(f"no class produced a finite residual for {where}")
