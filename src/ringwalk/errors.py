"""Shared exception types."""


class SizeCapExceeded(Exception):
    """An operation was asked to exceed its configured size cap."""


class FormulaNotApplicable(Exception):
    """A closed-form prediction was requested outside its hypotheses."""


class InconsistencyError(Exception):
    """An internal cross-check failed.

    Raised when two independent routes disagree on a verdict, when a
    graph is not the Cayley graph its carried coordinates describe, or
    when a search or a formula returns an impossible result.  Each is a
    bug in ringwalk, never a property of a ring spec.
    """
