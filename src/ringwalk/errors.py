"""Shared exception types."""


class SizeCapExceeded(Exception):
    """An operation was asked to exceed its configured size cap."""


class FormulaNotApplicable(Exception):
    """A closed-form prediction was requested outside its hypotheses."""


class InconsistencyError(Exception):
    """An internal cross-check failed.

    Raised when two independent routes disagree on a verdict, when a
    graph's carried translation action is not an automorphism group, or
    when a graph labelled by ring elements is not the Cayley graph its
    labels describe.  Each is a bug in ringwalk, never a property of a ring
    spec.
    """
