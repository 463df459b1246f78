"""Exception types shared across the library.

Every failure the library can diagnose carries a short machine-readable
``condition`` tag and a human-readable ``witness`` so callers (in particular
the command line driver) can report exactly what broke and where.
"""

from __future__ import annotations


class DracknError(Exception):
    """Base class for all library-specific failures."""


class FormatError(DracknError):
    """Malformed input text (cover / seidel / gh files, CLI payloads)."""


class UnsupportedError(DracknError):
    """Operation requested outside the supported group or field families."""


class GroupMismatchError(DracknError):
    """Two objects built over different groups (or root orders) were mixed."""


class CoverStructureError(DracknError):
    """The cover axioms are violated (bad arc matrix or bad adjacency input)."""

    def __init__(self, condition: str, witness: str = ""):
        self.condition = condition
        self.witness = witness
        super().__init__(f"{condition}: {witness}" if witness else condition)


class VerificationError(DracknError):
    """A structural verification check failed on a syntactically valid cover."""

    def __init__(self, condition: str, witness: str = ""):
        self.condition = condition
        self.witness = witness
        super().__init__(f"{condition}: {witness}" if witness else condition)


class RoutesDisagreeError(DracknError):
    """Two exact computations of the same quantity disagree.

    This is an internal consistency failure, not a property of the input:
    for example a verified cover whose multiplicities are not integral, or a
    construction whose certificate differs from its closed-form parameters.
    """
