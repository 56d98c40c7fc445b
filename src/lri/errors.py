"""Exception types shared across the package.

Errors in input text, rule bases and search budgets derive from LriError, so
callers (notably the command line front end) can separate expected failures
from bugs.  A bad argument to a library function (say, a non-ground formula)
raises a plain ValueError or IndexError instead; the command line reports it
as an input error, exit 2 (exit 6 for bad `compat` component indices).
"""

from __future__ import annotations


class LriError(Exception):
    """Base class for the package's input, rule-base and budget errors."""


class FormulaSyntaxError(LriError):
    """Input text does not match the formula grammar.

    Carries the character offset of the failure and a description of what
    would have been acceptable there.
    """

    def __init__(self, message: str, position: int, expected: str = "") -> None:
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.core = message
        self.position = position
        self.expected = expected


class UnknownSymbol(LriError):
    """A predicate or constant is used that was not declared."""


class ArityMismatch(LriError):
    """A predicate is applied to the wrong number of arguments."""


class EmptyDomain(LriError):
    """A schema with variables cannot be grounded: no constants declared."""


class ResourceLimit(LriError):
    """The satisfiability search exceeded its decision budget."""


class InconsistentAxioms(LriError):
    """The axiom set of a domain of rules is itself unsatisfiable."""


class DuplicateHypothesis(LriError):
    """The same formula appears twice in a hypothesis list."""


class AxiomHypothesisOverlap(LriError):
    """A formula appears both as an axiom and as a hypothesis."""


class MixedDomains(LriError):
    """An operation combined justifications from different domains of rules."""


class IncompleteRenaming(LriError):
    """A renaming map does not cover every symbol it is applied to."""
