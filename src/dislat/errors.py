"""Exception hierarchy shared by all dislat modules."""

from __future__ import annotations


class DislatError(Exception):
    """Base class for every error raised by this package."""


class NotALattice(DislatError):
    """The supplied cover relation does not describe a bounded lattice."""


class NotReduced(DislatError):
    """A transitive (redundant) edge was supplied as a cover."""


class CycleDetected(DislatError):
    """The supplied cover relation contains a directed cycle."""


class PairNotAdjunctable(DislatError):
    """(a, b) violates the adjunct preconditions: need a < b and a not covered by b."""


class LabelClash(DislatError):
    """Two structures being combined share an element label."""


class NotLowerDismantlable(DislatError):
    """The lattice minus its bottom is not a rooted tree."""


class NoSuchElement(DislatError):
    """An element label does not occur in the structure."""


class BadOption(DislatError):
    """A command-line option value is out of range."""


class BadGraph(DislatError):
    """A graph is not simple, or its JSON form is not vertices plus edges."""


class EmptyGraph(DislatError):
    """The operation needs at least one vertex."""


class BadPartition(DislatError):
    """A complete-multipartite part-size list needs k >= 2 parts, each >= 1."""


class HypothesisViolated(DislatError):
    """The input does not satisfy the operation's structural hypothesis."""


class ClassHasAdjunct(DislatError):
    """The neighborhood class contains an adjunct element and cannot be peeled."""


class NotInClass(DislatError):
    """A graph is not the non-ancestor graph of any rooted tree.

    ``which`` names the offending input ("first"/"second") when deciding a pair.
    """

    def __init__(self, message: str, which: str | None = None):
        super().__init__(message)
        self.which = which


class InternalInconsistency(DislatError):
    """A proved invariant failed at runtime; indicates corrupt input or a bug."""


class BudgetExceeded(DislatError):
    """A brute-force search hit its node budget before reaching a verdict."""


class DslError(DislatError):
    """Base class for DSL diagnostics; carries source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class DslSyntaxError(DslError):
    pass


class DuplicateElement(DslError):
    pass


class UnknownElement(DslError):
    pass
