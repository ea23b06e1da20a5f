"""Exception types raised by the library.

Everything derives from SteinlabError so callers can catch broadly.
"""


class SteinlabError(Exception):
    pass


class ShapeMismatch(SteinlabError):
    """Structure-constant, star, unit or trace arrays have inconsistent shapes."""


class GroupInvalid(SteinlabError):
    """Multiplication table fails the group axioms."""


class WeightsNotNormalized(SteinlabError):
    """Block trace weights do not sum to 1."""


class ActionInvalid(SteinlabError):
    """Candidate group action is not by trace-preserving *-automorphisms."""


class NotSemisimple(SteinlabError):
    """Algebra does not decompose into full matrix blocks."""


class NotAbelian(SteinlabError):
    """Operation requires an abelian group."""


class NotSubalgebra(SteinlabError):
    """Given span is not a unital *-subalgebra."""


class NotSubgroup(SteinlabError):
    """Given element set is not closed under the group operations."""


class UnitsInvalid(SteinlabError):
    """Candidate matrix units fail the matrix-unit relations."""


class NotGenerating(SteinlabError):
    """Set does not generate the algebra as a unital *-algebra."""


class NotRightClosed(SteinlabError):
    """Subspace is not invariant under the right module action."""


class RankAmbiguous(SteinlabError):
    """Numerical rank decision has no clear spectral gap."""


class InexactAlgebra(SteinlabError):
    """Structure constants miss the axioms in GNS-orthonormal coordinates by
    more than the exactness bound."""


class DenseLimitExceeded(SteinlabError):
    """A connected block of a linear system is too large for the dense solver."""


class SpecInvalid(SteinlabError):
    """Experiment or object description cannot be parsed."""
