"""Exception types shared across the package."""

from __future__ import annotations


class QuiverdecError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(QuiverdecError, ValueError):
    """A vector's length does not match the quiver it is used with."""


class ResourceLimit(QuiverdecError):
    """An enumeration would exceed the configured resource caps."""


class InvalidCaps(QuiverdecError, ValueError):
    """A resource cap or a search budget is not a positive integer; the command line exits 2."""


class NotInNRLambdaPlus(QuiverdecError, ValueError):
    """The vector is not a sum of positive roots orthogonal to the weight."""


class NotIsotropicSigma(QuiverdecError, ValueError):
    """The vector is not an isotropic Sigma member, where the query needs one."""


class InternalInconsistency(QuiverdecError):
    """A structural guarantee the algorithms rely on failed to hold.

    Raising this signals an implementation bug, never bad user input.
    """


class SumMismatch(QuiverdecError, ValueError):
    """Two decompositions being compared do not sum to the same vector."""


class InadmissibleStep(QuiverdecError, ValueError):
    """A reflection sequence hit a vertex that is not admissible."""

    def __init__(self, position: int, vertex: str):
        self.position = position
        self.vertex = vertex
        super().__init__(
            f"reflection at vertex {vertex!r} (step {position}) is not admissible"
        )

