"""Exception types shared across the library."""


class SwapregError(Exception):
    """Base class for all library errors.

    An error raised by a round of an approachability loop carries the
    Trajectory of the rounds completed before it as `partial`.
    """

    partial = None


class DegenerateSpan(SwapregError):
    """Input points do not span the ambient space."""


class NoConvergence(SwapregError):
    """Iterative solver hit its iteration cap before reaching tolerance."""


class UnsupportedSet(SwapregError):
    """The requested operation is not available for this set variant."""


class VertexBlowup(SwapregError):
    """Vertex enumeration would exceed the configured cap."""


class RepresentationMissing(SwapregError):
    """The set has no available V- or H-representation for this operation."""


class NumericalFailure(SwapregError):
    """LP pivoting broke down (tiny pivots / iteration cap)."""


class MembershipViolation(SwapregError):
    """A point that must belong to a set failed its membership check."""


class SolverFailure(SwapregError):
    """A saddle-point solver could not produce a usable answer."""


class AdversaryFault(SwapregError):
    """The adversary emitted a loss outside the loss set."""


class DimBlowup(SwapregError):
    """Feature map dimension exceeds the configured cap."""


class NoCertifiedDeviation(SwapregError):
    """No feasible deviation could be certified (should be unreachable)."""


class PremiseViolated(SwapregError):
    """A Pythagorean-lemma premise failed at a specific index."""

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"premise violated at t={index}")
