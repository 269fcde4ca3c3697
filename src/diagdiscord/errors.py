"""Exception types shared across the package."""


class DiagDiscordError(Exception):
    """Base class for all library errors."""


class NotHermitian(DiagDiscordError):
    """Input matrix is not Hermitian within tolerance."""


class ConvergenceFailure(DiagDiscordError):
    """Iterative eigensolver did not converge."""


class NotDensityMatrix(DiagDiscordError):
    """Matrix fails the Hermitian / PSD / unit-trace requirements."""


class NotPositiveSemidefinite(DiagDiscordError):
    """Matrix has an eigenvalue below the negativity floor."""


class SupportViolation(DiagDiscordError):
    """supp(rho) is not contained in supp(sigma); relative entropy diverges."""


class InvalidP(DiagDiscordError):
    """Schatten exponent p < 1."""


class OutOfRange(DiagDiscordError):
    """Scalar argument outside its admissible interval."""


class OutOfDomain(DiagDiscordError):
    """Arguments leave a bound's domain, or a rejection sampler runs out of attempts."""


class InvariantViolation(DiagDiscordError):
    """A computed result breaks an inequality the theory guarantees."""


class DimensionMismatch(DiagDiscordError):
    """Operator and state dimensions are incompatible."""


class InvalidRank(DiagDiscordError):
    """Requested rank outside 1..d_A*d_B."""


class InvalidDistribution(DiagDiscordError):
    """Probability vector is not a distribution."""


class InvalidBasis(DiagDiscordError):
    """Supplied vectors are not orthonormal."""


class InvalidChannel(DiagDiscordError):
    """Channel constructor arguments violate a channel invariant."""


class DegenerateOutput(DiagDiscordError):
    """Channel output is degenerate; common eigenbasis is ill-defined."""


class DegenerateMarginal(DiagDiscordError):
    """Measured marginal has a degenerate spectrum.

    Attributes:
        blocks: index ranges (start, stop) of the degenerate eigenvalue blocks.
        party: offending subsystem index for multi-sided maps, else None.
    """

    def __init__(self, message, blocks=(), party=None):
        super().__init__(message)
        self.blocks = tuple(blocks)
        self.party = party


class ParseError(DiagDiscordError):
    """Malformed state or channel file."""
