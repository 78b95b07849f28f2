"""Exception types shared across the package.

Precondition violations (bad arguments, incompatible shapes) and numerical
invariant violations (normalization drift, lost precision) are kept in
separate branches of the hierarchy so callers -- in particular the CLI --
can map them to distinct exit codes.
"""


class ClickstatsError(Exception):
    """Base class for all package-specific errors."""


class DescriptorError(ClickstatsError):
    """A JSON state/detector descriptor is malformed or names an unknown kind."""


# --- precondition violations -------------------------------------------------

class NegativeConstantTerm(ClickstatsError):
    """The constant term of a response series must be non-negative."""


class OrderTooLow(ClickstatsError):
    """A truncated series is too short for the requested evaluation."""


class InsufficientOrder(ClickstatsError):
    """Not enough moments are available to build the requested matrix."""


class OrderExceedsDiodes(ClickstatsError):
    """A moment order beyond the number of diodes was requested."""


class ZeroAmplitude(ClickstatsError):
    """The requested superposition is undefined at zero amplitude."""


class SqueezingOutOfRange(ClickstatsError):
    """Two-mode squeezing parameter must satisfy |xi| < 1."""


class ZeroMeanPhotonNumber(ClickstatsError):
    """A quantity that divides by the mean photon number got a zero mean."""


class DegenerateMean(ClickstatsError):
    """Mean click number at 0 or N leaves the binomial Q parameter undefined."""


class DegenerateBank(ClickstatsError):
    """At least two diodes are required for second-order witnesses."""


class LengthMismatch(ClickstatsError):
    """Parallel lists of per-mode parameters differ in length."""


class EmptyHistogram(ClickstatsError):
    """An estimator was asked to work on a histogram with zero total counts."""


class NegativeResponse(ClickstatsError):
    """A response function dipped below zero on the checked domain."""


class UnboundedKernel(ClickstatsError):
    """A formal response (superlinear, or linear of slope above one) was
    paired with a truncated photon-number distribution of unknown family.
    Its per-level click kernels are signed and may grow faster than any
    geometric tail decays, so the truncated sum does not approximate
    anything; only states carrying an analytic family tag (or an exact,
    finite photon-number cutoff) support such responses."""


# --- numerical invariant violations ------------------------------------------

class NumericalInvariantViolation(ClickstatsError):
    """A computation finished but violated an internal consistency bound."""


class NormalizationViolation(NumericalInvariantViolation):
    """Probabilities failed to sum to one within the allowed slack."""


class NonHermitianResult(NumericalInvariantViolation):
    """An expectation value that must be real came out with a large
    imaginary residue; treated as an accuracy failure."""


class PrecisionLoss(NumericalInvariantViolation):
    """Cancellation exhausted the working precision; results are unreliable."""
