"""Exception types shared across the package.

Every error raised by the library derives from :class:`TopoprobeError`, so
callers (including the command line front end) can distinguish domain
failures from programming errors with a single except clause. Each kind
carries the command line's exit status as ``exit_code``: 1 for model
validation failures, 3 for numeric refusals, 2 for everything else.
"""

from __future__ import annotations


class TopoprobeError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = 2


class MissingVacuum(TopoprobeError):
    """The charge at index 0 does not behave as the vacuum, or there is none."""

    exit_code = 1


class NonMultiplicityFree(TopoprobeError):
    """A fusion multiplicity exceeds 1; only multiplicity-free theories are supported."""

    exit_code = 1


class ConsistencyViolation(TopoprobeError):
    """Model data fails an axiom check.

    Carries the full consistency report (when available) as ``report`` so the
    failing equation instances and their residuals can be inspected.
    """

    exit_code = 1

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ForbiddenConnectingCharge(TopoprobeError):
    """The requested connecting charge cannot arise between the given pair."""


class UnsupportedBasisChange(TopoprobeError):
    """A density-matrix entry admits several connecting charges.

    Resolving such an entry would need the general two-sided recoupling move,
    which is outside the supported simple-entanglement sector.
    """


class ZeroProbability(TopoprobeError):
    """Conditioning was requested on an outcome of negligible probability."""

    exit_code = 3


class DegenerateTuning(TopoprobeError):
    """Two charge classes share a transmission probability; outcome statistics cannot separate them."""

    exit_code = 3


class NonAbelianSlide(TopoprobeError):
    """Loop slide requested over a charge of quantum dimension greater than 1."""


class InvalidCore(TopoprobeError):
    """Incompatible core charge for the requested solid-torus boundary."""


class ParseError(TopoprobeError):
    """Malformed configuration input; the message names the offending line or field."""


class UnitarityViolation(TopoprobeError):
    """Beam-splitter amplitudes do not satisfy |t|^2 + |r|^2 = 1."""
