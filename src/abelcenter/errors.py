"""Exception types shared across the package.

Validation errors signal malformed inputs (bad job specs, inconsistent
coefficient lists, preconditions a caller can check up front).  Solver
errors signal numeric failures discovered mid-computation; they carry
enough context in the message to diagnose the run that produced them.
"""

__all__ = [
    "AbelCenterError", "ValidationError", "SolverError", "BlowUp", "StepUnderflow",
    "MaxStepsExceeded", "DenominatorTooSmall", "NotContractive", "NoConvergence",
    "OutsideMonotoneRegion", "OutsideTransformImage", "LeftMonotoneRegion",
]


class AbelCenterError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(AbelCenterError):
    """A payload, argument, or declaration failed structural validation."""


class SolverError(AbelCenterError):
    """Base class for numeric failures during integration or iteration."""


class BlowUp(SolverError):
    """The solution escaped the trust ball before reaching the endpoint."""


class StepUnderflow(SolverError):
    """The adaptive integrator could not take a step of acceptable size."""


class MaxStepsExceeded(SolverError):
    """The step budget ran out before the integration finished."""


class DenominatorTooSmall(SolverError):
    """The integral-operator denominator dropped below its safety margin."""


class NotContractive(SolverError):
    """Fixed-point iteration requested outside the contraction regime."""


class NoConvergence(SolverError):
    """Fixed-point iteration failed to meet tolerance within the budget."""


class OutsideMonotoneRegion(SolverError):
    """A point lies outside the region where the angular speed is positive,
    so the radial-to-scalar change of variables is not defined there."""


class OutsideTransformImage(SolverError):
    """A value lies outside the image of the forward change of variables,
    so it cannot be mapped back to a radius."""


class LeftMonotoneRegion(SolverError):
    """An orbit left the positive-angular-speed region mid-integration."""
