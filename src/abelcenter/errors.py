"""Exception types shared across the package.

Validation errors signal malformed inputs (bad job specs, inconsistent
coefficient lists, preconditions a caller can check up front).  Solver
errors signal numeric failures discovered mid-computation; they carry
enough context in the message to diagnose the run that produced them.

The argument gates at the end sit here, below every module that uses them.
"""

import math
import numbers

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


def _as_float(value, name: str) -> float:
    """``float(value)``, numeric strings included, for a real-number argument: a half-width,
    an initial value, a radius, a sup bound.  A bool (numpy's too: dtype kind "b"), a value
    ``float()`` rejects and one beyond the float range raise :class:`ValidationError` naming
    ``name``.  Own rules: ``SolverConfig`` takes no string tolerance; coefficients read "1/2"."""
    try:
        if isinstance(value, bool) or getattr(getattr(value, "dtype", None), "kind", "") == "b":
            raise TypeError("a bool is not a number")
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} lies beyond the float range") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad {name} {value!r}: {exc}") from exc


def _as_finite(value, name: str) -> float:
    """:func:`_as_float` for an argument that must be finite too: a Cherkas map's point,
    a Picard rho, a ball radius."""
    if not math.isfinite(value := _as_float(value, name)):
        raise ValidationError(f"{name}={value} is not finite")
    return value


def _as_count(value, name: str, low: int, high: float = math.inf) -> None:
    """Check a count (a step cap, a sample count, a seed, a degree): a non-bool integer, numpy's
    included, in [low, high]; anything else raises :class:`ValidationError` naming ``name``."""
    if type(value) is bool or not (isinstance(value, numbers.Integral) and low <= value <= high):
        raise ValidationError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


def _rho_grid(values) -> list[float]:
    """The entries of a nonempty grid of initial values, each through :func:`_as_float` as rho.
    A string (it would read as its digits), a number, ``None`` or a 0-d array is no grid."""
    if (values is None or isinstance(values, (str, numbers.Number))
            or getattr(values, "ndim", 1) == 0):
        raise ValidationError(f"rho_grid must be an iterable of numbers, got {values!r}")
    rhos = [_as_float(r, "rho") for r in values]
    if not rhos:
        raise ValidationError("rho grid must be nonempty")
    return rhos
