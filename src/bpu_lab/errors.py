"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "BpuLabError",
    "DomainError",
    "ContractViolation",
    "BohrSommerfeldError",
    "IntegrationAccuracyError",
    "TubeStepError",
    "NowhereVanishingError",
    "OutsideAdmissibleSetError",
    "IllConditionedFitError",
    "ConfigError",
]


class BpuLabError(Exception):
    """Base class for all package errors."""


class DomainError(BpuLabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ContractViolation(BpuLabError, ValueError):
    """A documented precondition does not hold for the supplied data."""


class BohrSommerfeldError(BpuLabError):
    """The loop has no finite holonomy order, so no closed lift exists."""


class IntegrationAccuracyError(BpuLabError):
    """A numerical integration failed its internal accuracy check."""


class TubeStepError(BpuLabError):
    """A point left the domain of the tube: a flowed node reached the focal
    point of its normal geodesic, a moved loop is not resolved on its nodes,
    or a foot projection found no maximum."""


class NowhereVanishingError(BpuLabError):
    """The half-weight vanishes somewhere, so the operation is undefined."""


class OutsideAdmissibleSetError(BpuLabError):
    """The projected vector is zero at this level; the map is undefined."""


class IllConditionedFitError(BpuLabError):
    """The fit basis is degenerate on the sampled range."""


class ConfigError(BpuLabError, ValueError):
    """An experiment configuration is invalid."""
