"""Exception types shared across the package."""


class DemonBatteryError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(DemonBatteryError):
    """Operands have incompatible dimensions."""


class StateInvalid(DemonBatteryError):
    """A density matrix violates Hermiticity, unit trace or positivity."""


class DegenerateEvidence(DemonBatteryError):
    """Bayes update impossible: the observed outcome has zero probability
    under the prior."""
