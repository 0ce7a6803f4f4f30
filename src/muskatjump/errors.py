"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration input: bad schema, length mismatch, bad parameter."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class GeometryError(RuntimeError):
    """The interface touches the permeability line or leaks into the boundary band."""


class RegimeError(RuntimeError):
    """A constant is undefined in this regime (nonpositive denominator, no threshold)."""


class WeightRangeError(OverflowError):
    """An analyticity weight exp(nu t |xi|) lies past the exponential guard."""


class MethodUnavailableError(RuntimeError):
    """The requested evaluation method cannot meet its error bound for this input."""


class PicardDivergenceError(RuntimeError):
    """Fixed-point vorticity solve did not contract.

    Carries the full residual history so callers can inspect how the
    iteration behaved before giving up.
    """

    def __init__(self, message, residual_history):
        super().__init__(message)
        self.residual_history = list(residual_history)


class StepSizeError(RuntimeError):
    """Time step violates the stability guard."""


class BlowUpError(RuntimeError):
    """NaN/Inf detected during time stepping; carries the last valid state."""

    def __init__(self, message, last_valid_state):
        super().__init__(message)
        self.last_valid_state = last_valid_state
