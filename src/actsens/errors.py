"""Exception hierarchy shared across the toolkit."""


class ActsensError(Exception):
    """Base class for all toolkit errors."""


class IntegrationError(ActsensError):
    """Base class for ODE integration failures."""


class StepSizeUnderflow(IntegrationError):
    """Adaptive step control drove the step below the resolution of t."""


class NonFiniteState(IntegrationError):
    """The right-hand side produced NaN or Inf."""


class StepBudgetExceeded(IntegrationError):
    """A solve made ``odecore.MAX_STEP_ATTEMPTS`` step attempts without
    reaching the end of its grid: a stiff right-hand side, or a horizon
    far longer than the model's time constants."""


class PoleViolation(ActsensError, ValueError):
    """Relative CE length at or beyond ell_rho, where the length-dependency blows up."""


class ParameterOutOfRange(ActsensError, ValueError):
    """A model parameter lies outside its valid range; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class DomainViolation(ActsensError, ValueError):
    """Activity outside the open interval where fractional powers are real."""


class DegenerateState(ActsensError, ValueError):
    """A closed-form expression is evaluated where its denominator vanishes."""


class MissingDerivative(ActsensError):
    """A model does not provide a partial derivative required by the requested analysis."""


class InvalidBounds(ActsensError, ValueError):
    """Parameter cuboid bounds are inconsistent (lower > upper)."""


class SamplingError(ActsensError):
    """Rejection sampling could not produce a valid sample row within the retry budget."""


class NoInteriorMaximum(ActsensError):
    """The isometric-force maximum lies on the search-interval boundary, or
    the coarse scan cannot bracket it (the force is flat to rounding)."""


class MaxIterationsExceeded(ActsensError):
    """The Levenberg-Marquardt fit did not converge within its step cap."""


class ConfigError(ActsensError, ValueError):
    """Invalid run configuration (CLI exit code 2)."""
