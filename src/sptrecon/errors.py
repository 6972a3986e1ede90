"""Exception types shared across the package."""


class InvalidConfigError(ValueError):
    """A parameter bundle violates its validity constraints."""


class InvalidQueryError(ValueError):
    """A correlation query is malformed (negative lag, bad index)."""


class UndefinedMsscError(InvalidConfigError):
    """The mean squared spatial correlation needs at least two sensors."""


class DomainError(ValueError):
    """An input is outside the mathematical domain of the operation."""


class DecompositionError(RuntimeError):
    """Covariance factorization failed even after diagonal jitter."""


class BracketError(RuntimeError):
    """A scalar search cannot give a trustworthy answer: an adaptation
    step's objective is non-finite or saturated over its whole range, or
    the ``eps_star_asyn`` refine meets a NaN slope or its step cap."""


class InvariantError(RuntimeError):
    """A computed result breaks a guarantee of the closed forms, such as
    ``mse_lb <= mse_analytic <= mse_ub`` on an analytic row."""


class RegionDegenerateError(RuntimeError):
    """The scheme-preference threshold is undefined for this configuration.

    ``always_superior`` tells whether the asynchronous scheme wins for every
    spatial-correlation value (True), never wins (False).
    """

    def __init__(self, message, always_superior):
        super().__init__(message)
        self.always_superior = always_superior


class ScaleLimitError(InvalidConfigError):
    """A run would need more memory or time than its stated budget: a
    sampled-field run's joint covariance, an event-level run's per-period
    arrays, an array over the sensors, a blocklength or time-shift range,
    an exhaustive grid, or a simulation's periods x replicas."""
