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
    step's or the eps scan's minimum is non-finite, a step's BLEP is
    saturated over its whole range, or the ``eps_star_asyn`` refine meets a
    NaN slope or its step cap."""


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
    """A run would need more memory or time than one of the scale limits
    in ``_SCALE_LIMITS``, the README's "Scale limits" table; raised by
    ``_check_scale`` before the work is sized or started."""


# kind -> (limit, the amount's unit in a message, remedy), each limit
# bounding one quantity a run sizes or starts (a GiB kind counts bytes),
# with the reason for its value.  The README's "Scale limits" table lists
# the same kinds and limits
_SCALE_LIMITS = {
    # bytes of one array over the sensors: an analytic sweep's (rows x M)
    # weight stack, or one scan lane's (width x M) values, eps_star_asyn's
    # 512-point eps grid or an optimizer step's range.  1 GiB, some 30,000
    # times the bundled specs' largest (850 rows x 5); a run's peak is a
    # few such arrays
    "sensor_bytes": (1 << 30, "GiB", "use fewer sensors"),
    # blocklengths or shift indices of one range, about 700 times the
    # largest bundled range (1,490); its arrays and (range x M) temporaries
    "range": (1 << 20, "values", "raise the symbol duration or shorten the period"),
    # (N, h) points of one asynchronous exhaustive search, about 240 times
    # the largest bundled grid (277,140); at about 7 ns a point a full grid
    # takes about half a second
    "grid": (1 << 26, "points", "raise the symbol duration or shorten the period"),
    # bytes the event-level oracle sizes per period before it draws: the
    # success mask and the SNR row(s), and a traced run's columns.  4 GiB,
    # far above the 165 MB of a traced 1e6-period run of 5 sensors; past it
    # numpy would fail untyped, or take most of the machine's memory first
    "period_bytes": (1 << 32, "GiB of per-period arrays", "reduce periods"),
    # simulated periods of one sim row, periods x replicas, a replica
    # counted as at least its fixed cost in periods.  2^30, about 1,000
    # times the oracle benchmark's 1e6 x 1: some 150 s of drawing there
    "sim_periods": (1 << 30, "period equivalents", "reduce periods or replicas"),
    # points of one sweep (the product of its axis lengths) or of one
    # linspace axis: about 1,200 times the largest bundled sweep (850)
    "sweep_points": (1 << 20, "points", "sweep fewer values"),
    # entries of the data-level oracle's joint Gaussian, held samples and
    # evaluation instants: a dense (k x k) Cholesky, O(k^3)
    "data_entries": (2000, "entries", "reduce periods"),
}


def _check_scale(kind, need, what):
    """ScaleLimitError ``<what> would need <amount> (> <limit>); <remedy>``
    unless ``need`` is at most the ``kind`` limit of ``_SCALE_LIMITS`` (NaN
    and inf fail).  Bytes read in GiB, a float to 3 digits, a count as is."""
    limit, unit, remedy = _SCALE_LIMITS[kind]
    if not need <= limit:
        if unit.startswith("GiB"):
            need, limit = f"{need / 2**30:.3g}", f"{limit / 2**30:g} GiB"
        elif isinstance(need, float):
            need = f"{need:.3g}"
        raise ScaleLimitError(f"{what} would need {need} {unit} (> {limit}); {remedy}")
